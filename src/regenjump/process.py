"""Jump-chain simulation, extinction times, and regeneration cycles.

The chain alternates deterministic flow and additive kicks:

    ``X_m = T(beta_m) X_{m-1} + eta_m``,  jump times ``alpha_m = sum beta_k``.

The path flows by T between jumps and is right-continuous at them.  A chain
step is *extinct* when the pre-kick state ``T(beta_m) X_{m-1}`` has ambient
norm at or below the policy threshold; threshold crossing is treated as exact
extinction (the pre-kick state is snapped to zero), so the post-kick state at
a regeneration equals the kick bit-exactly.  Regeneration times split the
path into cycles whose lengths and functional integrals are i.i.d.; the
segment before the first regeneration is the warm-up and is emitted
separately.

Three drivers are provided: ``simulate_cycles`` returns a run's cycles as
columns (``Cycles``), concatenated from its windows; ``cycle_moments``
accumulates cycle moments with O(1) memory in the cycle count, for scalar
and vector-valued functionals alike (every estimation run reads them); and
``simulate_until_time`` makes a single pass to a fixed horizon for each
replicate of a block, producing running integrals at checkpoints,
regeneration counts, and at each checkpoint the random-index sums of S and
tau over the cycles up to the one reaching past it, one row per replicate.

Each backend has one chain, and every chain has one interface: ``advance``
returns the next window of the run's cycles (a ``_Window``),
``advance_block`` the next window of each chain of a block, and ``partial``
integrates every functional over the start of one step of a window.  A
window holds many cycles, and a cycle still open at its end goes on in the
next.  On the scalar power-law backend the chain is a regeneration table
(``_ScalarChain``), a numpy kernel with the closed-form flow: each lane is
stepped once, logging its states, and the path's states, read off that log,
give each step's segment values and each cycle's sums in one place.  A
block's windows share one table, so many short horizon replicates cost one
kernel call, not one each.  On the grid the chain is a stepper
(``_StepChain``): a block's chains take their windows' steps in turn, and
then the quadrature of all those steps runs together, one Simpson level of
every segment in one row-batched implicit-Euler step.  ``advance`` is a
block of one.  ``_chain`` picks a chain, and each driver has one reader over
its windows.  Both chains give, bit for bit, what a plain loop over the
chain's steps gives, whatever the window and the block; the tests' per-step
oracle is that loop and the reference for every driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .driver import DriverConfig
from .errors import CycleCapExceeded, NonConvergence, QuadratureBudgetExceeded
from .functionals import (
    abs_flow_integral,
    closed_form_value,
    has_closed_form,
    integrate_segment,
    integrate_segments,
)
from .semigroup import ScalarPowerLaw
from .spaces import StateVector

__all__ = [
    "ExtinctionPolicy",
    "Cycles",
    "HorizonResult",
    "CycleMoments",
    "simulate_cycles",
    "simulate_until_time",
    "cycle_moments",
]

@dataclass(frozen=True)
class ExtinctionPolicy:
    """Extinction threshold on the ambient norm and the per-cycle step cap."""

    eps_ext: float = 1e-12
    m_cap: int = 1_000_000

    def __post_init__(self):
        if self.eps_ext <= 0:
            raise ValueError("eps_ext must be positive")
        if self.m_cap < 1:
            raise ValueError("m_cap must be at least 1")


@dataclass
class Cycles:
    """Cycles 1 .. n of one run as columns, and the warm-up before them as a row.

    Cycle i (row i - 1) takes chain steps m_start + 1 .. m_end, ``steps`` of
    them, from time t_start to t_end, ``tau`` long; ``integrals`` holds each
    functional's cycle integrals by label, one row per cycle (2-D for a
    vector-valued functional).  ``warmup`` is the segment before the first
    regeneration, as the row ``__iter__`` yields for it; it is not a cycle,
    so no column holds it.
    """

    warmup: tuple
    m_start: np.ndarray
    m_end: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    tau: np.ndarray
    steps: np.ndarray
    integrals: dict

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    def __iter__(self):
        """Rows (m_start, m_end, t_start, t_end, tau, steps, *integrals) of Python
        scalars, the warm-up first; a vector integral is a list.

        The only row view.  ``cli`` transposes it into the columns of
        ``cycles.csv``, so that the file is the same under the benchmark's
        trace (``bench/trace.py``), which drains ``simulate_cycles`` with
        ``list()`` to count its rows and passes the rows on.
        """
        yield self.warmup
        cols = (self.m_start, self.m_end, self.t_start, self.t_end, self.tau, self.steps)
        yield from zip(*(col.tolist() for col in (*cols, *self.integrals.values())))


@dataclass
class HorizonResult:
    """Output of ``simulate_until_time`` for a block of replicates.

    Row r of each array is replicate r of the block.
    ``integrals[label][r, j]`` is the path integral of that functional over
    [0, checkpoints[j]]; ``counts[r, j]`` is the number of regenerations up
    to and including checkpoints[j].  ``index_s[label][r, j]`` and
    ``index_tau[r, j]`` are the random-index sums of the cycle integrals and
    lengths over the post-warm-up cycles 1 .. counts[r, j] + 1, added in
    cycle order; the last of those cycles reaches past checkpoints[j], so
    each run extends until its cycle counts[r, -1] + 1 closes.  A
    vector-valued functional adds its trailing axis.  ``cycle_tau`` holds
    the lengths of every replicate's cycles 1 .. counts[r, -1] + 1, one
    replicate after another; no study reads it, and it is kept only for the
    benchmark's trace, which counts it.
    """

    checkpoints: np.ndarray
    integrals: dict
    counts: np.ndarray
    index_s: dict
    index_tau: np.ndarray
    cycle_tau: np.ndarray

    @classmethod
    def concatenate(cls, results: list) -> "HorizonResult":
        """The blocks' rows one after another (the blocks share their checkpoints)."""

        def rows(parts):
            if isinstance(parts[0], dict):
                return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
            return np.concatenate(parts)

        fields = ("integrals", "counts", "index_s", "index_tau", "cycle_tau")
        merged = {f: rows([getattr(res, f) for res in results]) for f in fields}
        return cls(checkpoints=results[0].checkpoints, **merged)


@dataclass
class CycleMoments:
    """Running first and second moments of (S, tau) over completed cycles.

    A vector-valued functional's sums are arrays: ``sum_s`` and ``sum_s_tau``
    of shape (d,), and ``sum_s2`` the sum of the outer products S S^T, (d, d).
    """

    labels: list
    n: int = 0
    sum_tau: float = 0.0
    sum_tau2: float = 0.0
    sum_s: dict = field(default_factory=dict)
    sum_s2: dict = field(default_factory=dict)
    sum_s_tau: dict = field(default_factory=dict)

    def __post_init__(self):
        for label in self.labels:
            self.sum_s.setdefault(label, 0.0)
            self.sum_s2.setdefault(label, 0.0)
            self.sum_s_tau.setdefault(label, 0.0)

    def merge(self, other: "CycleMoments") -> "CycleMoments":
        if other.labels != self.labels:
            raise ValueError("cannot merge moments over different functionals")
        out = CycleMoments(labels=list(self.labels))
        out.n = self.n + other.n
        out.sum_tau = self.sum_tau + other.sum_tau
        out.sum_tau2 = self.sum_tau2 + other.sum_tau2
        for label in self.labels:
            out.sum_s[label] = self.sum_s[label] + other.sum_s[label]
            out.sum_s2[label] = self.sum_s2[label] + other.sum_s2[label]
            out.sum_s_tau[label] = self.sum_s_tau[label] + other.sum_s_tau[label]
        return out


_WINDOW = 1 << 16  # most lanes tabulated at once; bounds memory
_LANE_STEPS = 8  # most steps a tabulated lane takes; bounds the work wasted on long cycles
_CHUNK = 1024  # most inputs converted to Python floats at a time for a cycle stepped alone


def _seq_sum(start, values: np.ndarray):
    """``start + values[0] + ...`` added left to right along axis 0, as a loop adds
    (np.sum adds pairwise); a float start broadcasts along it."""
    if values.ndim > 1:
        start = np.broadcast_to(start, values.shape[1:])
    total = np.cumsum(np.concatenate(([start], values)), axis=0)[-1]
    return total if values.ndim > 1 else float(total)


@dataclass
class _Window:
    """The true chain's cycles that closed within one window, in order.

    The first of them is cycle number ``first`` of the run (0 is the
    warm-up); ``ends`` are their end positions in the window and
    ``alpha[i]`` is the jump time after i steps of it; ``m_end``, ``t_end``
    and ``tau`` are their last chain steps, end times and lengths.
    ``states`` holds the chain's state before each step (what its chain's
    ``partial`` reads); ``values`` (each functional's segment value over
    each step) and ``integrals`` (its integral over each cycle) hold one
    array per functional.
    """

    first: int
    ends: np.ndarray
    m_end: np.ndarray
    t_end: np.ndarray
    tau: np.ndarray
    integrals: list
    alpha: np.ndarray
    states: object
    values: list


class _Chain:
    """What both chains share."""

    def advance(self, cycles: float, until: float = 0.0, last: int | None = None) -> _Window:
        """The next window, for about ``cycles`` more cycles and the time up to
        ``until``, and through cycle ``last`` at most: ``advance_block`` on a
        block of one, whose error is raised."""
        (window,) = self.advance_block([self], [(cycles, until, last)])
        if isinstance(window, Exception):
            raise window
        return window


class _ScalarChain(_Chain):
    """The scalar power-law chain of one replicate stream, a window at a time.

    Each window draws (beta, eta) pairs through the replicate's streams and
    reads the true chain's cycles off a regeneration table: one lane per
    candidate cycle start at the next n positions (n sized from the work
    asked for), namely the cycle open at the window's start (lane 0) and the
    kick at every later position, all advanced together one chain step per
    iteration until each goes extinct or has taken ``_LANE_STEPS`` steps.  A
    cycle started by a kick depends only on the inputs after it, so
    following cycle ends from lane 0 visits exactly the true chain's cycles.
    A cycle on that path still open after its table steps is stepped on
    alone in Python floats, so no lane runs far inside a long cycle.  Lanes
    pay only while cycles are short, so once the measured mean cycle
    outlasts a lane's steps, lanes take no steps and every cycle is stepped
    alone.

    ``advance_block`` tabulates the windows of a block of chains (one per
    replicate, all on the same flow and policy) in shared tables of at most
    ``_WINDOW`` lanes: each chain's inputs are one segment of the table's,
    holding its lanes and the ``_LANE_STEPS`` inputs after them, so no lane
    reads another chain's inputs, and each chain keeps its own window size,
    open cycle, path and window.  ``advance`` is a block of one.

    Lanes only step states, and each step logs the live lanes' positions and
    states (at most ``_LANE_STEPS`` arrays of the table's size), so the
    paths' states are read off that log once the paths are known; cycles
    stepped alone log theirs as they go.  Then, in one place, the states
    give every step's closed-form segment value (shared with
    ``integrate_segment``) and each cycle adds its values in order from its
    start.  As every lane repeats the operations of a per-step loop over the
    flow (``ScalarPowerLaw.evolve_scalar``, which leaves the state unchanged
    on a zero beta), every output equals that loop's bit for bit, whatever
    the block.
    """

    def __init__(self, x0, driver, sg, policy, functionals, replicate_index):
        streams = driver.streams(replicate_index)
        self._draw_betas = partial(driver.beta.sample_block, streams.beta_rng)
        self._draw_etas = partial(driver.eta.sample_block, streams.eta_rng)
        self._mean_beta = driver.beta.mean()
        self._kappa = sg.kappa
        self._rho = sg.rho
        self._inv_rho = 1.0 / sg.rho
        self._eps_ext = policy.eps_ext
        self._m_cap = policy.m_cap
        self.functionals = list(functionals)
        self._b = np.empty(0)  # drawn inputs no window has reached yet
        self._e = np.empty(0)
        # the open cycle: current state, integrals so far, first step, start time
        self._x = x0.scalar
        self._acc = [0.0] * len(self.functionals)
        self._m_start = 0
        self._t_start = 0.0
        self.m = 0  # chain steps taken
        self.alpha = 0.0  # jump time of step m
        self.closed = 0  # cycles closed, the warm-up included

    def per_cycle(self) -> float:
        """Mean chain steps per cycle so far, the open cycle included."""
        return (self.m + 2) / (self.closed + 1)

    def abs_integral(self, x, delta):
        """Integral of ``|T(tau) x|`` over [0, delta], elementwise."""
        # np.float_power equals Python's float ** bit for bit; np.power does not
        c = np.float_power(np.abs(x), self._rho)
        return abs_flow_integral(c, delta, self._kappa, self._rho)

    def partial(self, window: _Window, i: int, dt: float) -> list:
        """Each functional's integral over the first dt of step i of a window."""
        x = window.states[i : i + 1]
        i_abs = self.abs_integral(x, dt)
        return [closed_form_value(xi, x, i_abs, dt)[0] for xi in self.functionals]

    def _size(self, cycles: float, until: float):
        """Lanes n and lane steps k of the next window, with its n + k inputs drawn.

        The window covers about ``cycles`` more cycles and the time up to ``until``.
        """
        steps = cycles * self.per_cycle() + max(until - self.alpha, 0.0) / self._mean_beta
        n = min(_WINDOW, int(1.1 * steps) + 64)
        # a lane started inside a cycle is wasted work, so long cycles are
        # cheaper stepped alone
        k = _LANE_STEPS if self.per_cycle() <= _LANE_STEPS else 0
        if self._b.size < n + k:
            more = n + k - self._b.size
            self._b = np.concatenate((self._b, self._draw_betas(more)))
            self._e = np.concatenate((self._e, self._draw_etas(more)))
        return n, k

    def _lanes(self, b, e, at, x, k_cap, zero_beta):
        """Step one lane from each position in ``at``, which starts a cycle there.

        ``x`` holds each lane's state before its first step.  Each lane steps
        until it goes extinct or has taken k_cap steps.  Returns the list of
        each table position's lane end (after its extinction step, or -1
        while open or where no lane starts), each open lane's state at its
        start position, and the log of each step after the first: the live
        lanes' positions, ascending, and their states before it.
        """
        kappa, rho, inv_rho, eps_ext = self._kappa, self._rho, self._inv_rho, self._eps_ext
        end = np.full(b.size, -1)
        x_open = np.zeros(b.size)
        log = []
        for j in range(k_cap):
            if j:
                log.append((at, x))
            # in place where it can be (fresh arrays of the table's size cost page
            # faults), and np.compress for boolean indexing, which is several times faster
            beta = b[at]
            ax = np.abs(x)
            r = np.float_power(ax, rho)
            r -= kappa * beta
            pre = np.float_power(np.maximum(r, 0.0, out=r), inv_rho, out=r)
            np.minimum(pre, ax, out=pre)
            if zero_beta:  # T(0) = I, not the power round trip
                pre = np.where(beta == 0.0, ax, pre)
            # a lane goes on only if pre > 0, so x != 0 and copysign is where(x >= 0, pre, -pre)
            x = np.copysign(pre, x, out=ax)
            x += e[at]
            at = at + 1
            ext = pre <= eps_ext
            if ext.any():
                ended = np.compress(ext, at)
                end[ended - (j + 1)] = ended
                keep = ~ext
                x, at = np.compress(keep, x), np.compress(keep, at)
                if not at.size:
                    break
        x_open[at - k_cap] = x
        return end.tolist(), x_open, log

    def _alone(self, x: float, pos: int, limit: int):
        """Step one cycle alone from state x before window position pos.

        Stops after its extinction step or at position limit.  Returns the
        end position (-1 if still open), the state before each step, and the
        last state.  Python floats take the table lanes' operations one at a
        time (Python's ``**`` equals ``np.float_power``).
        """
        kappa, rho, inv_rho, eps_ext = self._kappa, self._rho, self._inv_rho, self._eps_ext
        states = []
        chunk = 32
        while pos < limit:
            hi = min(limit, pos + chunk)
            chunk = min(2 * chunk, _CHUNK)
            for beta, eta in zip(self._b[pos:hi].tolist(), self._e[pos:hi].tolist()):
                states.append(x)
                pos += 1
                ax = abs(x)
                r = ax**rho - kappa * beta
                pre = 0.0
                if r > 0.0:
                    pre = r**inv_rho
                    if pre > ax or beta == 0.0:  # evolve's ulp clamp; T(0) = I
                        pre = ax
                if pre <= eps_ext:
                    return pos, states, x
                x = (pre if x >= 0 else -pre) + eta
        return -1, states, x

    def _walk(self, end, x_open, o, n, k, want, states):
        """Follow cycle ends from lane 0 of this chain's segment at table offset o.

        A cycle still open after its table steps is stepped on alone and
        writes its states.  Returns the path's cycles: the table positions
        where each starts and where its steps in this window stop; how many
        of them (at most ``want``) close, and the run's step m_end that each
        of those ends with; whether the next cycle starts at a kick (else the
        last is still open, in state x_last); and the positions the window
        takes from o.
        """
        starts = []
        append = starts.append
        p, hi, is_open, x_last = o, o + n, False, None
        while True:
            while p < hi and (q := end[p]) > 0:
                append(p)
                p = q
            if p >= hi or len(starts) >= want:
                break
            q, xs, x_last = self._alone(float(x_open[p]), p - o + k, n + k)
            states[p + k : p + k + len(xs)] = xs
            append(p)
            if q < 0:
                is_open = True
                break
            p = q + o
        keep = min(len(starts) - is_open, want)
        starts = np.array(starts, dtype=np.int64)
        stops = np.append(starts[1:], p)
        m_end = self.m - o + stops[:keep]
        m_start = np.concatenate(([self._m_start], m_end[:-1]))
        over = np.flatnonzero(m_end - m_start > self._m_cap)
        fresh = True  # the next cycle starts at a kick
        if over.size:  # that cycle stays open, and the next call raises
            keep = int(over[0])
            reach = int(stops[keep])
        elif is_open and keep == len(starts) - 1:
            reach, fresh = o + n + k, False
        else:
            reach = int(stops[keep - 1])
        n_path = keep + (not fresh)
        bounds = stops[:n_path]
        bounds[keep:] = reach  # the open cycle's steps stop where the window does
        return starts[:n_path], bounds, keep, m_end[:keep], fresh, x_last, reach - o

    @staticmethod
    def advance_block(chains, asks):
        """Yield the next window of each chain, asked as ``advance``'s (cycles, until, last).

        Chains are tabulated together, in order, in tables of at most
        ``_WINDOW`` lanes, each made once the last one's windows are taken,
        so a block holds one table at a time.  A window stops after cycle
        ``last`` closes, or before a cycle longer than the step cap, which
        the next call yields its CycleCapExceeded for in place of a window;
        inputs past the point a chain reached are kept for its next window.
        """
        block, lanes = [], 0
        for chain, (cycles, until, last) in zip(chains, asks):
            if chain.m - chain._m_start > chain._m_cap:
                yield from _ScalarChain._table(block)
                block, lanes = [], 0
                yield CycleCapExceeded(f"cycle {chain.closed} exceeded {chain._m_cap} chain steps")
                continue
            n, k = chain._size(cycles, until)
            if lanes + n > _WINDOW:
                yield from _ScalarChain._table(block)
                block, lanes = [], 0
            block.append((chain, n, k, last))
            lanes += n
        yield from _ScalarChain._table(block)

    @staticmethod
    def _table(block):
        """One regeneration table over a block of (chain, n, k, last): yields their windows."""
        if not block:
            return
        head = block[0][0]
        fns = head.functionals
        sizes = [n + k for _, n, k, _ in block]
        offsets = list(accumulate(sizes, initial=0))
        b = np.concatenate([chain._b[:size] for (chain, *_), size in zip(block, sizes)])
        e = np.concatenate([chain._e[:size] for (chain, *_), size in zip(block, sizes)])

        # lane p of a chain starts at the kick before p; lane 0 continues its open cycle
        lanes = [(o, n, chain._x) for (chain, n, k, _), o in zip(block, offsets) if k]
        ns = np.array([n for _, n, _ in lanes], dtype=np.int64)
        heads = np.cumsum(ns) - ns
        starts = np.array([o for o, _, _ in lanes], dtype=np.int64)
        at = np.arange(ns.sum()) + np.repeat(starts - heads, ns)
        x = e[at - 1]
        x[heads] = [x0 for _, _, x0 in lanes]
        k_cap = max(k for _, _, k, _ in block)
        end, x_open, log = head._lanes(b, e, at, x, k_cap, zero_beta=not b.all())
        del at, x
        for (chain, n, k, _), o in zip(block, offsets):
            if not k:  # long cycles: the chain's lanes take no steps
                x_open[o] = chain._x
                x_open[o + 1 : o + n] = e[o : o + n - 1]

        # each chain's path; then the paths' states come from their lanes' log
        states = np.zeros(b.size)
        walks = [
            chain._walk(end, x_open, o, n, k, n if last is None else last + 1 - chain.closed,
                        states)
            for (chain, n, k, last), o in zip(block, offsets)
        ]
        del end, x_open
        paths = [walked[0] for walked in walks]
        path = np.concatenate(paths)
        bounds = np.concatenate([walked[1] for walked in walks])
        lane_steps = np.repeat([k for _, _, k, _ in block], [p.size for p in paths])
        firsts = list(accumulate((p.size for p in paths[:-1]), initial=0))
        lens = np.minimum(bounds - path, lane_steps)
        # each cycle's lane steps, one offset at a time: (cycles, positions); a
        # lane starts at the kick before it, or at a chain's lane 0 (where each
        # path starts) from the open cycle's state
        live = np.flatnonzero(lens)
        pos = path[live]
        states[pos] = e[pos - 1]
        for (chain, *_), o, p in zip(block, offsets, paths):
            if p.size:
                states[o] = chain._x
        walk = [(live, pos)]
        for j, (at, x) in enumerate(log, start=1):
            live = live[lens[live] > j]
            pos = path[live] + j
            states[pos] = x[np.searchsorted(at, pos)]
            walk.append((live, pos))
        del log  # freed before the values are made, to keep the table's peak memory

        # each step's values follow, and each cycle adds them in order from its start, as a loop
        i_abs = head.abs_integral(states, b)
        values = [closed_form_value(xi, states, i_abs, b) for xi in fns]
        sums = [np.zeros(path.size) for _ in fns]
        opens = [(i, chain._acc) for (chain, *_), i, p in zip(block, firsts, paths) if p.size]
        for f, s in enumerate(sums):  # each open cycle's integrals so far
            s[[i for i, _ in opens]] = [acc[f] for _, acc in opens]
        for live, pos in walk:
            for s, v in zip(sums, values):
                s[live] += v[pos]
        for i in np.flatnonzero(bounds - path > lane_steps).tolist():  # then the steps taken alone
            lo, hi = int(path[i] + lane_steps[i]), int(bounds[i])
            for s, v in zip(sums, values):
                s[i] = _seq_sum(s[i], v[lo:hi])

        for (chain, *_), walked, o, first in zip(block, walks, offsets, firsts):
            yield chain._close(walked, o, first, b, e, states, values, sums)

    def _close(self, walked, o, first, b, e, states, values, sums) -> _Window:
        """This chain's window off its table segment at offset o, whose path's
        cycles are the table's from ``first``; moves the chain past it."""
        _, bounds, keep, m_end, fresh, x_last, reach = walked
        ends = bounds[:keep] - o
        beta = b[o : o + reach]
        alpha = np.cumsum(np.concatenate(([self.alpha], beta)))  # as alpha += beta
        t_end = alpha[ends]
        t_start = np.concatenate(([self._t_start], t_end))[:-1]
        window = _Window(
            first=self.closed,
            ends=ends,
            m_end=m_end,
            t_end=t_end,
            tau=t_end - t_start,
            integrals=[s[first : first + keep] for s in sums],
            alpha=alpha,
            states=states[o : o + reach],
            values=[v[o : o + reach] for v in values],
        )
        if keep:
            self._m_start = int(m_end[keep - 1])
            self._t_start = float(t_end[-1])
        if fresh:
            self._x = float(e[o + reach - 1])
            self._acc = [0.0] * len(self.functionals)
        else:
            self._x = x_last
            self._acc = [float(s[first + keep]) for s in sums]
        # copies: a view would keep the whole draw alive for every chain of a block
        self._b, self._e = self._b[reach:].copy(), self._e[reach:].copy()
        self.m += reach
        self.alpha = float(alpha[-1])
        self.closed += keep
        return window


# Most chain steps a block's grid windows hold at once, for memory: until its
# window is read, each step keeps its flow's full states and every quadrature
# node's state, and the block's integration solves each Simpson level of all
# its steps as one stack of rows.  On configs/plaplace.ini (16 cells,
# identity_v2 and norm_v2) that peaks at about 0.58 MB a step (stacks of up to
# about 2,900 rows at 32 steps), while a window of 32 steps costs within 5% of
# the CPU of one of 128.
_GRID_STEPS = 32


@dataclass
class _Walk:
    """A grid window's steps before their integrals.

    Each step's (state, flow); the jump times after 0, 1, ... steps; the
    window positions where its closed cycles end; the (beta, kick) inputs
    drawn, one a step; the state after the last step; each step's values if
    it was integrated as it was taken; and the error that stopped the steps.
    """

    steps: list
    alpha: list
    ends: list
    draws: list
    x: StateVector
    values: list | None
    error: Exception | None = None


class _StepChain(_Chain):
    """The grid chain of one replicate stream, a window of steps at a time.

    A window first takes its steps (``_walk``): each draws (beta, eta) one
    at a time from the replicate's streams, makes one segment flow from the
    current state, takes it to the pre-kick state at beta, snaps an extinct
    one to zero and kicks.  These are the steps a step-at-a-time chain takes,
    and none past the cycle that ends the run.  Then ``advance_block``
    integrates every functional over every step of its block's windows
    together (``functionals.integrate_segments``, one Simpson level at a
    time across all of them), and each window reads its values back through
    ``integrate_segment``, once per (step, functional).  A window keeps each
    step's (state, flow) for ``partial``; a cycle still open when a window
    is full is carried into the next one with its integrals so far.  If a
    window's steps or its block's integrals fail, the window is stepped again
    from its start on the same inputs, integrating each step as it is taken,
    so that the error raised is the one a step-at-a-time chain raises.
    """

    def __init__(self, x0, driver, sg, policy, functionals, replicate_index):
        streams = driver.streams(replicate_index)
        self._next_beta = partial(driver.beta.sample, streams.beta_rng)
        self._next_eta = partial(driver.eta.sample_values, streams.eta_rng, sg.space)
        self._sg, self._policy = sg, policy
        self.functionals = list(functionals)
        # the open cycle: current state, integrals so far, first step, start time
        self._x = x0
        self._acc = [xi.zero_value() for xi in self.functionals]
        self._m_start = 0
        self._t_start = 0.0
        self.m = 0
        self.alpha = 0.0
        self.closed = 0

    @staticmethod
    def advance_block(chains, asks):
        """Yield the next window of each chain, asked as ``advance``'s (cycles, until, last).

        Chains take their steps in order, each window at most the room left
        of ``_GRID_STEPS``; once the room is used, those windows are
        integrated together and yielded, and the next chains start afresh.  A
        chain whose cycle exceeds the step cap, or whose solver or quadrature
        fails, yields that error in place of a window.
        """
        group, room = [], _GRID_STEPS
        for chain, ask in zip(chains, asks):
            walk = chain._walk(*ask, room)
            group.append((chain, ask, walk))
            room -= len(walk.draws)
            if room <= 0:
                yield from _StepChain._integrate(group)
                group, room = [], _GRID_STEPS
        yield from _StepChain._integrate(group)

    def _walk(self, cycles, until, last, room, draws=None) -> _Walk:
        """The steps of this chain's next window, at most ``room`` of them; the
        chain itself does not move.

        The window goes on with its open cycle, and it starts cycle j only
        if j is at most ``last`` (when given) and j is among its first
        ``cycles`` cycles or cycle j - 1 started before time ``until``.  A
        run to a horizon asks for 2 cycles and its horizon while the horizon
        is ahead of the chain, and then for the cycles through ``last``, so
        no step past its last cycle is taken: a cycle that starts before the
        horizon is not its last one.  An error stops the steps and is kept.
        With ``draws``, the steps take those inputs and integrate each step
        before its pre-kick state, as a step-at-a-time chain does, and an
        error is raised.
        """
        sg, fns, policy, space = self._sg, self.functionals, self._policy, self._sg.space
        replay = draws is not None
        walk = _Walk([], [self.alpha], [], draws or [], self._x, [] if replay else None)
        state, m, m_start, first = self._x, self.m, self._m_start, self.closed
        started = self._t_start  # when the cycle last begun started
        try:
            while len(walk.steps) < room:
                k = len(walk.steps)
                if walk.ends and walk.ends[-1] == k:  # step k starts cycle j
                    j = first + len(walk.ends)
                    if (last is not None and j > last) or (j - first >= cycles and previous >= until):
                        break
                if not replay:
                    walk.draws.append((self._next_beta(), self._next_eta()))
                beta, eta_vals = walk.draws[k]
                flow = sg.segment_flow(state)
                if replay:
                    walk.values.append(
                        [integrate_segment(xi, state, beta, sg, flow=flow).value for xi in fns]
                    )
                pre = StateVector(space, flow.at(beta))
                extinct = pre.norm_v() <= policy.eps_ext
                m += 1
                if m - m_start > policy.m_cap:
                    cycle = first + len(walk.ends)
                    raise CycleCapExceeded(f"cycle {cycle} exceeded {policy.m_cap} chain steps")
                walk.alpha.append(walk.alpha[-1] + beta)
                walk.steps.append((state, flow))
                state = StateVector(space, eta_vals if extinct else pre.values + eta_vals)
                if extinct:
                    walk.ends.append(k + 1)
                    previous, started, m_start = started, walk.alpha[-1], m
        except (CycleCapExceeded, NonConvergence) as exc:
            if replay:
                raise
            walk.error = exc
        walk.x = state
        return walk

    @staticmethod
    def _integrate(group):
        """Integrate the walked windows of a group of (chain, ask, walk) together,
        and yield each chain's window (or error) in turn."""
        segments = [
            (xi, beta, flow)
            for chain, _, walk in group
            if walk.error is None
            for (_, flow), (beta, _) in zip(walk.steps, walk.draws)
            for xi in chain.functionals
        ]
        try:
            if segments:
                integrate_segments(segments, group[0][0]._sg)
            failed = False
        except (NonConvergence, QuadratureBudgetExceeded):
            failed = True
        for chain, ask, walk in group:
            if failed or walk.error is not None:
                try:
                    walk = chain._walk(*ask, len(walk.draws), walk.draws)
                except (CycleCapExceeded, NonConvergence, QuadratureBudgetExceeded) as exc:
                    yield exc
                    continue
            yield chain._close(walk)

    def _close(self, walk: _Walk) -> _Window:
        """This chain's window off its walked, integrated steps; moves the chain past it."""
        sg, fns = self._sg, self.functionals
        values = walk.values
        if values is None:  # what the block's integration left on each flow
            values = [
                [integrate_segment(xi, state, beta, sg, flow=flow).value for xi in fns]
                for (state, flow), (beta, _) in zip(walk.steps, walk.draws)
            ]
        acc, sums, ends = self._acc, [], set(walk.ends)
        for k, vals in enumerate(values, start=1):  # as a loop adds, from each cycle's start
            acc = [a + v for a, v in zip(acc, vals)]
            if k in ends:
                sums.append(acc)
                acc = [xi.zero_value() for xi in fns]
        ends = np.array(walk.ends, dtype=np.int64)
        alpha = np.array(walk.alpha)
        t_end = alpha[ends]
        m_end = self.m + ends
        window = _Window(
            first=self.closed,
            ends=ends,
            m_end=m_end,
            t_end=t_end,
            tau=t_end - np.concatenate(([self._t_start], t_end[:-1])),
            integrals=[
                np.reshape([s[f] for s in sums], (len(sums), *np.shape(xi.zero_value())))
                for f, xi in enumerate(fns)
            ],
            alpha=alpha,
            states=walk.steps,
            values=[np.array(v) for v in zip(*values)],
        )
        if ends.size:
            self._m_start, self._t_start = int(m_end[-1]), float(t_end[-1])
        self._x, self._acc = walk.x, acc
        self.m += len(walk.steps)
        self.alpha = float(alpha[-1])
        self.closed += ends.size
        return window

    def partial(self, window: _Window, i: int, dt: float) -> list:
        """Each functional's integral over the first dt of step i of a window.

        The functionals are integrated together, sharing each Simpson level's
        stack, and read back one at a time; if that fails, the read-back
        integrates them one at a time and raises what a step-at-a-time chain
        raises.
        """
        state, flow = window.states[i]
        sg, fns = self._sg, self.functionals
        try:
            integrate_segments([(xi, dt, flow) for xi in fns], sg)
        except (NonConvergence, QuadratureBudgetExceeded):
            pass
        return [integrate_segment(xi, state, dt, sg, flow=flow).value for xi in fns]


def _check_functionals(sg, functionals):
    """Unique labels, and on the power law a closed form for each; once per driver call."""
    labels = [xi.label for xi in functionals]
    if len(set(labels)) != len(labels):
        raise ValueError("functional labels must be unique")
    if isinstance(sg, ScalarPowerLaw):
        for xi in functionals:
            if not has_closed_form(xi):
                raise ValueError(f"no closed form for functional {xi.label!r}")


def _chain(x0, driver, sg, policy, functionals, replicate_index):
    """The chain of one replicate: the scalar table on the power law, else the grid stepper."""
    cls = _ScalarChain if isinstance(sg, ScalarPowerLaw) else _StepChain
    return cls(x0, driver, sg, policy, functionals, replicate_index)


def _windows(chain, n_cycles: int):
    """The chain's windows through cycle n_cycles, the warm-up's first."""
    while chain.closed <= n_cycles:
        yield chain.advance(n_cycles + 1 - chain.closed, last=n_cycles)


def _moments(chain, n_cycles: int, moments: CycleMoments):
    for w in _windows(chain, n_cycles):
        lo = 1 if w.first == 0 else 0  # the warm-up is not a cycle
        tau = w.tau[lo:]
        moments.n += tau.size
        moments.sum_tau = _seq_sum(moments.sum_tau, tau)
        moments.sum_tau2 = _seq_sum(moments.sum_tau2, tau * tau)
        for label, s in zip(moments.labels, w.integrals):
            s = s[lo:]
            if s.ndim > 1:  # a vector's row per cycle: its outer product, and tau down the row
                s2, s_tau = s[:, :, None] * s[:, None, :], s * tau[:, None]
            else:
                s2, s_tau = s * s, s * tau
            moments.sum_s[label] = _seq_sum(moments.sum_s[label], s)
            moments.sum_s2[label] = _seq_sum(moments.sum_s2[label], s2)
            moments.sum_s_tau[label] = _seq_sum(moments.sum_s_tau[label], s_tau)
    return moments


class _Reader:
    """One replicate's pass to the horizon, read off its chain's windows in turn."""

    def __init__(self, chain, cps: list):
        fns = chain.functionals
        self.chain, self.cps = chain, cps
        self.out = [[None] * len(cps) for _ in fns]
        self.counts = np.zeros(len(cps), dtype=np.int64)
        self.run = [xi.zero_value() for xi in fns]
        self.cycle_tau: list = []
        self.cycle_s = [[] for _ in fns]
        self.cp_i = 0
        self.last = None  # the cycle whose close ends the run, once every checkpoint is past

    @property
    def done(self) -> bool:
        return self.last is not None and self.chain.closed > self.last

    def ask(self) -> tuple:
        """The next window's (cycles, until, last), as the chain's ``advance`` takes them."""
        chain = self.chain
        if self.last is None:
            return 2, self.cps[-1], None
        return self.last + 1 - chain.closed, 0.0, self.last

    def read(self, w: _Window):
        cps, n_cp, last = self.cps, len(self.cps), self.last
        alpha = w.alpha
        # running integrals after each step, added in order as a loop adds
        runs = [np.cumsum(np.concatenate(([r], v)), axis=0) for r, v in zip(self.run, w.values)]
        while self.cp_i < n_cp and cps[self.cp_i] <= alpha[-1]:
            t = cps[self.cp_i]
            i = int(np.searchsorted(alpha, t))
            if alpha[i] == t:  # on a jump time: the integral through that step
                vals = [r[i] for r in runs]
            else:  # inside step i: add that step's segment up to t
                i -= 1
                parts = self.chain.partial(w, i, t - float(alpha[i]))
                vals = [r[i] + p for r, p in zip(runs, parts)]
            for o, v in zip(self.out, vals):
                o[self.cp_i] = v
            self.counts[self.cp_i] = w.first + np.searchsorted(w.ends, i, side="right")
            self.cp_i += 1
        if last is None and self.cp_i == n_cp:
            last = self.last = int(self.counts[-1]) + 1
        lo = 1 if w.first == 0 else 0  # the warm-up is not a cycle
        hi = None if last is None else last + 1 - w.first
        self.cycle_tau.append(w.tau[lo:hi])
        for acc, s in zip(self.cycle_s, w.integrals):
            acc.append(s[lo:hi])
        self.run = [r[-1] for r in runs]


def _horizon(chains: list, cps: list) -> HorizonResult:
    """Each chain's pass to the horizon, its windows asked for a block at a time.

    Every round asks each unfinished chain for its next window, so a block
    after the first holds only the replicates that need another.  If chains
    fail (the step cap, or the grid's solver or quadrature), the error raised
    is that of the first of them in order, as running them one after another
    would raise.
    """
    readers = [_Reader(chain, cps) for chain in chains]
    advance_block = type(chains[0]).advance_block
    live, failed = list(range(len(readers))), None
    while live:
        windows = advance_block([readers[i].chain for i in live], [readers[i].ask() for i in live])
        for i, w in zip(live, windows):
            if not isinstance(w, Exception):
                readers[i].read(w)
            elif failed is None or i < failed[0]:
                failed = i, w
        live = [i for i in live if not readers[i].done and (failed is None or i < failed[0])]
    if failed is not None:
        raise failed[1]
    fns = chains[0].functionals
    cycle_tau = [np.concatenate(r.cycle_tau) for r in readers]
    # cumsum adds in cycle order; row counts[j] sums cycles 1 .. counts[j] + 1
    return HorizonResult(
        checkpoints=np.asarray(cps),
        integrals={xi.label: np.array([r.out[k] for r in readers]) for k, xi in enumerate(fns)},
        counts=np.array([r.counts for r in readers]),
        index_s={
            xi.label: np.array(
                [np.cumsum(np.concatenate(r.cycle_s[k]), axis=0)[r.counts] for r in readers]
            )
            for k, xi in enumerate(fns)
        },
        index_tau=np.array([np.cumsum(tau)[r.counts] for r, tau in zip(readers, cycle_tau)]),
        cycle_tau=np.concatenate(cycle_tau),
    )


def simulate_cycles(
    x0: StateVector,
    driver: DriverConfig,
    sg,
    policy: ExtinctionPolicy,
    n_cycles: int,
    functionals,
    replicate_index: int = 0,
) -> Cycles:
    """The warm-up and then cycles 1 .. n_cycles, as ``Cycles``.

    Raises CycleCapExceeded if any of them exceeds the policy's step cap.
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    _check_functionals(sg, functionals)
    chain = _chain(x0, driver, sg, policy, functionals, replicate_index)
    # each window's columns, not the window: its states and values are freed
    parts = [(w.m_end, w.t_end, *w.integrals) for w in _windows(chain, n_cycles)]
    m_end, t_end, *sums = (np.concatenate(col) for col in zip(*parts))
    del parts
    # each cycle starts where the one before it ends, the warm-up at step 0 and time 0
    m_start = np.concatenate(([0], m_end[:-1]))
    t_start = np.concatenate(([0.0], t_end[:-1]))
    cols = (m_start, m_end, t_start, t_end, t_end - t_start, m_end - m_start, *sums)
    return Cycles(
        tuple(col[0].tolist() for col in cols),
        *(col[1:] for col in cols[:6]),
        integrals={xi.label: s[1:] for xi, s in zip(functionals, sums)},
    )


def cycle_moments(
    x0: StateVector,
    driver: DriverConfig,
    sg,
    policy: ExtinctionPolicy,
    n_cycles: int,
    functionals,
    replicate_index: int = 0,
) -> CycleMoments:
    """Accumulate per-cycle (S, tau) first and second moments without records.

    A vector-valued functional accumulates array sums (see ``CycleMoments``);
    the warm-up is excluded.  This is the memory-flat path of every
    estimation run.
    """
    _check_functionals(sg, functionals)
    chain = _chain(x0, driver, sg, policy, functionals, replicate_index)
    moments = CycleMoments(labels=[xi.label for xi in functionals])
    return _moments(chain, n_cycles, moments) if n_cycles >= 1 else moments


def _check_checkpoints(t_end, checkpoints):
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    cps = [] if checkpoints is None else [float(t) for t in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps and (cps[0] <= 0 or cps[-1] > t_end):
        raise ValueError("checkpoints must lie in (0, t_end]")
    if not cps or cps[-1] < t_end:
        cps.append(float(t_end))
    return cps


def simulate_until_time(
    x0s,
    driver: DriverConfig,
    sg,
    policy: ExtinctionPolicy,
    t_end: float,
    functionals,
    checkpoints=None,
    replicate_indices=None,
) -> HorizonResult:
    """One pass to the horizon for each replicate of a block: checkpoint
    integrals, regeneration counts, and the random-index sums at each checkpoint.

    ``x0s`` holds each replicate's initial state and ``replicate_indices``
    its stream index (by default 0, 1, ...).  Each replicate's rows equal its
    run alone, bit for bit.
    """
    cps = _check_checkpoints(t_end, checkpoints)
    indices = range(len(x0s)) if replicate_indices is None else list(replicate_indices)
    if not x0s or len(indices) != len(x0s):
        raise ValueError("need one replicate index per initial state, and at least one")
    _check_functionals(sg, functionals)
    chains = [_chain(x0, driver, sg, policy, functionals, i) for x0, i in zip(x0s, indices)]
    return _horizon(chains, cps)
