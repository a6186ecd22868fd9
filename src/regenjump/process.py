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

Three drivers are provided: ``simulate_cycles`` streams cycle records with
O(1) memory in the cycle count, ``cycle_moments`` accumulates cycle moments
without records, and ``simulate_until_time`` makes a single pass to a fixed
horizon, producing running integrals at checkpoints, regeneration counts,
and at each checkpoint the random-index sums of S and tau over the cycles up
to the one reaching past it.

Each backend has one chain, and every chain has one interface: ``advance``
returns the next window of the run's cycles (a ``_Window``) and ``partial``
integrates every functional over the start of one step of a window.  On the
scalar power-law backend the chain is a regeneration table
(``_ScalarChain``), a numpy kernel with the closed-form flow whose windows
hold many cycles: each lane is stepped once, logging its states, and the
path's states, read off that log, give each step's segment values and each
cycle's sums in one place.  On the grid it is a stepper (``_StepChain``)
whose windows hold one cycle.  ``_chain`` picks one, and each driver has one
reader over its windows.  Both chains give, bit for bit, what a plain loop
over the chain's steps gives; the tests' per-step oracle is that loop and
the reference for every driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .driver import DriverConfig
from .errors import CycleCapExceeded
from .functionals import abs_flow_integral, closed_form_value, has_closed_form, integrate_segment
from .semigroup import ScalarPowerLaw
from .spaces import StateVector

__all__ = [
    "ExtinctionPolicy",
    "CycleRecord",
    "HorizonResult",
    "CycleMoments",
    "simulate_cycles",
    "simulate_until_time",
    "cycle_moments",
]

_BLOCK = 4096


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
class CycleRecord:
    """One regeneration cycle (or the warm-up segment when n == 0)."""

    n: int
    m_start: int
    m_end: int
    t_start: float
    t_end: float
    tau: float
    integrals: dict
    steps: int

    @property
    def is_warmup(self) -> bool:
        return self.n == 0


@dataclass
class HorizonResult:
    """Single-pass output of ``simulate_until_time``.

    ``integrals[label][j]`` is the path integral of that functional over
    [0, checkpoints[j]]; ``counts[j]`` is the number of regenerations up to
    and including checkpoints[j].  ``index_s[label][j]`` and ``index_tau[j]``
    are the random-index sums of the cycle integrals and lengths over the
    post-warm-up cycles 1 .. counts[j] + 1, added in cycle order; the last
    of those cycles reaches past checkpoints[j], so the run extends until
    cycle counts[-1] + 1 closes.  ``cycle_tau`` holds the lengths of cycles
    1 .. counts[-1] + 1.
    """

    checkpoints: np.ndarray
    integrals: dict
    counts: np.ndarray
    index_s: dict
    index_tau: np.ndarray
    cycle_tau: np.ndarray


@dataclass
class CycleMoments:
    """Running first and second moments of (S, tau) over completed cycles."""

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

    def add(self, tau: float, values: dict):
        self.n += 1
        self.sum_tau += tau
        self.sum_tau2 += tau * tau
        for label, s in values.items():
            self.sum_s[label] += s
            self.sum_s2[label] += s * s
            self.sum_s_tau[label] += s * tau

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


def _seq_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + ...`` added left to right, as a loop adds (np.sum adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


@dataclass
class _Window:
    """The true chain's cycles that closed within one window, in order.

    The first of them is cycle number ``first`` of the run (0 is the
    warm-up); ``ends`` are their end positions in the window and
    ``alpha[i]`` is the jump time after i steps of it.  ``states`` holds the
    chain's state before each step (what its chain's ``partial`` reads);
    ``values`` (each functional's segment value over each step) and
    ``integrals`` (its integral over each cycle) hold one array per
    functional.
    """

    first: int
    ends: np.ndarray
    m_start: np.ndarray
    m_end: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    tau: np.ndarray
    integrals: list
    alpha: np.ndarray
    states: object
    values: list


class _ScalarChain:
    """The scalar power-law chain of one replicate stream, a window at a time.

    ``advance`` draws (beta, eta) pairs through the replicate's streams and
    builds the regeneration table: one lane per candidate cycle start at the
    next n positions (n sized from the work asked for), namely the cycle open
    at the window's start (lane 0) and the kick at every later position, all
    advanced together one chain step per iteration until each goes extinct or
    has taken ``_LANE_STEPS`` steps.  A cycle started by a kick depends only on
    the inputs after it, so following cycle ends from lane 0 visits exactly
    the true chain's cycles.  A cycle on that path still open after its table
    steps is stepped on alone in Python floats, so no lane runs far inside a
    long cycle.  Lanes pay only while cycles are short, so once the measured
    mean cycle outlasts a lane's steps, lanes take no steps and every cycle is
    stepped alone.

    Lanes only step states, and each step logs the live lanes' positions and
    states (at most ``_LANE_STEPS`` arrays of the window's size), so the
    path's states are read off that log once the path is known; cycles
    stepped alone log theirs as they go.  Then, in one place, the states
    give every step's closed-form segment value (shared with
    ``integrate_segment``) and each cycle adds its values in order from its
    start.  As every lane repeats the operations of a per-step loop over the
    flow (``ScalarPowerLaw.evolve_scalar``, which leaves the state unchanged
    on a zero beta), every output equals that loop's bit for bit.
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

    def _lanes(self, n, k_cap):
        """Step one lane per window position p < n, which starts a cycle at p.

        Each lane steps until it goes extinct or has taken k_cap steps.
        Returns the list of each lane's end position (after its extinction
        step, or -1 while open), each open lane's state, and each step's log:
        the live lanes' positions, ascending, and their states before it.
        """
        b, e = self._b, self._e
        kappa, rho, inv_rho, eps_ext = self._kappa, self._rho, self._inv_rho, self._eps_ext
        at = np.arange(n)  # lane p is at position p + j before its step j
        x = e[at - 1]
        x[0] = self._x  # lane 0 continues the open cycle
        end = np.full(n, -1)
        x_open = np.zeros(n)
        log = []
        for j in range(k_cap):
            log.append((at, x))
            beta = b[at]
            ax = np.abs(x)
            c = np.float_power(ax, rho)
            pre = np.minimum(np.float_power(np.maximum(c - kappa * beta, 0.0), inv_rho), ax)
            if self._zero_beta:  # T(0) = I, not the power round trip
                pre = np.where(beta == 0.0, ax, pre)
            # a lane goes on only if pre > 0, so x != 0 and copysign is where(x >= 0, pre, -pre)
            x = np.copysign(pre, x) + e[at]
            at = at + 1
            ext = pre <= eps_ext
            if ext.any():
                end[at[ext] - (j + 1)] = at[ext]
                keep = ~ext
                x, at = x[keep], at[keep]
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
        zero_beta = self._zero_beta
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
                    if pre > ax or (zero_beta and beta == 0.0):  # evolve's ulp clamp; T(0) = I
                        pre = ax
                if pre <= eps_ext:
                    return pos, states, x
                x = (pre if x >= 0 else -pre) + eta
        return -1, states, x

    def advance(self, cycles: float, time: float = 0.0, last: int | None = None) -> _Window:
        """Tabulate lanes for about ``cycles`` more cycles and ``time`` more time.

        Reads the true chain's cycles off the table.  The window stops after
        cycle ``last`` closes, or before a cycle longer than the step cap,
        which the next call raises for; inputs past the point the chain
        reached are kept for the next call.
        """
        if self.m - self._m_start > self._m_cap:
            raise CycleCapExceeded(f"cycle {self.closed} exceeded {self._m_cap} chain steps")
        fns = self.functionals
        steps = cycles * self.per_cycle() + max(time, 0.0) / self._mean_beta
        n = min(_WINDOW, int(1.1 * steps) + 64)
        # a lane started inside a cycle is wasted work, so long cycles are
        # cheaper stepped alone
        k_cap = _LANE_STEPS if self.per_cycle() <= _LANE_STEPS else 0
        if self._b.size < n + k_cap:
            more = n + k_cap - self._b.size
            self._b = np.concatenate((self._b, self._draw_betas(more)))
            self._e = np.concatenate((self._e, self._draw_etas(more)))
        b, e = self._b, self._e
        self._zero_beta = not b.all()  # rare (gamma draws can underflow): masked only then
        end, x_open, log = self._lanes(n, k_cap)

        # follow cycle ends from lane 0; a cycle still open after its table
        # steps is stepped on alone, and logs its states
        states = np.zeros(n + k_cap)
        want = n if last is None else last + 1 - self.closed
        starts = []
        append = starts.append
        p, is_open = 0, False
        while True:
            while p < n and (q := end[p]) > 0:
                append(p)
                p = q
            if p >= n or len(starts) >= want:
                break
            q, xs, x_last = self._alone(float(x_open[p]), p + k_cap, n + k_cap)
            states[p + k_cap : p + k_cap + len(xs)] = xs
            append(p)
            if q < 0:
                is_open = True
                break
            p = q
        keep = min(len(starts) - is_open, want)
        stops = starts[1:] + [p]
        m_end = self.m + np.array(stops[:keep], dtype=np.int64)
        m_start = np.concatenate(([self._m_start], m_end))[:keep]
        over = np.flatnonzero(m_end - m_start > self._m_cap)
        fresh = True  # the next cycle starts at a kick
        if over.size:  # that cycle stays open, and the next call raises
            keep = int(over[0])
            reach = stops[keep]
        elif is_open and keep == len(starts) - 1:
            reach, fresh = n + k_cap, False
        else:
            reach = stops[keep - 1]
        n_path = keep + (not fresh)

        # the rest of the path's states come from its lanes' log; each step's
        # values follow, and each cycle adds them in order from its start, as a loop
        path = np.array(starts[:n_path], dtype=np.int64)
        bounds = np.array(stops[:keep] + [reach] * (not fresh), dtype=np.int64)
        lens = bounds - path
        walk = []  # each cycle's lane steps, one offset at a time: (cycles, positions)
        live = np.arange(n_path)
        for j, (at, x) in enumerate(log):
            live = live[lens[live] > j]
            pos = path[live] + j
            states[pos] = x[np.searchsorted(at, pos)]
            walk.append((live, pos))
        del log  # freed before the values are made, to keep the window's peak memory
        states, beta = states[:reach], b[:reach]
        i_abs = self.abs_integral(states, beta)
        values = [closed_form_value(xi, states, i_abs, beta) for xi in fns]
        sums = [np.zeros(n_path) for _ in fns]
        for s, carried in zip(sums, self._acc):
            s[:1] = carried  # the open cycle's integrals so far
        for live, pos in walk:
            for s, v in zip(sums, values):
                s[live] += v[pos]
        for i in np.flatnonzero(lens > k_cap).tolist():  # then the steps taken alone
            lo, hi = starts[i] + k_cap, int(bounds[i])
            for s, v in zip(sums, values):
                s[i] = _seq_sum(s[i], v[lo:hi])

        ends = np.array(stops[:keep], dtype=np.int64)
        alpha = np.cumsum(np.concatenate(([self.alpha], beta)))  # as alpha += beta
        t_end = alpha[ends]
        t_start = np.concatenate(([self._t_start], t_end))[:-1]
        window = _Window(
            first=self.closed,
            ends=ends,
            m_start=m_start[:keep],
            m_end=m_end[:keep],
            t_start=t_start,
            t_end=t_end,
            tau=t_end - t_start,
            integrals=[s[:keep] for s in sums],
            alpha=alpha,
            states=states,
            values=values,
        )
        if keep:
            self._m_start = int(m_end[keep - 1])
            self._t_start = float(t_end[-1])
        if fresh:
            self._x = float(e[reach - 1])
            self._acc = [0.0] * len(fns)
        else:
            self._x = x_last
            self._acc = [float(s[keep]) for s in sums]
        self._b, self._e = self._b[reach:], self._e[reach:]
        self.m += reach
        self.alpha = float(alpha[-1])
        self.closed += keep
        return window


def _one_at_a_time(sample_block):
    """Values of successive ``sample_block(_BLOCK)`` draws, one float at a time."""
    while True:
        yield from sample_block(_BLOCK).tolist()


class _StepChain:
    """The grid chain of one replicate stream, a cycle at a time.

    Each step draws (beta, eta), makes one segment flow from the current
    state (the integrals and the pre-kick state then share its solves),
    integrates every functional over the step through ``integrate_segment``
    and snaps an extinct pre-kick state to zero.  A window is one cycle, so
    a run takes no step past the cycle that ends it; it keeps each step's
    (state, flow) for ``partial`` and each step's values.  Betas are drawn
    in blocks and kicks one at a time; draws do not depend on the block size.
    """

    def __init__(self, x0, driver, sg, policy, functionals, replicate_index):
        streams = driver.streams(replicate_index)
        betas = _one_at_a_time(partial(driver.beta.sample_block, streams.beta_rng))
        self._next_beta = betas.__next__
        self._next_eta = partial(driver.eta.sample_values, streams.eta_rng, sg.space)
        self._sg, self._policy = sg, policy
        self.functionals = list(functionals)
        self._x = x0
        self.m = 0
        self.alpha = 0.0
        self.closed = 0

    def advance(self, cycles=1, time=0.0, last=None) -> _Window:
        """Step to the end of the open cycle: here a window is one cycle.

        The table's sizing arguments (cycles, time, last) do not apply.
        """
        sg, fns, policy, space = self._sg, self.functionals, self._policy, self._sg.space
        state, m_start, alpha = self._x, self.m, [self.alpha]
        acc = [xi.zero_value() for xi in fns]
        steps, values = [], []
        extinct = False
        while not extinct:
            beta = self._next_beta()
            eta_vals = self._next_eta()
            flow = sg.segment_flow(state)
            vals = [integrate_segment(xi, state, beta, sg, flow=flow).value for xi in fns]
            acc = [a + v for a, v in zip(acc, vals)]
            pre = StateVector(space, flow.at(beta))
            extinct = pre.norm_v() <= policy.eps_ext
            self.m += 1
            if self.m - m_start > policy.m_cap:
                raise CycleCapExceeded(f"cycle {self.closed} exceeded {policy.m_cap} chain steps")
            alpha.append(alpha[-1] + beta)
            steps.append((state, flow))
            values.append(vals)
            state = StateVector(space, eta_vals if extinct else pre.values + eta_vals)
        t_start, t_end = self.alpha, alpha[-1]
        window = _Window(
            first=self.closed,
            ends=np.array([self.m - m_start]),
            m_start=np.array([m_start]),
            m_end=np.array([self.m]),
            t_start=np.array([t_start]),
            t_end=np.array([t_end]),
            tau=np.array([t_end - t_start]),
            integrals=[np.array([a]) for a in acc],
            alpha=np.array(alpha),
            states=steps,
            values=[np.array(v) for v in zip(*values)],
        )
        self._x, self.alpha, self.closed = state, t_end, self.closed + 1
        return window

    def partial(self, window: _Window, i: int, dt: float) -> list:
        """Each functional's integral over the first dt of step i of a window."""
        state, flow = window.states[i]
        sg = self._sg
        return [integrate_segment(xi, state, dt, sg, flow=flow).value for xi in self.functionals]


def _chain(x0, driver, sg, policy, functionals, replicate_index):
    """The chain of one replicate: the scalar table on the power law, else the grid stepper."""
    labels = [xi.label for xi in functionals]
    if len(set(labels)) != len(labels):
        raise ValueError("functional labels must be unique")
    if not isinstance(sg, ScalarPowerLaw):
        return _StepChain(x0, driver, sg, policy, functionals, replicate_index)
    for xi in functionals:
        if not has_closed_form(xi):
            raise ValueError(f"no closed form for functional {xi.label!r}")
    return _ScalarChain(x0, driver, sg, policy, functionals, replicate_index)


def _records(chain, n_cycles: int):
    labels = [xi.label for xi in chain.functionals]
    while chain.closed <= n_cycles:
        w = chain.advance(n_cycles + 1 - chain.closed, last=n_cycles)
        cols = (w.m_start, w.m_end, w.t_start, w.t_end, w.tau, w.m_end - w.m_start)
        # floats per cycle, or the rows of a vector-valued functional's stack
        sums = (s.tolist() if s.ndim == 1 else list(s) for s in w.integrals)
        rows = zip(*(a.tolist() for a in cols), *sums)
        for i, (m_start, m_end, t_start, t_end, tau, steps, *values) in enumerate(rows):
            integrals = dict(zip(labels, values))
            yield CycleRecord(w.first + i, m_start, m_end, t_start, t_end, tau, integrals, steps)


def _moments(chain, n_cycles: int, moments: CycleMoments):
    while chain.closed <= n_cycles:
        w = chain.advance(n_cycles + 1 - chain.closed, last=n_cycles)
        lo = 1 if w.first == 0 else 0  # the warm-up is not a cycle
        tau = w.tau[lo:]
        moments.n += tau.size
        moments.sum_tau = _seq_sum(moments.sum_tau, tau)
        moments.sum_tau2 = _seq_sum(moments.sum_tau2, tau * tau)
        for label, s in zip(moments.labels, w.integrals):
            s = s[lo:]
            moments.sum_s[label] = _seq_sum(moments.sum_s[label], s)
            moments.sum_s2[label] = _seq_sum(moments.sum_s2[label], s * s)
            moments.sum_s_tau[label] = _seq_sum(moments.sum_s_tau[label], s * tau)
    return moments


def _horizon(chain, cps: list) -> HorizonResult:
    fns = chain.functionals
    n_cp = len(cps)
    out = [[None] * n_cp for _ in fns]
    counts = np.zeros(n_cp, dtype=np.int64)
    run = [xi.zero_value() for xi in fns]
    cycle_tau: list = []
    cycle_s = [[] for _ in fns]
    cp_i = 0
    last = None  # the cycle whose close ends the run, once every checkpoint is past
    while last is None or chain.closed <= last:
        if last is None:
            w = chain.advance(2, cps[-1] - chain.alpha)
        else:
            w = chain.advance(last + 1 - chain.closed, last=last)
        alpha = w.alpha
        # running integrals after each step, added in order as a loop adds
        runs = [np.cumsum(np.concatenate(([r], v)), axis=0) for r, v in zip(run, w.values)]
        while cp_i < n_cp and cps[cp_i] <= alpha[-1]:
            t = cps[cp_i]
            i = int(np.searchsorted(alpha, t))
            if alpha[i] == t:  # on a jump time: the integral through that step
                vals = [r[i] for r in runs]
            else:  # inside step i: add that step's segment up to t
                i -= 1
                vals = [r[i] + p for r, p in zip(runs, chain.partial(w, i, t - float(alpha[i])))]
            for o, v in zip(out, vals):
                o[cp_i] = v
            counts[cp_i] = w.first + np.searchsorted(w.ends, i, side="right")
            cp_i += 1
        if last is None and cp_i == n_cp:
            last = int(counts[-1]) + 1
        lo = 1 if w.first == 0 else 0  # the warm-up is not a cycle
        hi = None if last is None else last + 1 - w.first
        cycle_tau.append(w.tau[lo:hi])
        for acc, s in zip(cycle_s, w.integrals):
            acc.append(s[lo:hi])
        run = [r[-1] for r in runs]
    cycle_tau = np.concatenate(cycle_tau)
    # cumsum adds in cycle order; row counts[j] sums cycles 1 .. counts[j] + 1
    return HorizonResult(
        checkpoints=np.asarray(cps),
        integrals={xi.label: np.stack(o) for xi, o in zip(fns, out)},
        counts=counts,
        index_s={
            xi.label: np.cumsum(np.concatenate(s), axis=0)[counts] for xi, s in zip(fns, cycle_s)
        },
        index_tau=np.cumsum(cycle_tau)[counts],
        cycle_tau=cycle_tau,
    )


def simulate_cycles(
    x0: StateVector,
    driver: DriverConfig,
    sg,
    policy: ExtinctionPolicy,
    n_cycles: int,
    functionals,
    replicate_index: int = 0,
):
    """Stream the warm-up record and then n_cycles regeneration cycles.

    Yields CycleRecord with n = 0 for the warm-up segment (excluded from
    statistics downstream) followed by cycles n = 1 .. n_cycles.  Raises
    CycleCapExceeded if any cycle exceeds the policy's step cap.
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    chain = _chain(x0, driver, sg, policy, functionals, replicate_index)
    yield from _records(chain, n_cycles)


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

    Scalar-valued functionals only; the warm-up is excluded.  This is the
    memory-flat path used by large estimation runs.
    """
    for xi in functionals:
        if xi.vector_valued:
            raise ValueError("moment accumulation needs scalar-valued functionals")
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
    x0: StateVector,
    driver: DriverConfig,
    sg,
    policy: ExtinctionPolicy,
    t_end: float,
    functionals,
    checkpoints=None,
    replicate_index: int = 0,
) -> HorizonResult:
    """One pass to the horizon: checkpoint integrals, regeneration counts,
    and the random-index sums at each checkpoint."""
    cps = _check_checkpoints(t_end, checkpoints)
    return _horizon(_chain(x0, driver, sg, policy, functionals, replicate_index), cps)
