"""Sub-linear functionals and time integrals along the flow.

Every functional carries explicit constants (c1, c2) certifying
``||Xi(v)||_W <= c1 ||v||_V2 + c2``; only this built-in family is exposed, so
the constants are always known and checkable on random states.  Each applies
to one state (``apply_values``) or to a stack of them (``apply_rows``), and
the stacked form equals the one-state form row by row, bit for bit.

``integrate_segment`` computes ``int_0^delta Xi(T(tau) v) dtau`` by one rule
per backend.  On the exact scalar power-law semigroup the integrand is a
piecewise power function and the integral is evaluated in closed form, split
at the extinction time.  On the grid, adaptive composite Simpson is used,
with interval bisection until the local Richardson error estimate is below
``QUAD_TOL``, within ``QUAD_MAX_EVALS`` evaluations per segment; breakpoints
are placed at the time-step grid, where the trajectory has kinks (extinction
comes at a full step, so it is one of them).  The bisection tree is refined
a level at a time, and ``integrate_segments`` runs many segments in
lockstep: each level's nodes of every segment go to the flows' ``at_many``,
which solves all of their partial implicit-Euler steps as one row-batched
step and returns the level's states as one stack, and each functional is
applied once per level, to the rows of the segments that use it.  Each
result is memoised on its flow, where ``integrate_segment`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureBudgetExceeded
from .semigroup import ScalarPowerLaw
from .spaces import Space, StateVector

__all__ = [
    "Functional",
    "NormV2",
    "IdentityV2",
    "Linear",
    "AffineShift",
    "SegmentIntegralResult",
    "integrate_segment",
]


class Functional:
    """Base class: a map from states to W with certified sub-linearity."""

    label: str
    c1: float
    c2: float
    vector_valued: bool

    def __init__(self, space: Space):
        self.space = space

    def apply(self, v: StateVector):
        return self.apply_values(v.values)

    def apply_values(self, values: np.ndarray):
        raise NotImplementedError

    def apply_rows(self, rows: np.ndarray) -> list:
        """``apply_values`` of each row of a stack, as a list, bit for bit."""
        raise NotImplementedError

    def w_norm(self, value) -> float:
        """Norm of a W-value: |.| for scalars, the discrete Lq norm for arrays."""
        if np.ndim(value) == 0:
            return abs(float(value))
        return float(self.space.lq(value))

    def zero_value(self):
        if self.vector_valued:
            return np.zeros(self.space.dim)
        return 0.0


class NormV2(Functional):
    """Xi(v) = ||v||_V2 into W = R."""

    vector_valued = False

    def __init__(self, space: Space, label: str = "norm_v2"):
        super().__init__(space)
        self.label = label
        self.c1 = 1.0
        self.c2 = 0.0

    def apply_values(self, values: np.ndarray) -> float:
        return float(self.space.lq(values))

    def apply_rows(self, rows: np.ndarray) -> list:
        return self.space.lq(rows).tolist()


class IdentityV2(Functional):
    """Xi(v) = v into W = V2 (a float for scalar states, an array for grids)."""

    def __init__(self, space: Space, label: str = "identity_v2"):
        super().__init__(space)
        self.label = label
        self.c1 = 1.0
        self.c2 = 0.0
        self.vector_valued = space.kind == "grid"

    def apply_values(self, values: np.ndarray):
        if self.space.kind == "scalar":
            return float(values[0])
        return values.copy()

    def apply_rows(self, rows: np.ndarray) -> list:
        """Scalars as floats; grid rows as views of ``rows``, which the caller
        keeps read-only."""
        if self.space.kind == "scalar":
            return rows[:, 0].tolist()
        return list(rows)


class Linear(Functional):
    """Xi(v) = <v, psi> with the cell-weighted pairing; W = R.

    The certificate constant is the dual Lq' norm of psi, by Holder's
    inequality applied to the weighted pairing.
    """

    vector_valued = False

    def __init__(self, space: Space, psi, label: str = "linear"):
        super().__init__(space)
        self.psi = np.asarray(psi, dtype=float)
        if self.psi.shape != (space.dim,):
            raise ValueError("weight vector does not match the space")
        self.label = label
        if space.q == 1.0:
            self.c1 = float(np.max(np.abs(self.psi)))
        else:  # the dual Lq' norm, 1/q + 1/q' = 1
            self.c1 = float(replace(space, q=space.q / (space.q - 1.0)).lq(self.psi))
        self.c2 = 0.0

    @classmethod
    def mass(cls, space: Space) -> "Linear":
        """The mass functional: Xi(v) = integral of v over the domain."""
        return cls(space, np.ones(space.dim), label="mass")

    def apply_values(self, values: np.ndarray) -> float:
        return float(np.dot(values, self.psi)) * self.space.h

    def apply_rows(self, rows: np.ndarray) -> list:
        # stacked matmul keeps np.dot's arithmetic per row; rows @ psi does not
        return ((rows[:, None, :] @ self.psi[:, None])[:, 0, 0] * self.space.h).tolist()


class AffineShift(Functional):
    """Xi(v) = base(v) + w for a fixed W-element w."""

    def __init__(self, base: Functional, w, label: str | None = None):
        super().__init__(base.space)
        self.base = base
        self.vector_valued = base.vector_valued
        if self.vector_valued:
            self.w = np.asarray(w, dtype=float)
            if self.w.shape != (base.space.dim,):
                raise ValueError("shift does not match the space")
        else:
            self.w = float(w)
        self.label = label if label is not None else f"{base.label}+shift"
        self.c1 = base.c1
        self.c2 = base.c2 + base.w_norm(self.w)

    def apply_values(self, values: np.ndarray):
        return self.base.apply_values(values) + self.w

    def apply_rows(self, rows: np.ndarray) -> list:
        return [value + self.w for value in self.base.apply_rows(rows)]


# Per-segment Simpson tolerance and evaluation cap on the grid.
QUAD_TOL = 1e-9
QUAD_MAX_EVALS = 100_000


@dataclass
class SegmentIntegralResult:
    value: object
    abs_error_estimate: float
    n_evals: int


def has_closed_form(xi: Functional) -> bool:
    """Whether xi's segment integral on the scalar power-law flow has a closed form."""
    if isinstance(xi, AffineShift):
        return has_closed_form(xi.base)
    return isinstance(xi, (NormV2, IdentityV2, Linear))


def abs_flow_integral(c, delta, kappa: float, rho: float):
    """Integral of ``|T(tau) x|`` over [0, delta] on the power-law flow, elementwise.

    Takes ``c = |x|**rho``: ``int_0^delta ((c - kappa*tau)_+)^(1/rho) dtau``.
    Powers use ``np.float_power``, which equals Python's float ``**`` bit for
    bit; ``np.power`` does not.
    """
    e1 = 1.0 / rho + 1.0
    live = np.minimum(delta, c / kappa)
    tail = np.maximum(c - kappa * live, 0.0)
    return (np.float_power(c, e1) - np.float_power(tail, e1)) / (kappa * e1)


def closed_form_value(xi: Functional, x, i_abs, delta):
    """Segment integral of a closed-form functional from states x, elementwise.

    ``i_abs`` is ``abs_flow_integral`` over [0, delta]; the flow keeps the
    sign of x, so the signed integral is ``+-i_abs``.
    """
    if isinstance(xi, AffineShift):
        return closed_form_value(xi.base, x, i_abs, delta) + xi.w * delta
    if isinstance(xi, NormV2):
        return i_abs
    signed = np.where(x >= 0, i_abs, -i_abs)
    if isinstance(xi, IdentityV2):
        return signed
    return float(xi.psi[0]) * signed * xi.space.h  # Linear


def _simpson(fa, fm, fb, width):
    return (width / 6.0) * (fa + 4.0 * fm + fb)


def _charge(used: int, n: int, cap: int) -> int:
    used += n
    if used > cap:
        raise QuadratureBudgetExceeded(f"segment quadrature exceeded {cap} evaluations")
    return used


def _adaptive_simpson(breakpoints, tol, xi, max_evals):
    """Adaptive Simpson over each piece between breakpoints, a level at a time.

    An interval is accepted once its Richardson error estimate is within its
    tolerance (halved per bisection) or at depth 48, and values and errors
    add over the bisection tree (left + right, pieces in order), exactly as
    the depth-first recursion would.  A coroutine: it yields each level's
    nodes and is sent the integrand's values at them, in the same order
    (``values = yield nodes``), so that a caller can solve and evaluate the
    nodes of many segments at once; it returns (value, error estimate,
    evaluations).  The budget counts every evaluation and is charged a level
    ahead, so it is exceeded exactly when the full tree would exceed it.
    """
    pieces = [(a, b) for a, b in zip(breakpoints[:-1], breakpoints[1:]) if b > a]
    used = _charge(0, 3 * len(pieces), max_evals)
    values = yield [t for a, b in pieces for t in (a, b, 0.5 * (a + b))]
    span = breakpoints[-1] - breakpoints[0]
    level = []  # open intervals: (node, a, b, fa, fm, fb, whole, tol)
    for node, (a, b) in enumerate(pieces):
        fa, fb, fm = values[3 * node : 3 * node + 3]
        piece_tol = tol * max((b - a) / span, 1e-3)
        level.append((node, a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), piece_tol))
    n_nodes = len(pieces)
    result = {}  # node -> (value, error) of an accepted interval
    children = {}  # node -> (left, right) of a bisected one
    depth = 0
    while level:
        used = _charge(used, 2 * len(level), max_evals)
        halves = [(0.5 * (a + b), a, b) for _, a, b, *_ in level]
        halves = [(m, 0.5 * (a + m), 0.5 * (m + b)) for m, a, b in halves]
        values = yield [t for _, lm, rm in halves for t in (lm, rm)]
        next_level = []
        for (node, a, b, fa, fm, fb, whole, piece_tol), (m, _, _), flm, frm in zip(
            level, halves, values[::2], values[1::2]
        ):
            left = _simpson(fa, flm, fm, m - a)
            right = _simpson(fm, frm, fb, b - m)
            refined = left + right
            err = xi.w_norm(refined - whole) / 15.0
            if err <= piece_tol or depth >= 48:
                correction = (refined - whole) / 15.0
                result[node] = (refined + correction, err)
            else:
                children[node] = (n_nodes, n_nodes + 1)
                next_level.append((n_nodes, a, m, fa, flm, fm, left, 0.5 * piece_tol))
                next_level.append((n_nodes + 1, m, b, fm, frm, fb, right, 0.5 * piece_tol))
                n_nodes += 2
        level = next_level
        depth += 1
    for node in reversed(children):  # bisected after their parents, so combined first
        (lv, le), (rv, re) = (result[child] for child in children[node])
        result[node] = (lv + rv, le + re)
    total = None
    err_total = 0.0
    for node in range(len(pieces)):
        value, err = result[node]
        total = value if total is None else total + value
        err_total += err
    if total is None:
        total = xi.zero_value()
    return total, err_total, used


def integrate_segments(segments, sg) -> None:
    """The grid rule of ``integrate_segment`` for many (functional, length, flow)
    segments of ``sg`` at once, a Simpson level at a time across all of them.

    Every level's nodes of every open segment go to one ``at_many`` call, so
    their partial steps are one row-batched step, and the states come back
    as one stack, ordered so that the rows of each functional's segments are
    one slice of it: each functional is applied once per level, to that
    slice.  Each segment keeps its own nodes, values, acceptance, summation
    order and budget, so its result equals the one it gets alone, bit for
    bit.  Results are memoised on their flows, by (functional, length),
    where ``integrate_segment`` reads them back.  A failure raises the first
    one met, which need not be the error of the first failing segment alone.
    """
    dt, runs = sg.cfg.dt, {}  # functional -> its open segments' (flow, length, simpson, nodes)
    for xi, delta, flow in segments:
        if delta > 0.0 and (xi, delta) not in flow.integrals:
            breaks = [0.0] + [k * dt for k in range(1, int(delta / dt) + 1) if k * dt < delta]
            simpson = _adaptive_simpson(breaks + [delta], QUAD_TOL, xi, QUAD_MAX_EVALS)
            runs.setdefault(xi, []).append((flow, delta, simpson, next(simpson)))
    while runs:
        requests = [(run[0], t) for group in runs.values() for run in group for t in run[-1]]
        states = type(requests[0][0]).at_many(requests)
        level, runs, lo = runs, {}, 0
        for xi, group in level.items():
            values, at = xi.apply_rows(states[lo : lo + sum(len(run[-1]) for run in group)]), 0
            for flow, delta, simpson, nodes in group:
                sent, at = values[at : at + len(nodes)], at + len(nodes)
                try:
                    nodes = simpson.send(sent)
                except StopIteration as done:
                    flow.integrals[xi, delta] = SegmentIntegralResult(*done.value)
                else:
                    runs.setdefault(xi, []).append((flow, delta, simpson, nodes))
            lo += at


def integrate_segment(
    xi: Functional,
    state: StateVector,
    delta: float,
    sg,
    flow=None,
) -> SegmentIntegralResult:
    """Integrate Xi along the flow started at ``state`` for time ``delta``.

    On the scalar power law this is the closed form, and a functional without
    one is rejected; on the grid a precomputed segment flow (from
    ``sg.segment_flow``) may be passed in so that several functionals
    integrated over the same segment share the cached trajectory, and a
    result ``integrate_segments`` left on it is returned as it is.
    """
    if delta < 0:
        raise ValueError("segment length must be nonnegative")
    if delta == 0.0:
        return SegmentIntegralResult(xi.zero_value(), 0.0, 0)
    if isinstance(sg, ScalarPowerLaw):
        if not has_closed_form(xi):
            raise ValueError(f"no closed form for functional {xi.label!r}")
        x = state.values
        i_abs = abs_flow_integral(np.float_power(np.abs(x), sg.rho), delta, sg.kappa, sg.rho)
        return SegmentIntegralResult(float(closed_form_value(xi, x, i_abs, delta)[0]), 0.0, 0)

    if flow is None:
        flow = sg.segment_flow(state)
    integrate_segments([(xi, delta, flow)], sg)
    return flow.integrals[xi, delta]
