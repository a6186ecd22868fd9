"""Discrete weighted p-Laplacian evolution on a uniform 1-D grid.

The flow solves ``u' = -A_h u`` with homogeneous Neumann boundary, where

    ``(A_h u)_i = -(F_{i+1/2} - F_{i-1/2}) / h``,
    ``F_e = gamma_e * phi_eps(D_e u)``,
    ``D_e u = (u_{i+1} - u_i) / h``,
    ``phi_eps(s) = (s^2 + eps^2)^((p-2)/2) * s``,

with zero boundary fluxes.  One implicit Euler step is the unique minimizer
of the strictly convex per-step energy

    ``E(w) = 1/2 sum_i (w_i - u_i)^2 h
             + (dt/p) sum_e gamma_e (|D_e w|^2 + eps^2)^(p/2) h``,

found by damped Newton with Armijo backtracking, a Picard (lagged-
diffusivity) sweep where Newton makes poor progress, and a gradient fallback
if both go bad.  The stationarity condition is ``w + dt * A_h w = u``;
convergence is declared when that residual is below ``newton_tol`` in the
sup norm.  Two kernels run this solver, ``_newton_step`` on one state and
``_newton_rows`` on a stack of rows; they share every primitive (the edge
differences ``_edges``, the one tridiagonal solve ``_solve``, the Picard
sweep, the energy and its gradient) and differ only in their state machine
and their backtracking loop.  ``_newton_step`` carries each iterate's edge
differences from its gradient to its curvature instead of recomputing them.
Every solve is LAPACK ``dptsv``'s recurrence, written here as
``solveh_banded``, so the grid needs no scipy and its results are LAPACK's
bit for bit.

Because every edge contribution to the Hessian has zero column sum, Newton
iterations conserve the mean exactly (up to rounding): the discrete flow
preserves mass just like the continuum operator.  Zero-mean states decay to
zero in finite time; ``estimate_kappa`` fits the largest decay rate
``kappa_emp`` such that

    ``||u(t)||_2^rho <= (||u(0)||_2^rho - kappa_emp * t)_+``, with rho = 2 - p,

holds along every sampled trajectory.

The semigroup composes full steps of size dt with one trailing partial step
(the Crandall--Liggett exponential formula); ``_SegmentFlow`` is its one loop
of full steps, and the space's discrete L2 norm, ``Space.l2``, snaps states to
zero in both kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoExtinction, NonConvergence
from .spaces import Space, StateVector, grid_space

__all__ = [
    "Grid1D",
    "WeightField",
    "PLaplaceConfig",
    "PLaplaceSemigroup",
    "apply_discrete_operator",
    "estimate_kappa",
    "KappaFit",
]

_ARMIJO_C = 1e-4
_PARTIAL_STEP_SKIP = 1e-14
# ``_solve`` takes a stack of at most this many rows a row at a time in Python
# floats, a taller one in numpy columns.  On 16-cell systems (2-core x86-64
# VM, Python 3.11, numpy 2.4) the float form cost 7 us a row and the column
# form 67-87 us at 2 to 20 rows, so the two cross at 10 rows.
_FLOAT_ROWS = 10


def solveh_banded(d, e, x):
    """LAPACK ``dptsv``: solve the symmetric tridiagonal system with diagonal
    ``d`` and off-diagonal ``e`` for the right-hand side ``x``, in place.

    ``dpttrf``'s factorisation and ``dptts2``'s two sweeps, operation for
    operation, so the solution is LAPACK's bit for bit.  The arguments are
    lists of floats (one system) or of numpy rows (one system per column).
    ``d`` is left holding the pivots, which the caller checks; LAPACK stops
    at the first one that is not positive, this goes on.  In floats a zero
    pivot raises ZeroDivisionError.  ``_solve`` is the only caller.
    """
    n = len(d)
    for i in range(n - 1):
        q = e[i] / d[i]
        d[i + 1] -= q * e[i]  # before e[i] is replaced, which may be a view
        e[i] = q
        x[i + 1] -= x[i] * q
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
    return x


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on an interval of the given length."""

    n_cells: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    def space(self, q: float = 2.0) -> Space:
        return grid_space(self.n_cells, self.length, q=q)


@dataclass
class WeightField:
    """Positive conductivity per interior edge, bounded away from 0 and inf."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.ndim != 1:
            raise ValueError("edge weights must be a 1-D array")
        if not np.all(np.isfinite(self.gamma)) or np.any(self.gamma <= 0):
            raise ValueError("edge weights must be finite and positive")

    @classmethod
    def constant(cls, grid: Grid1D, value: float = 1.0) -> "WeightField":
        return cls(np.full(grid.n_cells - 1, value))

    @classmethod
    def uniform(cls, grid: Grid1D, low: float, high: float, rng) -> "WeightField":
        if not 0 < low <= high:
            raise ValueError("weight bounds must satisfy 0 < low <= high")
        return cls(rng.uniform(low, high, size=grid.n_cells - 1))

    def check_grid(self, grid: Grid1D):
        if self.gamma.shape != (grid.n_cells - 1,):
            raise DimensionMismatch(
                f"{self.gamma.shape[0]} edge weights for a grid with "
                f"{grid.n_cells} cells"
            )


@dataclass
class PLaplaceConfig:
    """Solver parameters of the implicit Euler discretization.

    eps_ext is the discrete-L2 threshold below which a state is snapped to the
    exact zero state; it defaults to 1e-12 * sqrt(length), i.e. a fixed
    threshold on the normalized amplitude.
    """

    p: float
    dt: float = 1e-2
    eps_reg: float = 1e-8
    newton_tol: float = 1e-10
    newton_max_iter: int = 200
    eps_ext: float | None = None

    def __post_init__(self):
        if not 1 < self.p < 2:
            raise ValueError("p must lie in (1, 2)")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.eps_reg < 0:
            raise ValueError("eps_reg must be nonnegative")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise ValueError("bad Newton parameters")
        if self.eps_ext is not None and self.eps_ext <= 0:
            raise ValueError("eps_ext must be positive")

    def extinction_threshold(self, grid: Grid1D) -> float:
        if self.eps_ext is not None:
            return self.eps_ext
        return 1e-12 * math.sqrt(grid.length)


def _edges(w, h, eps2):
    """Edge slopes d_e = D_e w and s2_e = d_e^2 + eps^2, per row of a stack."""
    d = (w[..., 1:] - w[..., :-1]) / h
    return d, d * d + eps2


def _conductivity(s2, gamma, p):
    """Edge conductivity gamma_e * s2_e^((p-2)/2); the flux is it times d_e."""
    return gamma * s2 ** ((p - 2.0) / 2.0)


def apply_discrete_operator(
    u: StateVector, grid: Grid1D, weights: WeightField, p: float, eps_reg: float
) -> StateVector:
    """Apply the discrete operator A_h (negative weighted p-Laplacian)."""
    weights.check_grid(grid)
    vals = u.values
    if vals.shape != (grid.n_cells,):
        raise DimensionMismatch("state does not match the grid")
    h = grid.h
    d, s2 = _edges(vals, h, eps_reg * eps_reg)
    with np.errstate(divide="ignore", invalid="ignore"):  # eps_reg = 0: 0 * inf, masked below
        flux = _conductivity(s2, weights.gamma, p) * d
    flux = np.where(d == 0.0, 0.0, flux)  # phi(0) = 0 even for eps_reg = 0
    out = np.zeros_like(vals)
    out[:-1] -= flux / h
    out[1:] += flux / h
    return StateVector(u.space, out)


def _energy(w, u, gamma, h, dt, p, eps2):
    quad = 0.5 * h * np.sum((w - u) ** 2, axis=-1)
    reg = (dt / p) * h * np.sum(gamma * _edges(w, h, eps2)[1] ** (p / 2.0), axis=-1)
    return quad + reg


def _gradient(w, u, gamma, h, dt, p, eps2):
    """The energy's gradient at w, and the ``_edges`` of w it used, for ``_curvature``."""
    edges = d, s2 = _edges(w, h, eps2)
    flux = dt * (_conductivity(s2, gamma, p) * d)
    if eps2 == 0.0:
        flux = np.where(d == 0.0, 0.0, flux)
    g = h * (w - u)
    g[..., :-1] -= flux
    g[..., 1:] += flux
    return g, edges


def _curvature(edges, gamma, h, dt, p, eps2) -> np.ndarray:
    """Per-edge second derivative weights dt * gamma_e * phi'(d_e) / h, from
    the ``_edges`` pair ``(d, s2)`` of the iterate."""
    d, s2 = edges
    phi_prime = s2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * d * d + eps2)
    return dt * gamma * phi_prime / h


def _solve(coeff, rhs, h):
    """Solve (h*I + tridiagonal edge coupling ``coeff``) x = ``rhs``, for one
    system or for each row of a stack.

    Each system goes through ``solveh_banded`` on its own: one system, or a
    stack of at most ``_FLOAT_ROWS`` rows, a row at a time in Python floats,
    a taller stack in numpy with one system per column, so no row's
    arithmetic touches another's.  A system that is not positive definite
    comes back as NaN, and so does one whose coupling is not finite: an
    infinite or NaN coupling leaves a pivot that is NaN or not positive.
    """
    n = rhs.shape[-1]
    if rhs.ndim == 2 and len(rhs) > _FLOAT_ROWS:
        # lists of cell rows: the sweeps rebind their entries, not copy them
        d = np.full((n, len(rhs)), h)
        x = list(rhs.T.copy())
        with np.errstate(all="ignore"):  # inf - inf, overflow: LAPACK does not warn
            d[:-1] += coeff.T
            d[1:] += coeff.T
            solveh_banded(list(d), list(-coeff.T), x)
        x = np.stack(x, axis=1)
        x[~(d > 0.0).all(axis=0)] = np.nan  # a NaN pivot fails too
        return x
    rows = []
    one = rhs.ndim == 1  # one system: no stack to unpack or to build
    for c, b in [(coeff.tolist(), rhs.tolist())] if one else zip(coeff.tolist(), rhs.tolist()):
        d = [(h + ci) + cj for ci, cj in zip(c + [0.0], [0.0] + c)]  # summed as in columns
        try:
            solveh_banded(d, [-ci for ci in c], b)
            good = all(pivot > 0.0 for pivot in d)  # a NaN pivot fails too
        except ZeroDivisionError:
            good = False
        rows.append(b if good else [math.nan] * n)
    return np.array(rows[0] if one else rows)


def _picard(w, u, gamma, h, dt, p, eps2):
    """One Picard update: solve the step equation with frozen conductivities.

    The true stationarity condition is h(w - u) + dt * div-form with flux
    gamma * a(d) * d, a(d) = (d^2 + eps^2)^((p-2)/2); freezing a at the
    current iterate makes the system linear tridiagonal.  For exponents in
    (1, 2) this iteration is robust precisely where the Newton model degrades
    (flat regions, where the energy's curvature varies fastest).  ``w`` is
    one state or a stack of rows, with ``dt`` then a column; a row whose
    conductivities or solution are not finite comes back non-finite.
    """
    a = _conductivity(_edges(w, h, eps2)[1], gamma, p)
    return _solve(dt * a / h, h * u, h)


def _merit_backtrack(w, delta, merit, u, gamma, h, dt, p, eps2):
    """Backtrack along delta until the squared-gradient merit decreases.

    The merit ||grad E||^2 keeps full floating-point resolution arbitrarily
    close to the minimizer, where energy differences fall below the rounding
    granularity of E itself.  Returns the accepted (w, g, edges, merit), or
    None if no step does.
    """
    step = 1.0
    while step >= 1e-16:
        w_try = w + delta if step == 1.0 else w + step * delta  # 1.0 * delta is delta
        g_try, edges = _gradient(w_try, u, gamma, h, dt, p, eps2)
        m_try = float(np.dot(g_try, g_try))
        if m_try <= (1.0 - _ARMIJO_C * step) * merit:
            return w_try, g_try, edges, m_try
        step *= 0.5
    return None


def _newton_step(u, dt, cfg, h, gamma):
    """One resolvent step: the minimizer of the per-step energy."""
    p = cfg.p
    eps2 = cfg.eps_reg * cfg.eps_reg
    tol = cfg.newton_tol
    w = u.copy()
    g, edges = _gradient(w, u, gamma, h, dt, p, eps2)
    merit = float(np.dot(g, g))
    residual = math.inf
    stall = 0
    merit_mark = math.inf
    for _ in range(cfg.newton_max_iter):
        residual = float(abs(g).max()) / h
        if residual <= tol:
            return w
        # give up once the merit stops moving: the iterate is at the
        # representable floor for this configuration
        if merit >= 0.99 * merit_mark:
            stall += 1
            if stall >= 10:
                break
        else:
            stall = 0
            merit_mark = merit
        # damped Newton attempt (descent direction for the merit: H is SPD)
        newton = None
        delta = _solve(_curvature(edges, gamma, h, dt, p, eps2), -g, h)
        if np.isfinite(delta).all():
            newton = _merit_backtrack(w, delta, merit, u, gamma, h, dt, p, eps2)
        if newton is not None:
            res_newton = float(abs(newton[1]).max()) / h
            if res_newton <= 0.5 * residual:
                w, g, edges, merit = newton
                continue
        # Newton made poor progress: Picard sweep, accepted on either merit
        # decrease (endgame) or strict energy decrease (far field)
        w_picard = _picard(w, u, gamma, h, dt, p, eps2)
        if np.isfinite(w_picard).all():
            g_picard, edges_picard = _gradient(w_picard, u, gamma, h, dt, p, eps2)
            m_picard = float(np.dot(g_picard, g_picard))
            if m_picard < merit:
                w, g, edges, merit = w_picard, g_picard, edges_picard, m_picard
                continue
            e_picard = _energy(w_picard, u, gamma, h, dt, p, eps2)
            if e_picard < _energy(w, u, gamma, h, dt, p, eps2):
                w, g, edges, merit = w_picard, g_picard, edges_picard, m_picard
                continue
        if newton is not None:
            w, g, edges, merit = newton
            continue
        # last resort: gradient direction in state units
        grad_step = _merit_backtrack(w, -g / h, merit, u, gamma, h, dt, p, eps2)
        if grad_step is None:
            break  # merit differences below rounding: stagnation
        w, g, edges, merit = grad_step
    return _settle(w, g, dt, cfg, h, gamma)


def _settle(w, g, dt, cfg, h, gamma):
    """Accept an iterate that left the Newton loop, or raise NonConvergence."""
    residual = float(abs(g).max()) / h
    if residual <= cfg.newton_tol:
        return w
    # Stiff edges (phi' up to eps_reg^(p-2)) make the sup residual quantized:
    # one ulp of a stiff coordinate can move it by more than newton_tol.  The
    # Newton correction length is a rigorous error proxy without that floor,
    # so a stalled iterate whose correction is at rounding level is converged.
    eps2 = cfg.eps_reg * cfg.eps_reg
    delta = _solve(_curvature(_edges(w, h, eps2), gamma, h, dt, cfg.p, eps2), -g, h)
    w_scale = max(1.0, float(abs(w).max()))
    if float(abs(delta).max()) <= 1e-12 * w_scale:  # false where delta is not finite
        return w
    raise NonConvergence(residual, cfg.newton_max_iter)


# Row kernels: ``_newton_step`` on a stack of states, one state per row.
# They call its primitives on the stack and repeat its state machine
# operation for operation, so each row's result is the single-state result
# bit for bit; single states stay on the scalar path, which is about three
# times faster for one row.


def _merits(g):
    """Row-wise ``np.dot(g_i, g_i)``; stacked matmul keeps dot's arithmetic,
    which einsum and row sums do not."""
    return (g[:, None, :] @ g[:, :, None])[:, 0, 0]


def _backtrack_rows(w, delta, merit, u, gamma, h, dt, p, eps2):
    """``_merit_backtrack`` per row; returns (found, w, g, merit) row arrays."""
    found = np.zeros(len(w), dtype=bool)
    w_out, g_out, m_out = np.empty_like(w), np.empty_like(w), np.empty_like(merit)
    todo = np.arange(len(w))
    step = 1.0
    while step >= 1e-16 and todo.size:
        w_try = w[todo] + (delta[todo] if step == 1.0 else step * delta[todo])
        g_try, _ = _gradient(w_try, u[todo], gamma, h, dt[todo], p, eps2)
        m_try = _merits(g_try)
        hit = m_try <= (1.0 - _ARMIJO_C * step) * merit[todo]
        rows = todo[hit]
        found[rows] = True
        w_out[rows], g_out[rows], m_out[rows] = w_try[hit], g_try[hit], m_try[hit]
        todo = todo[~hit]
        step *= 0.5
    return found, w_out, g_out, m_out


def _newton_rows(u, dts, cfg, h, gamma):
    """``_newton_step`` on each row of ``u``, row i with step ``dts[i]``.

    Every row runs the scalar state machine under its own masks: Newton with
    merit backtracking, the Picard sweep accepted on merit or energy, the
    gradient fallback, the stall break and the rounding-floor acceptance.
    A row that converges leaves the batch and the others go on, so no row's
    result depends on which rows share its batch.
    """
    p = cfg.p
    eps2 = cfg.eps_reg * cfg.eps_reg
    n_rows = len(u)
    out = np.empty_like(u)
    idx = np.arange(n_rows)
    dt = np.asarray(dts, dtype=float)[:, None]
    w = u.copy()
    g, _ = _gradient(w, u, gamma, h, dt, p, eps2)
    merit = _merits(g)
    stall = np.zeros(n_rows, dtype=int)
    mark = np.full(n_rows, math.inf)
    broke = np.zeros(n_rows, dtype=bool)  # the gradient fallback found no step
    for _ in range(cfg.newton_max_iter):
        residual = abs(g).max(axis=1) / h
        done = residual <= cfg.newton_tol
        out[idx[done]] = w[done]
        flat = merit >= 0.99 * mark
        stall = np.where(flat, stall + 1, 0)
        mark = np.where(flat, mark, merit)
        quit = ~done & (broke | (stall >= 10))
        for j in np.flatnonzero(quit):
            out[idx[j]] = _settle(w[j], g[j], dt[j, 0], cfg, h, gamma)
        keep = ~(done | quit)
        if not keep.all():
            idx, u, w, g, merit, dt, residual, stall, mark = (
                a[keep] for a in (idx, u, w, g, merit, dt, residual, stall, mark)
            )
            if not idx.size:
                return out
        # damped Newton attempt
        have = np.zeros(len(idx), dtype=bool)
        w_n, g_n, m_n = np.empty_like(w), np.empty_like(g), np.empty_like(merit)
        delta = _solve(_curvature(_edges(w, h, eps2), gamma, h, dt, p, eps2), -g, h)
        rows = np.flatnonzero(np.isfinite(delta).all(axis=1))
        if rows.size:
            found, w_t, g_t, m_t = _backtrack_rows(
                w[rows], delta[rows], merit[rows], u[rows], gamma, h, dt[rows], p, eps2
            )
            rows = rows[found]
            have[rows] = True
            w_n[rows], g_n[rows], m_n[rows] = w_t[found], g_t[found], m_t[found]
        good = np.zeros(len(idx), dtype=bool)
        good[have] = abs(g_n[have]).max(axis=1) / h <= 0.5 * residual[have]
        w[good], g[good], merit[good] = w_n[good], g_n[good], m_n[good]
        broke = np.zeros(len(idx), dtype=bool)
        rest = np.flatnonzero(~good)
        if not rest.size:
            continue
        # Newton made poor progress: Picard sweep, accepted on either merit
        # decrease or strict energy decrease
        w_p = _picard(w[rest], u[rest], gamma, h, dt[rest], p, eps2)
        ok = np.isfinite(w_p).all(axis=1)
        rest, w_p = rest[ok], w_p[ok]
        g_p, _ = _gradient(w_p, u[rest], gamma, h, dt[rest], p, eps2)
        m_p = _merits(g_p)
        take = m_p < merit[rest]
        tried = rest[~take]
        if tried.size:
            e_p = _energy(w_p[~take], u[tried], gamma, h, dt[tried, 0], p, eps2)
            take[~take] = e_p < _energy(w[tried], u[tried], gamma, h, dt[tried, 0], p, eps2)
        rows = rest[take]
        w[rows], g[rows], merit[rows] = w_p[take], g_p[take], m_p[take]
        # no sweep either: the Newton step if there was one, else a gradient step
        left = ~good
        left[rows] = False
        use_n = left & have
        w[use_n], g[use_n], merit[use_n] = w_n[use_n], g_n[use_n], m_n[use_n]
        grad = np.flatnonzero(left & ~have)
        if grad.size:
            found, w_t, g_t, m_t = _backtrack_rows(
                w[grad], -g[grad] / h, merit[grad], u[grad], gamma, h, dt[grad], p, eps2
            )
            broke[grad[~found]] = True
            rows = grad[found]
            w[rows], g[rows], merit[rows] = w_t[found], g_t[found], m_t[found]
    for j in range(len(idx)):
        out[idx[j]] = _settle(w[j], g[j], dt[j, 0], cfg, h, gamma)
    return out


def _split_times(taus, dt: float) -> tuple[list, list]:
    """Numbers of full steps and trailing partial step lengths of many times.

    A time within ``1e-12`` (relative, for times above 1) of a full step is
    that step, and a partial step shorter than ``_PARTIAL_STEP_SKIP`` is
    dropped; the arithmetic is elementwise, so each time splits as it does
    alone.
    """
    t = np.asarray(taus, dtype=float)
    if not (t >= 0.0).all() or not np.isfinite(t).all():
        raise ValueError("time must be finite and nonnegative")
    near = np.round(t / dt)
    on_grid = np.abs(t - near * dt) <= 1e-12 * np.maximum(1.0, t)
    n = np.where(on_grid, near, np.trunc(t / dt))
    rem = np.where(on_grid, 0.0, t - n * dt)
    rem[rem < _PARTIAL_STEP_SKIP] = 0.0
    return n.astype(np.int64).tolist(), rem.tolist()


def _frozen(vals: np.ndarray) -> np.ndarray:
    vals.flags.writeable = False
    return vals


class PLaplaceSemigroup:
    """Grid semigroup driven by implicit Euler steps with extinction snapping.

    Evolution composes full steps of size dt plus one trailing partial step,
    all stepped by a ``_SegmentFlow``; when the discrete L2 norm falls below
    the extinction threshold the state is replaced by the exact zero state
    and stays there.
    """

    def __init__(
        self,
        grid: Grid1D,
        weights: WeightField,
        cfg: PLaplaceConfig,
        q: float = 2.0,
    ):
        weights.check_grid(grid)
        self.grid = grid
        self.weights = weights
        self.cfg = cfg
        self.space = grid.space(q=q)
        self.eps_ext = cfg.extinction_threshold(grid)

    def _advance(self, vals: np.ndarray, dt: float) -> np.ndarray:
        return self._step(_newton_step, vals, dt)

    def _advance_rows(self, rows: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """``_advance`` of each row, row i by ``dts[i]``, as one batched step."""
        return self._step(_newton_rows, rows, dts)

    def _step(self, kernel, u: np.ndarray, dt) -> np.ndarray:
        # One error-state context per step: with eps_reg = 0 the flux and
        # curvature powers divide by zero on flat edges and multiply that inf
        # by zero; the gradient masks those entries and every solve is guarded
        # by a finiteness check.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = kernel(u, dt, self.cfg, self.grid.h, self.weights.gamma)
        out[self.space.l2(out) < self.eps_ext] = 0.0
        return out

    def evolve(self, v: StateVector, t: float) -> StateVector:
        if v.space != self.space:
            raise DimensionMismatch("state does not match the semigroup's space")
        if t == 0.0:
            return v
        return StateVector(self.space, _SegmentFlow(self, v.values).at(t).copy())

    def segment_flow(self, v: StateVector) -> "_SegmentFlow":
        return _SegmentFlow(self, v.values)

    def decay_trace(self, v: StateVector, t_cap: float):
        """Full steps until extinction or t_cap; returns (times, l2 norms, extinct).

        The times accumulate ``t += dt`` rather than being ``k * dt``; the
        committed kappa-fit traces were written that way.
        """
        flow = _SegmentFlow(self, v.values)
        t, times = 0.0, [0.0]
        extinct = self.space.l2(v.values) == 0.0
        while not extinct and t < t_cap:
            t += self.cfg.dt
            times.append(t)
            extinct = not flow.full_state(len(times) - 1).any()
        norms = self.space.l2(np.stack(flow._states[: len(times)]))
        return np.asarray(times), norms, extinct


class _SegmentFlow:
    """Cached trajectory along one inter-jump segment.

    States at integer multiples of dt are computed once and reused; arbitrary
    times are reached by a single partial step from the cached grid state,
    and each time's state is memoised, so every functional, checkpoint
    sub-segment and end-of-segment lookup shares one solve per time.  A full
    step's state is memoised at its time ``k * dt`` as it is taken, so those
    times need no ``_split_times``.  ``at_many`` serves many flows at once:
    the quadrature hands it each refinement level's nodes of every segment it
    integrates, all their partial steps are solved as one row-batched step,
    and the level's states come back as one stack.  ``integrals`` memoises
    finished segment integrals by (functional, length) for
    ``functionals.integrate_segment``.  ``full_state`` is the grid's only
    loop of full steps.  Returned states are shared and therefore read-only.
    """

    def __init__(self, sg: PLaplaceSemigroup, start: np.ndarray):
        self._sg = sg
        self._states = [_frozen(start.copy())]
        self._at: dict[float, np.ndarray] = {0.0: self._states[0]}
        self._zero_from = math.inf if start.any() else 0  # index of the first zero full state
        self.integrals: dict = {}

    def full_state(self, k: int) -> np.ndarray:
        """The state after k full steps; once extinct it stays the zero state."""
        states, dt = self._states, self._sg.cfg.dt
        while len(states) <= k and len(states) <= self._zero_from:
            state = _frozen(self._sg._advance(states[-1], dt))
            self._at[len(states) * dt] = state
            if not state.any():
                self._zero_from = len(states)
            states.append(state)
        return states[min(k, len(states) - 1)]

    def at(self, tau: float) -> np.ndarray:
        state = self._at.get(tau)
        if state is None:
            _SegmentFlow.at_many([(self, tau)])
            state = self._at[tau]
        return state

    @staticmethod
    def at_many(requests) -> np.ndarray:
        """The states of (flow, time) requests, as one read-only stack of rows
        in request order; each is memoised on its flow.

        The flows share one semigroup.  Each takes its own full steps, and
        the partial steps left over are one ``_advance_rows`` stack across
        all of them (one ``_advance`` if there is only one).  Rows do not
        depend on the rows beside them, so every state is the one ``at``
        computes alone, bit for bit.
        """
        new = {(flow, tau): None for flow, tau in requests if tau not in flow._at}
        if new:
            sg = next(iter(new))[0]._sg
            partial, splits = {}, _split_times([tau for _, tau in new], sg.cfg.dt)
            for (flow, tau), n_full, rem in zip(new, *splits):
                state = flow.full_state(n_full)
                if rem != 0.0 and n_full < flow._zero_from:
                    partial[flow, tau] = state, rem
                else:
                    flow._at[tau] = state
            if len(partial) == 1:
                ((flow, tau), (state, rem)), = partial.items()
                flow._at[tau] = _frozen(sg._advance(state, rem))
            elif partial:
                states, rems = zip(*partial.values())
                rows = _frozen(sg._advance_rows(np.array(states), np.array(rems)))
                for (flow, tau), row in zip(partial, rows):
                    flow._at[tau] = row
        return _frozen(np.array([flow._at[tau] for flow, tau in requests]))


@dataclass
class KappaFit:
    """Empirical extinction rate with the exponent it was fitted for."""

    kappa_emp: float
    rho_used: float
    fit_residual: float
    n_samples_used: int
    traces: list

    def as_dict(self) -> dict:
        return {
            "kappa_emp": self.kappa_emp,
            "rho_used": self.rho_used,
            "fit_residual": self.fit_residual,
            "n_samples_used": self.n_samples_used,
        }


def estimate_kappa(
    samples, sg: PLaplaceSemigroup, t_cap: float = 50.0, known_traces=()
) -> KappaFit:
    """Fit the largest kappa_emp validating the power-law decay bound.

    Each zero-mean sample is evolved to extinction; with g(t) = ||u(t)||_2^rho
    and rho = 2 - p, the per-sample admissible rate is the minimal average
    slope min_k (g(0) - g(t_k)) / t_k over times with g(t_k) > 0, and
    kappa_emp is the minimum across samples.  Samples that start at zero are
    excluded.  Raises NoExtinction if any sample survives past t_cap.
    ``known_traces`` are the traces of the first samples from an earlier fit
    with the same configuration and t_cap; those samples are not evolved again.
    """
    rho = 2.0 - sg.cfg.p
    kappa_emp = math.inf
    traces = []
    used = 0
    for i, sample in enumerate(samples):
        if abs(sample.mean()) > 1e-10:
            raise ValueError(f"sample {i} is not zero-mean")
        if i < len(known_traces):
            times, gpow = known_traces[i]
        else:
            times, norms, extinct = sg.decay_trace(sample, t_cap)
            if not extinct:
                raise NoExtinction(
                    f"sample {i} not extinct by t = {t_cap} "
                    f"(residual norm {norms[-1]:.3e})"
                )
            gpow = norms**rho
        traces.append((times, gpow))
        if gpow[0] == 0.0:
            continue
        live = (gpow > 0.0) & (times > 0.0)
        if np.any(live):
            slopes = (gpow[0] - gpow[live]) / times[live]
            kappa_emp = min(kappa_emp, float(np.min(slopes)))
        used += 1
    if used == 0 or not math.isfinite(kappa_emp):
        raise ValueError("no nonzero samples to fit")
    if kappa_emp <= 0:
        raise ValueError(f"fitted decay rate is not positive: {kappa_emp}")
    residual = 0.0
    for times, gpow in traces:
        if gpow[0] == 0.0:
            continue
        bound = np.maximum(gpow[0] - kappa_emp * times, 0.0)
        residual = max(residual, float(np.max(gpow - bound)))
    return KappaFit(
        kappa_emp=kappa_emp,
        rho_used=rho,
        fit_residual=residual,
        n_samples_used=used,
        traces=traces,
    )
