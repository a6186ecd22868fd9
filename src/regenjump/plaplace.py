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

found by damped Newton with Armijo backtracking (gradient fallback if the
tridiagonal solve goes bad).  The stationarity condition is
``w + dt * A_h w = u``; convergence is declared when that residual is below
``newton_tol`` in the sup norm.

Because every edge contribution to the Hessian has zero column sum, Newton
iterations conserve the mean exactly (up to rounding): the discrete flow
preserves mass just like the continuum operator.  Zero-mean states decay to
zero in finite time; ``estimate_kappa`` fits the largest decay rate
``kappa_emp`` such that

    ``||u(t)||_2^rho <= (||u(0)||_2^rho - kappa_emp * t)_+``, with rho = 2 - p,

holds along every sampled trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import DimensionMismatch, NoExtinction, NonConvergence
from .spaces import Space, StateVector, grid_space

__all__ = [
    "Grid1D",
    "WeightField",
    "PLaplaceConfig",
    "PLaplaceSemigroup",
    "apply_discrete_operator",
    "implicit_euler_step",
    "estimate_kappa",
    "KappaFit",
]

_ARMIJO_C = 1e-4
_PARTIAL_STEP_SKIP = 1e-14
# Every banded solve gets a freshly built matrix and right-hand side, and its
# callers check the matrix before and the solution after it, so scipy's
# copies and finiteness checks are waste.
_SOLVE_OPTS = {"check_finite": False, "overwrite_ab": True, "overwrite_b": True}


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

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h

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


def _flux(d: np.ndarray, gamma: np.ndarray, p: float, eps_reg: float) -> np.ndarray:
    return gamma * (d * d + eps_reg * eps_reg) ** ((p - 2.0) / 2.0) * d


def apply_discrete_operator(
    u: StateVector, grid: Grid1D, weights: WeightField, p: float, eps_reg: float
) -> StateVector:
    """Apply the discrete operator A_h (negative weighted p-Laplacian)."""
    weights.check_grid(grid)
    vals = u.values
    if vals.shape != (grid.n_cells,):
        raise DimensionMismatch("state does not match the grid")
    h = grid.h
    d = np.diff(vals) / h
    with np.errstate(divide="ignore", invalid="ignore"):  # eps_reg = 0: 0 * inf, masked below
        flux = _flux(d, weights.gamma, p, eps_reg)
    flux = np.where(d == 0.0, 0.0, flux)  # phi(0) = 0 even for eps_reg = 0
    out = np.zeros_like(vals)
    out[:-1] -= flux / h
    out[1:] += flux / h
    return StateVector(u.space, out)


def _energy(w, u, gamma, h, dt, p, eps2):
    d = np.diff(w) / h
    quad = 0.5 * h * np.sum((w - u) ** 2, axis=-1)
    reg = (dt / p) * h * np.sum(gamma * (d * d + eps2) ** (p / 2.0), axis=-1)
    return quad + reg


def _gradient(w, u, gamma, h, dt, p, eps2) -> np.ndarray:
    d = np.diff(w) / h
    flux = gamma * (d * d + eps2) ** ((p - 2.0) / 2.0) * d
    if eps2 == 0.0:
        flux = np.where(d == 0.0, 0.0, flux)
    g = h * (w - u)
    g[..., :-1] -= dt * flux
    g[..., 1:] += dt * flux
    return g


def _curvature(w, gamma, h, dt, p, eps2) -> np.ndarray:
    """Per-edge second derivative weights dt * gamma_e * phi'(d_e) / h."""
    d = np.diff(w) / h
    s2 = d * d + eps2
    phi_prime = s2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * d * d + eps2)
    return dt * gamma * phi_prime / h


def _banded_system(edge_coeff: np.ndarray, h: float, n: int) -> np.ndarray:
    """Upper-banded form of h*I + tridiagonal edge coupling."""
    ab = np.zeros((2, n))
    ab[1, :] = h
    ab[1, :-1] += edge_coeff
    ab[1, 1:] += edge_coeff
    ab[0, 1:] = -edge_coeff
    return ab


def _newton_direction(g, edge_curv, h):
    ab = _banded_system(edge_curv, h, g.shape[0])
    return solveh_banded(ab, -g, **_SOLVE_OPTS)


def _lagged_diffusivity_sweep(w, u, gamma, h, dt, p, eps2):
    """One Picard update: solve the step equation with frozen conductivities.

    The true stationarity condition is h(w - u) + dt * div-form with flux
    gamma * a(d) * d, a(d) = (d^2 + eps^2)^((p-2)/2); freezing a at the
    current iterate makes the system linear tridiagonal.  For exponents in
    (1, 2) this iteration is robust precisely where the Newton model degrades
    (flat regions, where the energy's curvature varies fastest).
    """
    d = np.diff(w) / h
    a = gamma * (d * d + eps2) ** ((p - 2.0) / 2.0)
    if not np.all(np.isfinite(a)):
        return None
    c = dt * a / h
    ab = _banded_system(c, h, w.shape[0])
    try:
        out = solveh_banded(ab, h * u, **_SOLVE_OPTS)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(out)):
        return None
    return out


def implicit_euler_step(
    u: StateVector, cfg: PLaplaceConfig, grid: Grid1D, weights: WeightField
) -> StateVector:
    """One resolvent step: the minimizer of the per-step energy."""
    weights.check_grid(grid)
    w = _step_values(u.values, cfg.dt, cfg, grid, weights)
    return StateVector(u.space, w)


def _merit_backtrack(w, delta, merit, u, gamma, h, dt, p, eps2):
    """Backtrack along delta until the squared-gradient merit decreases.

    The merit ||grad E||^2 keeps full floating-point resolution arbitrarily
    close to the minimizer, where energy differences fall below the rounding
    granularity of E itself.
    """
    step = 1.0
    while step >= 1e-16:
        w_try = w + step * delta
        g_try = _gradient(w_try, u, gamma, h, dt, p, eps2)
        m_try = float(np.dot(g_try, g_try))
        if m_try <= (1.0 - _ARMIJO_C * step) * merit:
            return w_try, g_try, m_try
        step *= 0.5
    return None, None, None


def _step_values(
    u: np.ndarray, dt: float, cfg: PLaplaceConfig, grid: Grid1D, weights: WeightField
) -> np.ndarray:
    # One error-state context per step: with eps_reg = 0 the flux and
    # curvature powers divide by zero on flat edges and multiply that inf by
    # zero; the gradient masks those entries and every solve is guarded by a
    # finiteness check.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _newton_step(u, dt, cfg, grid.h, weights.gamma)


def _newton_step(u, dt, cfg, h, gamma):
    p = cfg.p
    eps2 = cfg.eps_reg * cfg.eps_reg
    tol = cfg.newton_tol
    w = u.copy()
    g = _gradient(w, u, gamma, h, dt, p, eps2)
    merit = float(np.dot(g, g))
    e_w = None  # energy of w, computed only when the Picard test needs it
    residual = math.inf
    stall = 0
    merit_mark = math.inf
    for _ in range(cfg.newton_max_iter):
        residual = float(np.max(np.abs(g))) / h
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
        edge_curv = _curvature(w, gamma, h, dt, p, eps2)
        if np.all(np.isfinite(edge_curv)):
            try:
                delta = _newton_direction(g, edge_curv, h)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                newton = _merit_backtrack(w, delta, merit, u, gamma, h, dt, p, eps2)
                if newton[0] is None:
                    newton = None
        if newton is not None:
            res_newton = float(np.max(np.abs(newton[1]))) / h
            if res_newton <= 0.5 * residual:
                w, g, merit = newton
                e_w = None
                continue
        # Newton made poor progress: lagged-diffusivity sweep, accepted on
        # either merit decrease (endgame) or strict energy decrease (far field)
        w_picard = _lagged_diffusivity_sweep(w, u, gamma, h, dt, p, eps2)
        if w_picard is not None:
            g_picard = _gradient(w_picard, u, gamma, h, dt, p, eps2)
            m_picard = float(np.dot(g_picard, g_picard))
            if m_picard < merit:
                w, g, merit, e_w = w_picard, g_picard, m_picard, None
                continue
            if e_w is None:
                e_w = _energy(w, u, gamma, h, dt, p, eps2)
            e_picard = _energy(w_picard, u, gamma, h, dt, p, eps2)
            if e_picard < e_w:
                w, g, merit, e_w = w_picard, g_picard, m_picard, e_picard
                continue
        if newton is not None:
            w, g, merit = newton
            e_w = None
            continue
        # last resort: gradient direction in state units
        grad_step = _merit_backtrack(w, -g / h, merit, u, gamma, h, dt, p, eps2)
        if grad_step[0] is None:
            break  # merit differences below rounding: stagnation
        w, g, merit = grad_step
        e_w = None
    return _settle(w, g, dt, cfg, h, gamma)


def _settle(w, g, dt, cfg, h, gamma):
    """Accept an iterate that left the Newton loop, or raise NonConvergence."""
    residual = float(np.max(np.abs(g))) / h
    if residual <= cfg.newton_tol:
        return w
    # Stiff edges (phi' up to eps_reg^(p-2)) make the sup residual quantized:
    # one ulp of a stiff coordinate can move it by more than newton_tol.  The
    # Newton correction length is a rigorous error proxy without that floor,
    # so a stalled iterate whose correction is at rounding level is converged.
    edge_curv = _curvature(w, gamma, h, dt, cfg.p, cfg.eps_reg * cfg.eps_reg)
    if np.all(np.isfinite(edge_curv)):
        try:
            delta = _newton_direction(g, edge_curv, h)
        except np.linalg.LinAlgError:
            delta = None
        if delta is not None and np.all(np.isfinite(delta)):
            w_scale = max(1.0, float(np.max(np.abs(w))))
            if float(np.max(np.abs(delta))) <= 1e-12 * w_scale:
                return w
    raise NonConvergence(residual, cfg.newton_max_iter)


# Row kernels: ``_newton_step`` on a stack of states, one state per row.
# They repeat its arithmetic operation for operation, so each row's result is
# the single-state result bit for bit; single states stay on the scalar path,
# which is about three times faster for one row.


def _merits(g):
    """Row-wise ``np.dot(g_i, g_i)``; stacked matmul keeps dot's arithmetic,
    which einsum and row sums do not."""
    return (g[:, None, :] @ g[:, :, None])[:, 0, 0]


def _solve_rows(coeff, rhs, h):
    """Solve (h*I + edge coupling ``coeff[i]``) x_i = ``rhs[i]`` for every row i.

    A row whose system is not positive definite comes back as NaN.  One
    banded call solves all rows as the diagonal blocks of one system (each
    block as ``_banded_system`` builds it, with zero coupling between
    blocks), which keeps every block's arithmetic that of its own solve,
    except that an overflowing row spreads 0 * inf into its neighbours; so
    rows that come out non-finite, or all rows if the stack is not positive
    definite, are solved again one by one.  ``rhs`` is overwritten.
    """
    n_rows, n = rhs.shape
    ab = np.zeros((2, n_rows, n))
    ab[1] = h
    ab[1, :, :-1] += coeff
    ab[1, :, 1:] += coeff
    ab[0, :, 1:] = -coeff
    try:
        x = solveh_banded(ab.reshape(2, -1), rhs.flatten(), **_SOLVE_OPTS).reshape(rhs.shape)
        redo = np.flatnonzero(~np.isfinite(x).all(axis=1))
    except np.linalg.LinAlgError:
        x = np.empty_like(rhs)
        redo = range(n_rows)
    for r in redo:
        try:
            x[r] = solveh_banded(_banded_system(coeff[r], h, n), rhs[r], **_SOLVE_OPTS)
        except np.linalg.LinAlgError:
            x[r] = np.nan
    return x


def _backtrack_rows(w, delta, merit, u, gamma, h, dt, p, eps2):
    """``_merit_backtrack`` per row; returns (found, w, g, merit) row arrays."""
    found = np.zeros(len(w), dtype=bool)
    w_out, g_out, m_out = np.empty_like(w), np.empty_like(w), np.empty_like(merit)
    todo = np.arange(len(w))
    step = 1.0
    while step >= 1e-16 and todo.size:
        w_try = w[todo] + step * delta[todo]
        g_try = _gradient(w_try, u[todo], gamma, h, dt[todo], p, eps2)
        m_try = _merits(g_try)
        hit = m_try <= (1.0 - _ARMIJO_C * step) * merit[todo]
        rows = todo[hit]
        found[rows] = True
        w_out[rows], g_out[rows], m_out[rows] = w_try[hit], g_try[hit], m_try[hit]
        todo = todo[~hit]
        step *= 0.5
    return found, w_out, g_out, m_out


def _picard_rows(w, u, gamma, h, dt, p, eps2):
    """``_lagged_diffusivity_sweep`` per row; NaN rows where it gives None."""
    d = np.diff(w) / h
    a = gamma * (d * d + eps2) ** ((p - 2.0) / 2.0)
    out = np.full_like(w, np.nan)
    ok = np.isfinite(a).all(axis=1)
    if ok.any():
        out[ok] = _solve_rows(dt[ok] * a[ok] / h, h * u[ok], h)
    return out


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
    g = _gradient(w, u, gamma, h, dt, p, eps2)
    merit = _merits(g)
    e_w = np.zeros(n_rows)  # energy of w where ``known``, as the Picard test needs it
    known = np.zeros(n_rows, dtype=bool)
    stall = np.zeros(n_rows, dtype=int)
    mark = np.full(n_rows, math.inf)
    broke = np.zeros(n_rows, dtype=bool)  # the gradient fallback found no step
    for _ in range(cfg.newton_max_iter):
        residual = np.max(np.abs(g), axis=1) / h
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
            idx, u, w, g, merit, dt, residual, e_w, known, stall, mark = (
                a[keep] for a in (idx, u, w, g, merit, dt, residual, e_w, known, stall, mark)
            )
            if not idx.size:
                return out
        # damped Newton attempt
        have = np.zeros(len(idx), dtype=bool)
        w_n, g_n, m_n = np.empty_like(w), np.empty_like(g), np.empty_like(merit)
        curv = _curvature(w, gamma, h, dt, p, eps2)
        rows = np.flatnonzero(np.isfinite(curv).all(axis=1))
        if rows.size:
            delta = _solve_rows(curv[rows], -g[rows], h)
            ok = np.isfinite(delta).all(axis=1)
            rows, delta = rows[ok], delta[ok]
            found, w_t, g_t, m_t = _backtrack_rows(
                w[rows], delta, merit[rows], u[rows], gamma, h, dt[rows], p, eps2
            )
            rows = rows[found]
            have[rows] = True
            w_n[rows], g_n[rows], m_n[rows] = w_t[found], g_t[found], m_t[found]
        good = np.zeros(len(idx), dtype=bool)
        good[have] = np.max(np.abs(g_n[have]), axis=1) / h <= 0.5 * residual[have]
        w[good], g[good], merit[good] = w_n[good], g_n[good], m_n[good]
        known[good] = False
        # Newton made poor progress: lagged-diffusivity sweep, accepted on
        # either merit decrease or strict energy decrease
        rest = np.flatnonzero(~good)
        w_p = _picard_rows(w[rest], u[rest], gamma, h, dt[rest], p, eps2)
        ok = np.isfinite(w_p).all(axis=1)
        rest, w_p = rest[ok], w_p[ok]
        g_p = _gradient(w_p, u[rest], gamma, h, dt[rest], p, eps2)
        m_p = _merits(g_p)
        by_merit = m_p < merit[rest]
        fresh = rest[~by_merit & ~known[rest]]
        e_w[fresh] = _energy(w[fresh], u[fresh], gamma, h, dt[fresh, 0], p, eps2)
        known[fresh] = True
        tried = rest[~by_merit]
        e_p = _energy(w_p[~by_merit], u[tried], gamma, h, dt[tried, 0], p, eps2)
        lower = e_p < e_w[tried]
        take = by_merit.copy()
        take[~by_merit] = lower
        rows = rest[take]
        w[rows], g[rows], merit[rows] = w_p[take], g_p[take], m_p[take]
        known[rows] = ~by_merit[take]
        e_w[tried[lower]] = e_p[lower]
        # no sweep either: the Newton step if there was one, else a gradient step
        left = ~good
        left[rows] = False
        use_n = left & have
        w[use_n], g[use_n], merit[use_n] = w_n[use_n], g_n[use_n], m_n[use_n]
        known[use_n] = False
        grad = np.flatnonzero(left & ~have)
        broke = np.zeros(len(idx), dtype=bool)
        if grad.size:
            found, w_t, g_t, m_t = _backtrack_rows(
                w[grad], -g[grad] / h, merit[grad], u[grad], gamma, h, dt[grad], p, eps2
            )
            broke[grad[~found]] = True
            rows = grad[found]
            w[rows], g[rows], merit[rows] = w_t[found], g_t[found], m_t[found]
            known[rows] = False
    for j in range(len(idx)):
        out[idx[j]] = _settle(w[j], g[j], dt[j, 0], cfg, h, gamma)
    return out


def _split_time(t: float, dt: float) -> tuple[int, float]:
    """Number of full steps and the trailing partial step length."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    n = int(round(t / dt))
    if abs(t - n * dt) <= 1e-12 * max(1.0, abs(t)):
        return n, 0.0
    n = int(t / dt)
    rem = t - n * dt
    if rem < _PARTIAL_STEP_SKIP:
        rem = 0.0
    return n, rem


def _frozen(vals: np.ndarray) -> np.ndarray:
    vals.flags.writeable = False
    return vals


def _l2(vals: np.ndarray, h: float) -> float:
    return math.sqrt(float(np.sum(vals * vals)) * h)


class PLaplaceSemigroup:
    """Grid semigroup driven by implicit Euler steps with extinction snapping.

    Evolution composes full steps of size dt plus one trailing partial step;
    when the discrete L2 norm falls below the extinction threshold the state
    is replaced by the exact zero state and stays there.
    """

    kind = "plaplace"
    kappa_source = "empirical"

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
        out = _step_values(vals, dt, self.cfg, self.grid, self.weights)
        if _l2(out, self.grid.h) < self.eps_ext:
            return np.zeros_like(out)
        return out

    def _advance_rows(self, rows: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """``_advance`` of each row, row i by ``dts[i]``, as one batched step."""
        h = self.grid.h
        with np.errstate(divide="ignore", invalid="ignore"):  # as in _step_values
            out = _newton_rows(rows, dts, self.cfg, h, self.weights.gamma)
        out[np.sqrt(np.sum(out * out, axis=1) * h) < self.eps_ext] = 0.0
        return out

    def evolve_values(self, vals: np.ndarray, t: float) -> np.ndarray:
        n_full, rem = _split_time(t, self.cfg.dt)
        out = vals
        for _ in range(n_full):
            if not out.any():
                return np.zeros_like(vals)
            out = self._advance(out, self.cfg.dt)
        if rem > 0.0 and out.any():
            out = self._advance(out, rem)
        return out if out is not vals else vals.copy()

    def evolve(self, v: StateVector, t: float) -> StateVector:
        if v.space != self.space:
            raise DimensionMismatch("state does not match the semigroup's space")
        if t == 0.0:
            return v
        return StateVector(self.space, self.evolve_values(v.values, t))

    def step(self, v: StateVector) -> StateVector:
        """One full implicit step without the extinction snap (for axiom tests)."""
        return implicit_euler_step(v, self.cfg, self.grid, self.weights)

    def segment_flow(self, v: StateVector) -> "_SegmentFlow":
        return _SegmentFlow(self, v.values)

    def decay_trace(self, v: StateVector, t_cap: float):
        """Step until extinction or t_cap; returns (times, l2 norms, extinct)."""
        vals = v.values.copy()
        h = self.grid.h
        dt = self.cfg.dt
        times = [0.0]
        norms = [_l2(vals, h)]
        t = 0.0
        extinct = norms[0] == 0.0
        while not extinct and t < t_cap:
            vals = self._advance(vals, dt)
            t += dt
            times.append(t)
            norms.append(_l2(vals, h))
            extinct = not vals.any()
        return np.asarray(times), np.asarray(norms), extinct


class _SegmentFlow:
    """Cached trajectory along one inter-jump segment.

    States at integer multiples of dt are computed once and reused; arbitrary
    times are reached by a single partial step from the cached grid state,
    and each time's state is memoised, so every functional, checkpoint
    sub-segment and end-of-segment lookup shares one solve per time.
    ``at_many`` fills the memo for many times at once: the quadrature hands
    it each refinement level's nodes, and all their partial steps are solved
    as one row-batched step.  Evaluations reproduce ``evolve_values``
    bit-exactly.  Returned states are shared and therefore read-only.
    """

    def __init__(self, sg: PLaplaceSemigroup, start: np.ndarray):
        self._sg = sg
        self._states = [_frozen(start.copy())]
        self._at: dict[float, np.ndarray] = {}
        self._extinct_index: int | None = 0 if not start.any() else None

    def _extend(self, k: int):
        while len(self._states) <= k:
            if self._extinct_index is not None:
                self._states.append(self._states[-1])
                continue
            nxt = _frozen(self._sg._advance(self._states[-1], self._sg.cfg.dt))
            self._states.append(nxt)
            if not nxt.any():
                self._extinct_index = len(self._states) - 1

    def at(self, tau: float) -> np.ndarray:
        state = self._at.get(tau)
        if state is None:
            self.at_many((tau,))
            state = self._at[tau]
        return state

    def at_many(self, taus) -> None:
        """Memoise the state at every time in ``taus`` that is not yet known."""
        dt = self._sg.cfg.dt
        split = {tau: _split_time(tau, dt) for tau in taus if tau not in self._at}
        if not split:
            return
        self._extend(max(n_full for n_full, _ in split.values()))
        partial = []
        for tau, (n_full, rem) in split.items():
            state = self._states[n_full]
            if rem != 0.0 and state.any():
                partial.append((tau, state, rem))
            else:
                self._at[tau] = state
        if len(partial) == 1:
            tau, state, rem = partial[0]
            self._at[tau] = _frozen(self._sg._advance(state, rem))
        elif partial:
            times, states, rems = zip(*partial)
            rows = _frozen(self._sg._advance_rows(np.stack(states), np.array(rems)))
            self._at.update(zip(times, rows))

    def extinction_breakpoint(self, horizon: float) -> float | None:
        """First cached grid time at which the state is exactly zero."""
        n_full, rem = _split_time(horizon, self._sg.cfg.dt)
        self._extend(n_full)
        if self._extinct_index is None:
            return None
        t0 = self._extinct_index * self._sg.cfg.dt
        return t0 if t0 < horizon else None


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
    samples,
    cfg: PLaplaceConfig,
    grid: Grid1D,
    weights: WeightField,
    t_cap: float = 50.0,
    known_traces=(),
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
    rho = 2.0 - cfg.p
    sg = PLaplaceSemigroup(grid, weights, cfg)
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
