"""Independent reference implementations used only by the tests.

These deliberately re-derive their formulas instead of importing package
internals: the projected-gradient minimizer checks the damped-Newton step,
finite differences of the edge energy check the discrete operator,
scipy.integrate.quad checks the scalar closed-form segment integrals, and
the column estimators (the ratio estimator, sigma^2 and Q from the cycles'
arrays) and a plain loop's moment sums check the moment route of the
estimators, the package's one estimation route.
The depth-first adaptive Simpson is the recursion that the package's
level-by-level quadrature must reproduce bit for bit, evaluating one node
at a time through the segment flow's ``at``.
The per-step chain loops take the flow and the segment integrals from the
public ``sg.evolve`` and ``integrate_segment`` and re-derive the rest: the
chain's steps, its cycles, regeneration counts and checkpoint integrals.
The cycle diagnostics (lag autocorrelations with their normal p-values, and
a two-sample KS test of the first half against the second) check that the
simulated cycles look i.i.d.
The row-at-a-time CSV writer pins the cell formats of the package's column
writer.
"""

import csv
import math
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
from scipy import stats as sps
from scipy.integrate import quad

from regenjump.errors import InsufficientCycles
from regenjump.estimators import CycleStats, TestReport
from regenjump.functionals import integrate_segment


def energy_reference(w, u, gamma, h, dt, p, eps_reg):
    d = np.diff(w) / h
    quad_part = 0.5 * h * np.sum((w - u) ** 2)
    reg_part = (dt / p) * h * np.sum(gamma * (d * d + eps_reg**2) ** (p / 2.0))
    return float(quad_part + reg_part)


def gradient_reference(w, u, gamma, h, dt, p, eps_reg):
    d = np.diff(w) / h
    flux = gamma * (d * d + eps_reg**2) ** ((p - 2.0) / 2.0) * d
    g = h * (w - u)
    g[:-1] -= dt * flux
    g[1:] += dt * flux
    return g


def projected_gradient_minimize(
    u, gamma, h, dt, p, eps_reg, tol=1e-11, max_iter=2_000_000
):
    """Mean-preserving gradient descent on the per-step energy.

    The search direction is the gradient projected onto the zero-mean plane
    (the minimizer conserves the mean), with backtracking on the squared
    projected-gradient merit.  Slow but assumption-free: no Hessian, no
    linearization.
    """
    w = u.astype(float).copy()
    g = gradient_reference(w, u, gamma, h, dt, p, eps_reg)
    gp = g - np.mean(g)
    merit = float(np.dot(gp, gp))
    step = 1.0
    for _ in range(max_iter):
        if float(np.max(np.abs(g))) / h <= tol:
            return w
        direction = -gp / h
        accepted = False
        trial = min(step * 2.0, 1e6)
        while trial >= 1e-18:
            w_try = w + trial * direction
            g_try = gradient_reference(w_try, u, gamma, h, dt, p, eps_reg)
            gp_try = g_try - np.mean(g_try)
            m_try = float(np.dot(gp_try, gp_try))
            if m_try <= (1.0 - 1e-4 * min(trial, 1.0)) * merit:
                w, g, gp, merit, step = w_try, g_try, gp_try, m_try, trial
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
    return w


def fd_operator(u, gamma, h, p, eps_reg, fd_eps=1e-7):
    """A_h u as the rescaled finite-difference gradient of the edge energy."""

    def edge_energy(v):
        d = np.diff(v) / h
        return float((1.0 / p) * h * np.sum(gamma * (d * d + eps_reg**2) ** (p / 2.0)))

    n = u.shape[0]
    out = np.zeros(n)
    for i in range(n):
        up = u.copy()
        up[i] += fd_eps
        um = u.copy()
        um[i] -= fd_eps
        out[i] = (edge_energy(up) - edge_energy(um)) / (2.0 * fd_eps * h)
    return out


def power_flow_value(x, kappa, rho, tau):
    """T(tau)x for the scalar power-law flow, recomputed from scratch."""
    r = abs(x) ** rho - kappa * tau
    if r <= 0:
        return 0.0
    return np.sign(x) * r ** (1.0 / rho)


def quad_segment_integral(x, kappa, rho, delta, weight=1.0, shift=0.0, signed=False):
    """scipy.integrate.quad of the power-law segment integrand.

    weight * |T(tau)x| (+shift), or the signed value when signed=True; the
    integration interval is split at the extinction time.
    """
    t_star = abs(x) ** rho / kappa

    def f(tau):
        v = power_flow_value(x, kappa, rho, tau)
        base = v if signed else abs(v)
        return weight * base + shift

    points = [t for t in (t_star,) if 0.0 < t < delta]
    val, _ = quad(f, 0.0, delta, points=points or None, limit=200)
    return val


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(int(v))


def csv_by_rows(path, header, rows):
    """A CSV table written a row at a time by ``csv.writer`` with LF line
    endings: floats as ``repr``, ints as ``str``, bools as ``true``/``false``
    (numpy scalars as the Python values they hold)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def _as_2d(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return s[:, None] if s.ndim == 1 else s


def estimate_nu(s: np.ndarray, tau: np.ndarray):
    """Ratio estimator sum S / sum tau with its delta-method standard error.

    Scalar cycle integrals give float (nu, se); vector ones give arrays.
    """
    tau = np.asarray(tau, dtype=float)
    n = tau.shape[0]
    if n < 2:
        raise InsufficientCycles("need at least 2 cycles for the ratio estimator")
    s2d = _as_2d(s)
    sum_tau = float(np.sum(tau))
    nu = np.sum(s2d, axis=0) / sum_tau
    mean_tau = sum_tau / n
    resid = s2d - nu[None, :] * tau[:, None]
    se = np.sqrt(np.mean(resid**2, axis=0) / n) / mean_tau
    if np.ndim(s) == 1:
        return float(nu[0]), float(se[0])
    return nu, se


def estimate_sigma2(s: np.ndarray, tau: np.ndarray, nu: float) -> float:
    """Fluctuation variance (1/mean_tau) * mean((S - nu*tau)^2) for scalar S."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if s.ndim != 1:
        raise ValueError("estimate_sigma2 expects scalar cycle integrals")
    if tau.shape[0] < 2:
        raise InsufficientCycles("need at least 2 cycles")
    mean_tau = float(np.mean(tau))
    resid = s - nu * tau
    return float(np.mean(resid**2) / mean_tau)


def estimate_Q(s: np.ndarray, tau: np.ndarray, nu: np.ndarray, h: float) -> np.ndarray:
    """Covariance of the normalized centered cycle integrals.

    With z_n = h * (S_n - nu * tau_n) / sqrt(mean_tau), returns
    Q = mean(z_n z_n^T), the bilinear form such that psi^T Q psi equals the
    scalar fluctuation variance of the cell-weighted pairing <., psi>.
    """
    s2d = _as_2d(s)
    tau = np.asarray(tau, dtype=float)
    if tau.shape[0] < 2:
        raise InsufficientCycles("need at least 2 cycles")
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    mean_tau = float(np.mean(tau))
    z = h * (s2d - nu[None, :] * tau[:, None]) / math.sqrt(mean_tau)
    return (z.T @ z) / tau.shape[0]


def add_cycle(moments, tau, values):
    """Add one cycle to ``CycleMoments`` as a plain loop adds it.

    ``values`` maps each label to the cycle's integral; a vector integral
    adds itself, its outer product and its product with tau.
    """
    moments.n += 1
    moments.sum_tau += tau
    moments.sum_tau2 += tau * tau
    for label, s in values.items():
        moments.sum_s[label] = moments.sum_s[label] + s
        moments.sum_s2[label] = moments.sum_s2[label] + (np.outer(s, s) if np.ndim(s) else s * s)
        moments.sum_s_tau[label] = moments.sum_s_tau[label] + s * tau


def stats_from_arrays(s, tau):
    """Per-functional statistics from explicit scalar cycle arrays."""
    nu, se = estimate_nu(s, tau)
    s_arr = np.asarray(s, dtype=float)
    return CycleStats(
        n_cycles=tau.shape[0],
        mean_s=float(np.mean(s_arr)),
        mean_tau=float(np.mean(tau)),
        nu_hat=nu,
        se_nu=se,
        sigma2_hat=estimate_sigma2(s_arr, tau, nu),
    )


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag (biased normalization)."""
    z = np.asarray(series, dtype=float)
    z = z - np.mean(z)
    denom = float(np.dot(z, z))
    if denom == 0.0:
        return np.full(max_lag, np.nan)
    return np.array(
        [float(np.dot(z[:-lag], z[lag:])) / denom for lag in range(1, max_lag + 1)]
    )


@dataclass
class CycleDiagnostics:
    """Independence and identical-distribution checks on the cycle sequence."""

    lag_autocorr_s: np.ndarray
    lag_autocorr_tau: np.ndarray
    lag_pvalues_s: np.ndarray
    lag_pvalues_tau: np.ndarray
    halves_s: TestReport | None
    halves_tau: TestReport | None
    degenerate: bool
    n_cycles: int


def _lag_pvalues(r: np.ndarray, n: int) -> np.ndarray:
    # under independence r_l ~ N(0, 1/n); two-sided normal p-value
    z = np.abs(r) * math.sqrt(n)
    return 2.0 * sps.norm.sf(z)


def cycle_diagnostics(
    s: np.ndarray, tau: np.ndarray, max_lag: int = 5, alpha: float = 0.01
) -> CycleDiagnostics:
    """Lag-1..max_lag autocorrelations plus first-half/second-half KS tests."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = s.shape[0]
    if n < 200:
        raise InsufficientCycles("diagnostics need at least 200 cycles")
    if tau.shape[0] != n:
        raise ValueError("mismatched cycle arrays")
    degenerate = float(np.var(s)) == 0.0 or float(np.var(tau)) == 0.0
    r_s = autocorrelation(s, max_lag)
    r_tau = autocorrelation(tau, max_lag)
    if degenerate:
        return CycleDiagnostics(
            lag_autocorr_s=r_s,
            lag_autocorr_tau=r_tau,
            lag_pvalues_s=np.full(max_lag, np.nan),
            lag_pvalues_tau=np.full(max_lag, np.nan),
            halves_s=None,
            halves_tau=None,
            degenerate=True,
            n_cycles=n,
        )
    half = n // 2

    def halves_report(series: np.ndarray) -> TestReport:
        res = sps.ks_2samp(series[:half], series[half:])
        return TestReport(
            statistic=float(res.statistic),
            p_value=float(res.pvalue),
            n_samples=n,
            passed=bool(res.pvalue > alpha),
            alpha=alpha,
        )

    return CycleDiagnostics(
        lag_autocorr_s=r_s,
        lag_autocorr_tau=r_tau,
        lag_pvalues_s=_lag_pvalues(r_s, n),
        lag_pvalues_tau=_lag_pvalues(r_tau, n),
        halves_s=halves_report(s),
        halves_tau=halves_report(tau),
        degenerate=False,
        n_cycles=n,
    )




def grid_simpson_reference(xi, state, delta, sg, tol=1e-9):
    """Depth-first adaptive Simpson of Xi along a grid segment flow.

    Pieces run between the dt grid times and the extinction time; each piece
    gets tolerance ``tol * max(width / delta, 1e-3)``, halved per bisection,
    and is accepted with its Richardson correction once the error estimate
    is within it or at depth 48.  Nodes are evaluated one at a time, in
    recursion order, through ``flow.at``.  Returns (value, error estimate,
    evaluations).
    """
    flow = sg.segment_flow(state)
    used = 0

    def f(tau):
        nonlocal used
        used += 1
        return xi.apply_values(flow.at(tau))

    def simpson(fa, fm, fb, width):
        return (width / 6.0) * (fa + 4.0 * fm + fb)

    def refine(a, fa, b, fb, fm, whole, tol, depth):
        m = 0.5 * (a + b)
        flm = f(0.5 * (a + m))
        frm = f(0.5 * (m + b))
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        refined = left + right
        err = xi.w_norm(refined - whole) / 15.0
        if err <= tol or depth >= 48:
            return refined + (refined - whole) / 15.0, err
        lv, le = refine(a, fa, m, fm, flm, left, 0.5 * tol, depth + 1)
        rv, re = refine(m, fm, b, fb, frm, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re

    dt = sg.cfg.dt
    breaks = [0.0] + [k * dt for k in range(1, int(delta / dt) + 1) if k * dt < delta] + [delta]
    total, err_total = None, 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        fa = f(a)
        fb = f(b)
        fm = f(0.5 * (a + b))
        piece_tol = tol * max((b - a) / (breaks[-1] - breaks[0]), 1e-3)
        value, err = refine(a, fa, b, fb, fm, simpson(fa, fm, fb, b - a), piece_tol, 0)
        total = value if total is None else total + value
        err_total += err
    return (xi.zero_value() if total is None else total), err_total, used


def chain_by_steps(x0, driver, sg, eps_ext, functionals, replicate_index=0):
    """The jump chain by its definition, one step at a time, without end.

    Yields (state, t, t_end, values, extinct, after) per step.  Inputs are
    drawn one at a time, every integral makes its own flow, and an extinct
    pre-kick state is replaced by zero before the kick.
    """
    streams = driver.streams(replicate_index)
    space = x0.space
    state, t = x0, 0.0
    while True:
        beta = driver.beta.sample(streams.beta_rng)
        kick = driver.eta.sample_values(streams.eta_rng, space)
        values = [integrate_segment(xi, state, beta, sg).value for xi in functionals]
        pre = sg.evolve(state, beta)
        extinct = pre.norm_v() <= eps_ext
        after = space.state(kick if extinct else pre.values + kick)
        yield state, t, t + beta, values, extinct, after
        state, t = after, t + beta


def records_by_steps(x0, driver, sg, eps_ext, functionals, n_cycles, replicate_index=0):
    """The warm-up and cycles 1..n_cycles, each as
    (n, m_start, m_end, t_start, t_end, tau, steps, {label: integral bytes})."""
    out = []
    acc = [xi.zero_value() for xi in functionals]
    m_start, t_start = 0, 0.0
    steps = chain_by_steps(x0, driver, sg, eps_ext, functionals, replicate_index)
    for m, (_, _, t_end, values, extinct, _) in enumerate(steps, start=1):
        acc = [a + v for a, v in zip(acc, values)]
        if extinct:
            integrals = {xi.label: np.asarray(a).tobytes() for xi, a in zip(functionals, acc)}
            out.append((len(out), m_start, m, t_start, t_end, t_end - t_start, m - m_start,
                        integrals))
            if len(out) > n_cycles:
                return out
            acc = [xi.zero_value() for xi in functionals]
            m_start, t_start = m, t_end


def horizon_by_steps(x0, driver, sg, eps_ext, functionals, checkpoints, replicate_index=0):
    """What ``simulate_until_time`` reports, by a plain loop over the steps.

    A checkpoint inside a step adds that step's segment up to it; one on a
    jump time takes the integral through that step and counts a regeneration
    there.  The loop stops once the cycle after the one open at the last
    checkpoint has closed.  The random-index sums add the per-cycle values
    of cycles 1 .. counts[j] + 1 one at a time, in cycle order.
    """
    cps = [float(t) for t in checkpoints]
    out = [[None] * len(cps) for _ in functionals]
    counts = np.zeros(len(cps), dtype=np.int64)
    run = [xi.zero_value() for xi in functionals]
    acc = list(run)
    cycle_tau, cycle_s = [], []
    cp_i, regen, t_start, stop = 0, 0, 0.0, None
    for state, t, t_end, values, extinct, _ in chain_by_steps(
        x0, driver, sg, eps_ext, functionals, replicate_index
    ):
        while cp_i < len(cps) and cps[cp_i] < t_end:
            for j, xi in enumerate(functionals):
                out[j][cp_i] = run[j] + integrate_segment(xi, state, cps[cp_i] - t, sg).value
            counts[cp_i] = regen
            cp_i += 1
        run = [r + v for r, v in zip(run, values)]
        acc = [a + v for a, v in zip(acc, values)]
        if extinct:
            regen += 1
            if regen > 1:  # the warm-up is not a cycle
                cycle_tau.append(t_end - t_start)
                cycle_s.append(acc)
            acc = [xi.zero_value() for xi in functionals]
            t_start = t_end
        while cp_i < len(cps) and cps[cp_i] == t_end:
            for j in range(len(functionals)):
                out[j][cp_i] = run[j]
            counts[cp_i] = regen
            cp_i += 1
        if cp_i == len(cps):
            stop = int(counts[-1]) + 2 if stop is None else stop
            if regen >= stop:
                break

    def index_sums(per_cycle):  # cycles 1 .. counts[j] + 1, added in cycle order
        running = list(accumulate(per_cycle))
        return np.stack([running[n] for n in counts])

    return SimpleNamespace(
        checkpoints=np.asarray(cps),
        integrals={xi.label: np.stack(o) for xi, o in zip(functionals, out)},
        counts=counts,
        index_s={
            xi.label: index_sums([s[j] for s in cycle_s]) for j, xi in enumerate(functionals)
        },
        index_tau=index_sums(cycle_tau),
        cycle_tau=np.asarray(cycle_tau),
    )
