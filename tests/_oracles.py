"""Independent reference implementations used only by the tests.

These deliberately re-derive their formulas instead of importing package
internals: the projected-gradient minimizer checks the damped-Newton step,
finite differences of the edge energy check the discrete operator,
scipy.integrate.quad checks the scalar closed-form segment integrals, and
the array statistics check the moment route of the estimators.
The depth-first adaptive Simpson is the recursion that the package's
level-by-level quadrature must reproduce bit for bit, evaluating one node
at a time through the segment flow's ``at``.
The per-step chain loops take the flow and the segment integrals from the
public ``sg.evolve`` and ``integrate_segment`` and re-derive the rest: the
chain's steps, its cycles, regeneration counts and checkpoint integrals.
"""

from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from regenjump.estimators import CycleStats, estimate_nu, estimate_Q, estimate_sigma2
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


def stats_from_arrays(s, tau, h=1.0):
    """Full per-functional statistics from explicit cycle arrays."""
    nu, se = estimate_nu(s, tau)
    s_arr = np.asarray(s, dtype=float)
    out = CycleStats(
        n_cycles=tau.shape[0],
        mean_s=(float(np.mean(s_arr)) if s_arr.ndim == 1 else np.mean(s_arr, axis=0)),
        mean_tau=float(np.mean(tau)),
        nu_hat=nu,
        se_nu=se,
    )
    if s_arr.ndim == 1:
        out.sigma2_hat = estimate_sigma2(s_arr, tau, nu)
    else:
        out.q_hat = estimate_Q(s_arr, tau, nu, h)
    return out


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
    t_ext = flow.extinction_breakpoint(delta)
    if t_ext is not None and t_ext not in breaks:
        breaks = sorted(set(breaks + [t_ext]))
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
    checkpoint has closed.
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
    return SimpleNamespace(
        checkpoints=np.asarray(cps),
        integrals={xi.label: np.stack(o) for xi, o in zip(functionals, out)},
        counts=counts,
        cycle_tau=np.asarray(cycle_tau),
        cycle_integrals={
            xi.label: np.stack([s[j] for s in cycle_s]) for j, xi in enumerate(functionals)
        },
        t_end=cps[-1],
    )
