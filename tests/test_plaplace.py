import inspect
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solveh_banded

from _oracles import fd_operator, projected_gradient_minimize
from regenjump import plaplace
from regenjump.errors import NoExtinction, NonConvergence
from regenjump.plaplace import (
    Grid1D,
    PLaplaceConfig,
    PLaplaceSemigroup,
    WeightField,
    _banded_system,
    _merits,
    _newton_rows,
    _newton_step,
    _solve_rows,
    apply_discrete_operator,
    estimate_kappa,
    implicit_euler_step,
)
from regenjump.spaces import project_zero_mean


def make_problem(n_cells=16, length=1.0, p=1.5, dt=1e-2, seed=0, gamma=None, **cfg_kw):
    grid = Grid1D(n_cells, length)
    if gamma is None:
        rng = np.random.default_rng(seed)
        weights = WeightField.uniform(grid, 0.5, 2.0, rng)
    else:
        weights = WeightField.constant(grid, gamma)
    cfg = PLaplaceConfig(p=p, dt=dt, **cfg_kw)
    return grid, weights, cfg


def sine_state(grid, amp=1.0, mode=1, offset=0.0):
    x = grid.centers()
    space = grid.space()
    return space.state(amp * np.sin(2.0 * np.pi * mode * x / grid.length) + offset)


def test_two_cell_stencil():
    grid = Grid1D(2, 2.0)  # h = 1
    weights = WeightField.constant(grid, 1.0)
    u = grid.space().state([0.0, 1.0])
    out = apply_discrete_operator(u, grid, weights, 1.5, 0.0)
    assert np.allclose(out.values, [-1.0, 1.0], atol=1e-14)


def test_constant_is_equilibrium():
    grid, weights, _ = make_problem(n_cells=10)
    u = grid.space().state(np.full(10, 3.7))
    out = apply_discrete_operator(u, grid, weights, 1.5, 1e-8)
    assert np.all(out.values == 0.0)


def test_discrete_divergence_theorem():
    grid, weights, _ = make_problem(n_cells=32, seed=3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = grid.space().state(rng.normal(size=32))
        out = apply_discrete_operator(u, grid, weights, 1.5, 1e-8)
        assert abs(np.sum(out.values) * grid.h) <= 1e-13


def test_operator_matches_finite_difference_oracle():
    grid, weights, _ = make_problem(n_cells=8, seed=11)
    rng = np.random.default_rng(5)
    u = rng.normal(size=8)
    ours = apply_discrete_operator(grid.space().state(u), grid, weights, 1.5, 1e-4)
    ref = fd_operator(u, weights.gamma, grid.h, 1.5, 1e-4)
    assert np.max(np.abs(ours.values - ref)) <= 1e-6


def test_step_fixed_point_on_constants():
    grid, weights, cfg = make_problem(n_cells=12)
    u = grid.space().state(np.full(12, -1.25))
    w = implicit_euler_step(u, cfg, grid, weights)
    assert np.all(w.values == u.values)


def test_step_odd_symmetry():
    # symmetric weights: step(-u) == -step(u) since the energy is even
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.3)
    u = sine_state(grid, amp=0.8)
    w_pos = implicit_euler_step(u, cfg, grid, weights)
    w_neg = implicit_euler_step(-u, cfg, grid, weights)
    assert np.max(np.abs(w_neg.values + w_pos.values)) <= 1e-13


def test_step_preserves_mean():
    grid, weights, cfg = make_problem(n_cells=64, seed=2)
    rng = np.random.default_rng(9)
    u = grid.space().state(rng.normal(size=64) + 0.4)
    w = implicit_euler_step(u, cfg, grid, weights)
    assert abs(w.mean() - u.mean()) <= 1e-12


def test_step_residual_equation():
    # the minimizer solves w + dt * A_h w = u in the sup norm
    grid, weights, cfg = make_problem(n_cells=24, seed=4)
    u = project_zero_mean(sine_state(grid, amp=1.0, mode=2))
    w = implicit_euler_step(u, cfg, grid, weights)
    aw = apply_discrete_operator(w, grid, weights, cfg.p, cfg.eps_reg)
    residual = np.max(np.abs(w.values + cfg.dt * aw.values - u.values))
    assert residual <= cfg.newton_tol


def test_step_decreases_energy_and_l2():
    from regenjump.plaplace import _energy

    grid, weights, cfg = make_problem(n_cells=16, dt=0.1, seed=6)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    w = implicit_euler_step(u, cfg, grid, weights)
    eps2 = cfg.eps_reg**2
    e_u = _energy(u.values, u.values, weights.gamma, grid.h, cfg.dt, cfg.p, eps2)
    e_w = _energy(w.values, u.values, weights.gamma, grid.h, cfg.dt, cfg.p, eps2)
    assert e_w <= e_u
    assert w.norm_v1() < u.norm_v1()


@pytest.mark.parametrize("seed", range(6))
def test_newton_matches_projected_gradient_oracle(seed):
    grid, weights, cfg = make_problem(n_cells=8, seed=seed)
    rng = np.random.default_rng(100 + seed)
    u = rng.normal(size=8)
    w = implicit_euler_step(grid.space().state(u), cfg, grid, weights)
    ref = projected_gradient_minimize(
        u, weights.gamma, grid.h, cfg.dt, cfg.p, cfg.eps_reg, tol=1e-11
    )
    assert np.max(np.abs(w.values - ref)) <= 1e-8


def test_large_dt_step_shrinks_l2_vs_oracle():
    grid, weights, cfg = make_problem(n_cells=8, dt=0.5, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    w = implicit_euler_step(u, cfg, grid, weights)
    assert w.norm_v1() < u.norm_v1()
    ref = projected_gradient_minimize(
        u.values, weights.gamma, grid.h, cfg.dt, cfg.p, cfg.eps_reg, tol=1e-12
    )
    assert np.max(np.abs(w.values - ref)) <= 1e-10


def test_nonconvergence_raised_with_tiny_budget():
    grid, weights, _ = make_problem(n_cells=32, seed=1)
    cfg = PLaplaceConfig(p=1.5, dt=10.0, newton_max_iter=2)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    with pytest.raises(NonConvergence):
        implicit_euler_step(u, cfg, grid, weights)


def test_evolve_identities():
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid))
    assert sg.evolve(u, 0.0) is u
    const = grid.space().state(np.full(16, 0.9))
    out = sg.evolve(const, 0.37)
    assert np.all(out.values == const.values)


def test_evolve_composition_bit_exact_on_dt_grid():
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid))
    a = sg.evolve(sg.evolve(u, 0.03), 0.05)
    b = sg.evolve(u, 0.08)
    assert np.all(a.values == b.values)


def test_evolve_partial_step():
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid))
    t = 0.5 * cfg.dt
    out = sg.evolve(u, t)
    ref = implicit_euler_step(
        u, PLaplaceConfig(p=cfg.p, dt=t, eps_reg=cfg.eps_reg), grid, weights
    )
    assert np.max(np.abs(out.values - ref.values)) <= 1e-12


def test_zero_mean_invariance_and_extinction():
    grid, weights, cfg = make_problem(n_cells=32, seed=12)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid, amp=0.7, mode=2))
    times, norms, extinct = sg.decay_trace(u, 50.0)
    assert extinct
    assert np.all(np.diff(norms) <= 1e-12)
    # interior states stay zero-mean
    mid = sg.evolve(u, float(times[len(times) // 2]))
    assert abs(mid.mean()) <= 1e-10
    # after extinction the state is exactly zero
    assert np.all(sg.evolve(u, float(times[-1]) + 1.0).values == 0.0)


@pytest.mark.parametrize("where", ["on_grid", "off_grid", "extinct_tail"])
def test_segment_flow_memoises_each_time(monkeypatch, where):
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid, amp=0.05))
    t_ext = float(sg.decay_trace(u, 50.0)[0][-1])
    tau = {
        "on_grid": 3 * cfg.dt,
        "off_grid": 2.5 * cfg.dt,
        "extinct_tail": t_ext + 0.5 * cfg.dt,
    }[where]
    steps = []
    advance = PLaplaceSemigroup._advance

    def counted(self, vals, dt):
        steps.append(dt)
        return advance(self, vals, dt)

    monkeypatch.setattr(PLaplaceSemigroup, "_advance", counted)
    flow = sg.segment_flow(u)
    flow.extinction_breakpoint(tau)  # fills the grid states up to tau
    steps.clear()
    first = flow.at(tau)
    assert steps == ([tau - 2 * cfg.dt] if where == "off_grid" else [])
    steps.clear()
    assert flow.at(tau) is first
    assert steps == []
    monkeypatch.undo()
    assert first.tobytes() == sg.evolve_values(u.values, tau).tobytes()


def test_segment_flow_states_are_read_only():
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid))
    flow = sg.segment_flow(u)
    for tau in (0.0, cfg.dt, 1.5 * cfg.dt):
        state = flow.at(tau)
        with pytest.raises(ValueError):
            state[0] = 1.0
        with pytest.raises(ValueError):
            state += 1.0
    assert u.values.flags.writeable  # the caller's start state is left alone


def test_lq_contraction():
    grid, weights, cfg = make_problem(n_cells=64, seed=13)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    rng = np.random.default_rng(17)
    h = grid.h
    worst = -np.inf
    for _ in range(20):
        u = grid.space().state(rng.normal(size=64))
        v = grid.space().state(rng.normal(size=64))
        eu, ev = sg.evolve(u, 0.07), sg.evolve(v, 0.07)
        d0 = u.values - v.values
        d1 = eu.values - ev.values
        worst = max(
            worst,
            np.sum(np.abs(d1)) * h - np.sum(np.abs(d0)) * h,
            math.sqrt(np.sum(d1**2) * h) - math.sqrt(np.sum(d0**2) * h),
            np.max(np.abs(d1)) - np.max(np.abs(d0)),
        )
    assert worst <= 1e-9


def test_estimate_kappa_basic():
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.0)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid, amp=0.5))
    fit = estimate_kappa([u], cfg, grid, weights)
    assert fit.kappa_emp > 0.0
    assert fit.rho_used == 2.0 - cfg.p
    assert fit.fit_residual <= 1e-9


def test_estimate_kappa_excludes_zero_sample():
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.0)
    space = grid.space()
    zero = space.zero()
    u = project_zero_mean(sine_state(grid, amp=0.5))
    fit = estimate_kappa([zero, u], cfg, grid, weights)
    assert fit.n_samples_used == 1
    with pytest.raises(ValueError):
        estimate_kappa([zero], cfg, grid, weights)


def test_estimate_kappa_regression_baseline():
    # p = 1.5, gamma = 1, 64 cells, sine profile: value recorded from the run
    grid, weights, cfg = make_problem(n_cells=64, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    fit = estimate_kappa([u], cfg, grid, weights)
    assert fit.kappa_emp > 0.0
    assert fit.fit_residual <= 1e-9
    assert fit.kappa_emp == pytest.approx(2.3357982161946835, rel=1e-9)


def test_no_extinction_error():
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    with pytest.raises(NoExtinction):
        estimate_kappa([u], cfg, grid, weights, t_cap=2 * cfg.dt)


@pytest.mark.parametrize(
    "bad",
    [dict(p=1.0), dict(p=2.0), dict(dt=0.0), dict(eps_reg=-1.0), dict(eps_ext=0.0)],
)
def test_config_validation(bad):
    kwargs = dict(p=1.5, dt=1e-2)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        PLaplaceConfig(**kwargs)


def test_extinction_threshold_default_scales_with_length():
    cfg = PLaplaceConfig(p=1.5)
    assert cfg.extinction_threshold(Grid1D(8, 4.0)) == pytest.approx(2e-12)
    assert PLaplaceConfig(p=1.5, eps_ext=1e-10).extinction_threshold(
        Grid1D(8, 4.0)
    ) == 1e-10


# --- the row-batched Newton kernel against the single-state reference -------


def newton_batch(p, eps_reg, gamma_ratio, n, max_iter, seed, n_rows):
    """Rows of random states, some with flat or zero runs, and their own steps."""
    rng = np.random.default_rng(seed)
    cfg = PLaplaceConfig(p=p, eps_reg=eps_reg, newton_max_iter=max_iter)
    gamma = rng.uniform(1.0, gamma_ratio, size=n - 1)
    u = rng.normal(size=(n_rows, n)) * 10.0 ** rng.uniform(-6.0, 1.0, size=(n_rows, 1))
    for row in u:
        if rng.random() < 0.5:
            a = int(rng.integers(0, n))
            b = int(rng.integers(a, n + 1))
            row[a:b] = row[a] if rng.random() < 0.5 else 0.0
    dts = 10.0 ** rng.uniform(-6.0, 0.0, size=n_rows)
    return u, dts, cfg, 1.0 / n, gamma


# source lines of _newton_step / _settle whose execution marks a branch
BRANCH_LINES = {
    "picard_on_merit": ("_newton_step", "w, g, merit, e_w = w_picard, g_picard, m_picard, None"),
    "picard_on_energy": ("_newton_step", "w, g, merit, e_w = w_picard, g_picard, m_picard, e_picard"),
    "gradient_fallback": ("_newton_step", "grad_step = _merit_backtrack("),
    "stall_break": ("_newton_step", "if stall >= 10:"),
    "rounding_floor": ("_settle", "if float(np.max(np.abs(delta))) <= 1e-12 * w_scale:"),
}


def _branch_lines():
    out = {}
    for name, (fn, text) in BRANCH_LINES.items():
        code = getattr(plaplace, fn).__code__
        src, start = inspect.getsourcelines(code)
        hits = [start + i for i, line in enumerate(src) if text in line]
        assert len(hits) == 1, (name, hits)
        # the taken branch is the line after a test, the line itself otherwise
        out[name] = (code, hits[0] + 1 if text.startswith("if ") else hits[0])
    return out


def reference_rows(u, dts, cfg, h, gamma, counts):
    """``_newton_step`` per row (None where it raises), tallying its branches."""
    marks = _branch_lines()
    codes = {code for code, _ in marks.values()}

    def local(frame, event, arg):
        if event == "line":
            for name, (code, line) in marks.items():
                if frame.f_code is code and frame.f_lineno == line:
                    counts[name] = counts.get(name, 0) + 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    out = []
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for row, dt in zip(u, dts):
            try:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    out.append(_newton_step(row, float(dt), cfg, h, gamma))
            except NonConvergence:
                counts["nonconvergence"] = counts.get("nonconvergence", 0) + 1
                out.append(None)
    finally:
        sys.settrace(previous)
    return out


def rows_or_none(u, dts, cfg, h, gamma):
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _newton_rows(u.copy(), dts, cfg, h, gamma)
    except NonConvergence:
        return None


def check_rows_match_reference(case, counts):
    u, dts, cfg, h, gamma = newton_batch(*case)
    # row merits must be np.dot's: a last-bit change can flip an acceptance test
    assert _merits(u).tobytes() == np.array([np.dot(row, row) for row in u]).tobytes()
    ref = reference_rows(u, dts, cfg, h, gamma, counts)
    for i, expected in enumerate(ref):  # alone
        got = rows_or_none(u[i : i + 1], dts[i : i + 1], cfg, h, gamma)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got[0].tobytes() == expected.tobytes()
    live = [i for i, expected in enumerate(ref) if expected is not None]
    if len(live) < len(ref):
        assert rows_or_none(u, dts, cfg, h, gamma) is None
    for order in (live, live[::-1]):  # together, in either order
        if order:
            got = rows_or_none(u[order], dts[order], cfg, h, gamma)
            assert got is not None
            for row, i in zip(got, order):
                assert row.tobytes() == ref[i].tobytes()


BATCH_CASES = st.tuples(
    st.floats(min_value=1.05, max_value=1.95),  # p
    st.sampled_from([0.0, 1e-8]),  # eps_reg
    st.floats(min_value=1.0, max_value=1e4),  # gamma ratio
    st.integers(min_value=2, max_value=20),  # cells
    st.sampled_from([3, 20, 200]),  # newton_max_iter
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=1, max_value=5),  # rows
)


def test_newton_rows_match_newton_step_bit_for_bit():
    # a row's result equals the single-state step alone, in a batch and in
    # the reversed batch; the examples make every branch of the step fire
    counts = {}

    @settings(max_examples=60, deadline=None, database=None)
    @given(BATCH_CASES)
    @example((1.61, 0.0, 1000.0, 19, 20, 775, 3))  # Picard on merit, gradient fallback
    @example((1.28, 0.0, 10000.0, 10, 20, 504, 3))  # Picard on energy
    @example((1.08, 0.0, 1.0, 11, 200, 466, 3))  # stall break
    @example((1.47, 1e-8, 10000.0, 7, 20, 278, 3))  # rounding-floor acceptance
    @example((1.25, 1e-8, 1.0, 7, 3, 873, 3))  # NonConvergence
    def check(case):
        check_rows_match_reference(case, counts)

    check()
    assert set(counts) == set(BRANCH_LINES) | {"nonconvergence"}, counts


def test_stacked_solve_failure_falls_back_to_row_solves(monkeypatch):
    u, dts, cfg, h, gamma = newton_batch(1.5, 1e-8, 100.0, 16, 200, 11, 5)
    ref = reference_rows(u, dts, cfg, h, gamma, {})
    failed = []

    def fail_stacks(ab, b, **kw):
        if ab.shape[1] > u.shape[1]:
            failed.append(ab.shape[1])
            raise np.linalg.LinAlgError("stack refused")
        return solveh_banded(ab, b, **kw)

    monkeypatch.setattr(plaplace, "solveh_banded", fail_stacks)
    got = rows_or_none(u, dts, cfg, h, gamma)
    assert failed
    for row, expected in zip(got, ref):
        assert row.tobytes() == expected.tobytes()


def test_solve_rows_keeps_finite_rows_beside_an_overflowing_one():
    rng = np.random.default_rng(3)
    coeff = rng.uniform(0.1, 2.0, size=(4, 7))
    rhs = rng.normal(size=(4, 8))
    rhs[1, 3] = np.inf
    got = _solve_rows(coeff, rhs.copy(), 0.125)
    assert not np.isfinite(got[1]).all()
    for r in (0, 2, 3):
        alone = solveh_banded(_banded_system(coeff[r], 0.125, 8), rhs[r])
        assert got[r].tobytes() == alone.tobytes()


def test_unregularised_kernels_do_not_warn_on_flat_edges():
    # eps_reg = 0: flat edges raise 0 to a negative power and multiply the
    # inf by 0; the kernels mask or reject those entries, so no warning
    grid, weights, cfg = make_problem(n_cells=12, eps_reg=0.0)
    u = project_zero_mean(grid.space().state(np.repeat([0.0, 1.0, 1.0, -0.5], 3)))
    sg = PLaplaceSemigroup(grid, weights, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        implicit_euler_step(u, cfg, grid, weights)
        sg._advance_rows(np.stack([u.values, 0.5 * u.values]), np.array([cfg.dt, 0.3 * cfg.dt]))
        out = apply_discrete_operator(u, grid, weights, cfg.p, 0.0)
    assert np.all(np.isfinite(out.values))
