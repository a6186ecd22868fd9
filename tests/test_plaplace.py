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
    _merits,
    _newton_rows,
    _newton_step,
    _picard,
    _solve,
    apply_discrete_operator,
    estimate_kappa,
)
from regenjump.spaces import grid_space, project_zero_mean


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
    space = grid.space()
    x = space.centers()
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
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)
    assert np.all(w.values == u.values)


def test_step_odd_symmetry():
    # symmetric weights: step(-u) == -step(u) since the energy is even
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.3)
    u = sine_state(grid, amp=0.8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    w_pos = sg.evolve(u, cfg.dt)
    w_neg = sg.evolve(-u, cfg.dt)
    assert np.max(np.abs(w_neg.values + w_pos.values)) <= 1e-13


def test_step_preserves_mean():
    grid, weights, cfg = make_problem(n_cells=64, seed=2)
    rng = np.random.default_rng(9)
    u = grid.space().state(rng.normal(size=64) + 0.4)
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)
    assert abs(w.mean() - u.mean()) <= 1e-12


def test_step_residual_equation():
    # the minimizer solves w + dt * A_h w = u in the sup norm
    grid, weights, cfg = make_problem(n_cells=24, seed=4)
    u = project_zero_mean(sine_state(grid, amp=1.0, mode=2))
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)
    aw = apply_discrete_operator(w, grid, weights, cfg.p, cfg.eps_reg)
    residual = np.max(np.abs(w.values + cfg.dt * aw.values - u.values))
    assert residual <= cfg.newton_tol


def test_step_decreases_energy_and_l2():
    from regenjump.plaplace import _energy

    grid, weights, cfg = make_problem(n_cells=16, dt=0.1, seed=6)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)
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
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(grid.space().state(u), cfg.dt)
    ref = projected_gradient_minimize(
        u, weights.gamma, grid.h, cfg.dt, cfg.p, cfg.eps_reg, tol=1e-11
    )
    assert np.max(np.abs(w.values - ref)) <= 1e-8


def test_large_dt_step_shrinks_l2_vs_oracle():
    grid, weights, cfg = make_problem(n_cells=8, dt=0.5, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    w = PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)
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
        PLaplaceSemigroup(grid, weights, cfg).evolve(u, cfg.dt)


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
    ref = PLaplaceSemigroup(
        grid, weights, PLaplaceConfig(p=cfg.p, dt=t, eps_reg=cfg.eps_reg)
    ).evolve(u, t)
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
    times = sg.decay_trace(u, 50.0)[0]
    t_ext = float(times[-1])
    tau = {
        "on_grid": 3 * cfg.dt,
        "off_grid": 2.5 * cfg.dt,
        "extinct_tail": t_ext + 0.5 * cfg.dt,
    }[where]
    n_full, rem = {
        "on_grid": (3, 0.0),
        "off_grid": (2, tau - 2 * cfg.dt),
        "extinct_tail": (len(times) - 1, tau - (len(times) - 1) * cfg.dt),
    }[where]
    steps = []
    advance = PLaplaceSemigroup._advance

    def counted(self, vals, dt):
        steps.append(dt)
        return advance(self, vals, dt)

    monkeypatch.setattr(PLaplaceSemigroup, "_advance", counted)
    flow = sg.segment_flow(u)
    flow.full_state(n_full)  # fills the grid states up to tau
    steps.clear()
    first = flow.at(tau)
    assert steps == ([tau - 2 * cfg.dt] if where == "off_grid" else [])
    steps.clear()
    assert flow.at(tau) is first
    assert steps == []
    monkeypatch.undo()
    # an independent loop: n full steps, then one partial step
    ref = u.values
    for _ in range(n_full):
        ref = sg._advance(ref, cfg.dt)
    if rem:
        ref = sg._advance(ref, rem)
    assert first.tobytes() == ref.tobytes()


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


def test_advance_rows_snaps_by_the_single_state_l2_bit_for_bit():
    # a stack's row norms are the single-state norms bit for bit, so the
    # batched step zeroes exactly the rows that single steps zero
    rng = np.random.default_rng(41)
    for n in (2, 3, 7, 16, 31, 64, 128):
        rows = rng.normal(size=(500, n)) * 10.0 ** rng.uniform(-14, 2, size=(500, 1))
        space, h = grid_space(n), 1.0 / n
        for row, norm in zip(rows, space.l2(rows)):
            assert norm == space.l2(row) == math.sqrt(float(np.sum(row * row)) * h)
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    u = project_zero_mean(sine_state(grid)).values
    stack = np.outer(10.0 ** np.linspace(-10, -7, 12), u)
    dts = np.full(12, cfg.dt)
    got = sg._advance_rows(stack, dts)
    zeroed = ~got.any(axis=1)
    assert zeroed.any() and not zeroed.all()
    for row, dt, out in zip(stack, dts, got):
        assert out.tobytes() == sg._advance(row, dt).tobytes()


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
    fit = estimate_kappa([u], sg)
    assert fit.kappa_emp > 0.0
    assert fit.rho_used == 2.0 - cfg.p
    assert fit.fit_residual <= 1e-9


def test_estimate_kappa_excludes_zero_sample():
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.0)
    space = grid.space()
    zero = space.zero()
    u = project_zero_mean(sine_state(grid, amp=0.5))
    sg = PLaplaceSemigroup(grid, weights, cfg)
    fit = estimate_kappa([zero, u], sg)
    assert fit.n_samples_used == 1
    with pytest.raises(ValueError):
        estimate_kappa([zero], sg)


def test_estimate_kappa_regression_baseline():
    # p = 1.5, gamma = 1, 64 cells, sine profile: value recorded from the run
    grid, weights, cfg = make_problem(n_cells=64, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    fit = estimate_kappa([u], PLaplaceSemigroup(grid, weights, cfg))
    assert fit.kappa_emp > 0.0
    assert fit.fit_residual <= 1e-9
    assert fit.kappa_emp == pytest.approx(2.3357982161946835, rel=1e-9)


def test_no_extinction_error():
    grid, weights, cfg = make_problem(n_cells=16, gamma=1.0)
    u = project_zero_mean(sine_state(grid, amp=1.0))
    with pytest.raises(NoExtinction):
        estimate_kappa([u], PLaplaceSemigroup(grid, weights, cfg), t_cap=2 * cfg.dt)


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
    "picard_on_merit": ("_newton_step", "if m_picard < merit:"),
    "picard_on_energy": ("_newton_step", "if e_picard < _energy(w, u, gamma, h, dt, p, eps2):"),
    "gradient_fallback": ("_newton_step", "grad_step = _merit_backtrack("),
    "stall_break": ("_newton_step", "if stall >= 10:"),
    "rounding_floor": ("_settle", "if float(abs(delta).max()) <= 1e-12 * w_scale:"),
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


def newton_rows(u, dts, cfg, h, gamma):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _newton_rows(u.copy(), dts, cfg, h, gamma)


def check_rows_match_reference(case, counts):
    u, dts, cfg, h, gamma = newton_batch(*case)
    # row merits must be np.dot's: a last-bit change can flip an acceptance test
    assert _merits(u).tobytes() == np.array([np.dot(row, row) for row in u]).tobytes()
    ref = reference_rows(u, dts, cfg, h, gamma, counts)

    def check(order):  # a row whose single state raises is all NaN, the others its bytes
        got = newton_rows(u[order], dts[order], cfg, h, gamma)
        for row, i in zip(got, order):
            if ref[i] is None:
                assert np.isnan(row).all()
            else:
                assert row.tobytes() == ref[i].tobytes()

    for i in range(len(ref)):  # alone
        check([i])
    live = [i for i, expected in enumerate(ref) if expected is not None]
    every = list(range(len(ref)))
    for order in (every, every[::-1], live, live[::-1]):  # together, in either order
        if order:
            check(order)


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
    @example((1.5, 1e-8, 100.0, 16, 200, 11, 20))  # solves in numpy columns
    @example((1.61, 0.0, 1000.0, 19, 20, 775, 24))  # the same at eps_reg = 0
    def check(case):
        check_rows_match_reference(case, counts)

    assert 20 > plaplace._FLOAT_ROWS  # the 20- and 24-row examples solve in columns
    check()
    assert set(counts) == set(BRANCH_LINES) | {"nonconvergence"}, counts


def test_newton_rows_hands_no_empty_stack_to_picard_or_energy(monkeypatch):
    # rows that need no sweep, or take it on merit, cost no call; these
    # batches make both functions run
    sizes = {"_picard": [], "_energy": []}
    for name, sizes_of in sizes.items():
        def counted(w, *args, _fn=getattr(plaplace, name), _sizes=sizes_of):
            _sizes.append(len(w))
            return _fn(w, *args)

        monkeypatch.setattr(plaplace, name, counted)
    for case in [(1.61, 0.0, 1000.0, 19, 20, 775, 3), (1.5, 0.0, 1000.0, 16, 200, 0, 20)]:
        assert np.isfinite(newton_rows(*newton_batch(*case))).all()
    assert sizes["_picard"] and sizes["_energy"]
    assert min(sizes["_picard"]) > 0 and min(sizes["_energy"]) > 0, sizes


def banded(coeff, h):
    """Upper-banded h*I + edge coupling, summed in ``_solve``'s order."""
    return np.stack([np.r_[0.0, -coeff], h + np.r_[coeff, 0.0] + np.r_[0.0, coeff]])


def lapack(coeff, rhs, h):
    """``scipy.linalg.solveh_banded`` (LAPACK ``dptsv``) of each row alone; NaN
    where the coupling is not finite or LAPACK finds no positive pivot."""
    out = np.full(rhs.shape, np.nan)
    for r in np.ndindex(rhs.shape[:-1]):
        if np.isfinite(coeff[r]).all():
            try:
                with np.errstate(all="ignore"):
                    out[r] = solveh_banded(banded(coeff[r], h), rhs[r], check_finite=False)
            except np.linalg.LinAlgError:
                pass
    return out


def solve_cases(n_rows, seed):
    """Random stacks over 24 decades of coupling, with rows that are not
    positive definite, have a coupling that is not finite, or overflow."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    h = 1.0 / n
    coeff = rng.uniform(0.0, 1.0, size=(n_rows, n - 1)) * 10.0 ** rng.uniform(-12, 12, (n_rows, 1))
    rhs = rng.normal(size=(n_rows, n)) * 10.0 ** rng.uniform(-5, 5, (n_rows, 1))
    r = rng.integers(0, n_rows, size=4)
    coeff[r[0], rng.integers(n - 1)] = -3.0 * max(h, coeff[r[0]].max())
    coeff[r[1], rng.integers(n - 1)] = rng.choice([np.inf, -np.inf, np.nan])
    rhs[r[2], rng.integers(n)] = 1e306
    rhs[r[3], rng.integers(n)] = -np.inf
    return coeff, rhs, h


@pytest.mark.parametrize("n_rows", [1, 2, plaplace._FLOAT_ROWS, plaplace._FLOAT_ROWS + 1, 40])
def test_solve_matches_lapack_bit_for_bit(n_rows):
    # one system and stacks on both sides of the float/column cut, against
    # scipy's LAPACK dptsv, failing and overflowing rows included
    for seed in range(40):
        coeff, rhs, h = solve_cases(n_rows, seed)
        expected = lapack(coeff, rhs, h)
        assert _solve(coeff, rhs.copy(), h).tobytes() == expected.tobytes()
        for r in range(n_rows):
            assert _solve(coeff[r], rhs[r].copy(), h).tobytes() == expected[r].tobytes()


def test_stacked_solve_equals_each_row_solved_alone():
    # no row's arithmetic touches another's, above and below the cut: each
    # row of a stack is bit for bit the row solved alone, beside an
    # overflowing row or one that cannot be solved
    for n_rows in (plaplace._FLOAT_ROWS, plaplace._FLOAT_ROWS + 1):
        for seed in range(20):
            coeff, rhs, h = solve_cases(n_rows, seed)
            got = _solve(coeff, rhs.copy(), h)
            assert not np.isfinite(got).all()
            for r in range(n_rows):
                assert got[r].tobytes() == _solve(coeff[r], rhs[r].copy(), h).tobytes()


def test_solve_rows_keeps_finite_rows_beside_an_overflowing_one():
    # each row is its own system: an overflowing row leaves its neighbours
    # as scipy solves them alone, and the right-hand side is not written
    rng = np.random.default_rng(3)
    coeff = rng.uniform(0.1, 2.0, size=(4, 7))
    rhs = rng.normal(size=(4, 8))
    rhs[1, 3] = np.inf
    before = rhs.copy()
    got = _solve(coeff, rhs, 0.125)
    assert not np.isfinite(got[1]).all() and rhs.tobytes() == before.tobytes()
    for r in (0, 2, 3):
        alone = solveh_banded(banded(coeff[r], 0.125), rhs[r])
        assert got[r].tobytes() == alone.tobytes()
        assert _solve(coeff[r], rhs[r].copy(), 0.125).tobytes() == alone.tobytes()


def test_solve_of_a_system_it_cannot_solve_is_nan():
    # not positive definite (row 1), with a zero pivot (row 2) or with a
    # coupling that is not finite (row 3): NaN for that system alone, or that
    # row of a stack, no raise
    rng = np.random.default_rng(4)
    coeff = rng.uniform(0.1, 2.0, size=(4, 5))
    coeff[1, 2] = -3.0  # h + 2c < 0 along that edge's difference vector
    coeff[2, :] = [-0.125, 0.0, 0.0, 0.0, 0.0]  # first pivot h + c = 0
    coeff[3, 0] = np.inf
    rhs = rng.normal(size=(4, 6))
    for c in (-np.inf, np.nan):  # the other couplings that are not finite
        for k in (0, 2, 4):
            bad = coeff[0].copy()
            bad[k] = c
            assert np.isnan(_solve(bad, rhs[0].copy(), 0.125)).all()
    for r in (1, 2):
        with pytest.raises(np.linalg.LinAlgError):
            solveh_banded(banded(coeff[r], 0.125), rhs[r])
    for r in (1, 2, 3):
        assert np.isnan(_solve(coeff[r], rhs[r].copy(), 0.125)).all()
    got = _solve(coeff, rhs.copy(), 0.125)
    assert np.isnan(got[1:]).all()
    assert got[0].tobytes() == solveh_banded(banded(coeff[0], 0.125), rhs[0]).tobytes()
    tall = _solve(np.tile(coeff, (5, 1)), np.tile(rhs, (5, 1)), 0.125)  # numpy columns
    assert tall.tobytes() == np.tile(got, (5, 1)).tobytes()


def dense_picard(w, u, gamma, h, dt, p, eps2):
    """The frozen-conductivity step equation as a dense matrix, solved by numpy."""
    n = len(w)
    d = np.diff(w) / h
    c = dt * gamma * (d * d + eps2) ** ((p - 2.0) / 2.0) / h
    a = h * np.eye(n)
    for e in range(n - 1):
        a[e : e + 2, e : e + 2] += c[e] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.linalg.solve(a, h * u)


def test_picard_matches_a_dense_solve_of_the_frozen_system():
    rng = np.random.default_rng(5)
    n, h, p, eps2 = 9, 1.0 / 9, 1.4, 1e-16
    gamma = rng.uniform(0.5, 2.0, size=n - 1)
    w, u = rng.normal(size=(2, 4, n))
    dts = np.array([1e-3, 1e-2, 0.1, 1.0])
    w[3, 4:6] = 0.0  # a flat edge: infinite conductivity at eps_reg = 0
    expected = [dense_picard(w[i], u[i], gamma, h, dts[i], p, eps2) for i in range(4)]
    one = _picard(w[0], u[0], gamma, h, dts[0], p, eps2)
    np.testing.assert_allclose(one, expected[0], rtol=1e-12, atol=0)
    rows = _picard(w, u, gamma, h, dts[:, None], p, eps2)
    np.testing.assert_allclose(rows, np.stack(expected), rtol=1e-12, atol=0)
    with np.errstate(divide="ignore"):
        rows = _picard(w, u, gamma, h, dts[:, None], p, 0.0)
        flat = _picard(w[3], u[3], gamma, h, dts[3], p, 0.0)
    assert np.isnan(rows[3]).all() and np.isnan(flat).all()
    for i in range(3):
        dense = dense_picard(w[i], u[i], gamma, h, dts[i], p, 0.0)
        np.testing.assert_allclose(rows[i], dense, rtol=1e-12, atol=0)


def straight_gradient(w, u, gamma, h, dt, p, eps2):
    """``gradient_reference``'s arithmetic with the kernel's ``eps2`` and its
    mask of flat edges at eps_reg = 0."""
    d = np.diff(w) / h
    flux = gamma * (d * d + eps2) ** ((p - 2.0) / 2.0) * d
    if eps2 == 0.0:
        flux = np.where(d == 0.0, 0.0, flux)
    g = h * (w - u)
    g[:-1] -= dt * flux
    g[1:] += dt * flux
    return g


def straight_curvature(w, gamma, h, dt, p, eps2):
    """The Newton curvature weights recomputed from ``w`` itself."""
    d = np.diff(w) / h
    s2 = d * d + eps2
    phi_prime = s2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * d * d + eps2)
    return dt * gamma * phi_prime / h


def test_carried_edge_data_is_the_iterate_s_own_bit_for_bit():
    # the single-state step feeds _curvature the (d, s2) that _gradient
    # returned for the accepted iterate instead of recomputing them; both
    # must equal the straight np.diff forms, for one state and for each row
    # of a stack, with flat and zero runs where eps_reg = 0 divides by zero
    rng = np.random.default_rng(28)
    for trial in range(300):
        n = int(rng.integers(2, 21))
        n_rows = int(rng.integers(1, 6))
        h, p = 1.0 / n, float(rng.uniform(1.05, 1.95))
        eps2 = [0.0, 1e-8 * 1e-8][trial % 2]
        gamma = rng.uniform(0.5, 2.0, size=n - 1) * 10.0 ** rng.uniform(0, 4)
        w, u = rng.normal(size=(2, n_rows, n)) * 10.0 ** rng.uniform(-6, 1, size=(2, n_rows, 1))
        for row in w:
            a, b = sorted(rng.integers(0, n, size=2))
            row[a : b + 1] = [row[a], 0.0][int(rng.integers(2))]  # a flat or a zero run
        dts = 10.0 ** rng.uniform(-4, 0, size=n_rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n_rows):
                g, edges = plaplace._gradient(w[i], u[i], gamma, h, dts[i], p, eps2)
                expected = straight_gradient(w[i], u[i], gamma, h, dts[i], p, eps2)
                assert g.tobytes() == expected.tobytes()
                carried = plaplace._curvature(edges, gamma, h, dts[i], p, eps2)
                again = straight_curvature(w[i], gamma, h, dts[i], p, eps2)
                assert carried.tobytes() == again.tobytes()
            g, edges = plaplace._gradient(w, u, gamma, h, dts[:, None], p, eps2)
            carried = plaplace._curvature(edges, gamma, h, dts[:, None], p, eps2)
            for i in range(n_rows):
                expected = straight_gradient(w[i], u[i], gamma, h, dts[i], p, eps2)
                assert g[i].tobytes() == expected.tobytes()
                again = straight_curvature(w[i], gamma, h, dts[i], p, eps2)
                assert carried[i].tobytes() == again.tobytes()


def test_every_banded_solve_goes_through_solve(monkeypatch):
    # one solve entry, which a package-owned solve span can wrap
    grid, weights, cfg = make_problem(n_cells=12)
    u = project_zero_mean(grid.space().state(np.sin(np.linspace(0.0, 5.0, grid.n_cells))))
    sg = PLaplaceSemigroup(grid, weights, cfg)
    callers = []
    recurrence = plaplace.solveh_banded

    def recorder(d, e, x):
        callers.append(sys._getframe(1).f_code)
        return recurrence(d, e, x)

    monkeypatch.setattr(plaplace, "solveh_banded", recorder)
    sg.evolve(u, 2.5 * cfg.dt)
    stack = np.stack([u.values, 0.5 * u.values, -u.values])
    sg._advance_rows(stack, np.array([cfg.dt, 0.3 * cfg.dt, 0.7 * cfg.dt]))
    tall = np.outer(np.linspace(-1.0, 1.0, plaplace._FLOAT_ROWS + 2), u.values)
    sg._advance_rows(tall, np.full(len(tall), 0.5 * cfg.dt))  # numpy columns
    sg.decay_trace(u, 1.0)
    assert callers and set(callers) == {plaplace._solve.__code__}


def test_unregularised_kernels_do_not_warn_on_flat_edges():
    # eps_reg = 0: flat edges raise 0 to a negative power and multiply the
    # inf by 0; the kernels mask or reject those entries, so no warning
    grid, weights, cfg = make_problem(n_cells=12, eps_reg=0.0)
    u = project_zero_mean(grid.space().state(np.repeat([0.0, 1.0, 1.0, -0.5], 3)))
    sg = PLaplaceSemigroup(grid, weights, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg.evolve(u, cfg.dt)
        sg._advance_rows(np.stack([u.values, 0.5 * u.values]), np.array([cfg.dt, 0.3 * cfg.dt]))
        out = apply_discrete_operator(u, grid, weights, cfg.p, 0.0)
    assert np.all(np.isfinite(out.values))
