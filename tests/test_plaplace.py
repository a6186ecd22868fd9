import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import fd_operator, projected_gradient_minimize
from regenjump.errors import NoExtinction, NonConvergence
from regenjump.plaplace import (
    Grid1D,
    PLaplaceConfig,
    PLaplaceSemigroup,
    WeightField,
    apply_discrete_operator,
    estimate_kappa,
    evolve_plaplace,
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


def test_evolve_plaplace_wrapper():
    grid, weights, cfg = make_problem(n_cells=16, seed=8)
    u = project_zero_mean(sine_state(grid))
    a = evolve_plaplace(u, 0.04, cfg, grid, weights)
    b = PLaplaceSemigroup(grid, weights, cfg).evolve(u, 0.04)
    assert np.all(a.values == b.values)


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
