import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import grid_simpson_reference, quad_segment_integral
from regenjump.errors import QuadratureBudgetExceeded
from regenjump.functionals import (
    AffineShift,
    IdentityV2,
    Linear,
    NormV2,
    QuadratureConfig,
    integrate_segment,
)
from regenjump.plaplace import Grid1D, PLaplaceConfig, PLaplaceSemigroup, WeightField
from regenjump.semigroup import ExtinctionParams, ScalarPowerLaw
from regenjump.spaces import grid_space, project_zero_mean, scalar_space

SCALAR = scalar_space()


def scalar_sg(kappa=1.0, rho=0.5):
    return ScalarPowerLaw(ExtinctionParams(kappa, rho), SCALAR)


def sublinearity_violation(xi, v):
    """||Xi(v)||_W - (c1 ||v||_V2 + c2); <= 0 when the certificate holds."""
    return xi.w_norm(xi.apply(v)) - (xi.c1 * v.norm_v2() + xi.c2)


def test_apply_examples():
    grid = grid_space(4, length=2.0)
    v = grid.state([1.0, -2.0, 0.5, 0.0])
    assert NormV2(grid).apply(grid.zero()) == 0.0
    assert np.all(IdentityV2(grid).apply(v) == v.values)
    mass = Linear.mass(grid)
    assert mass.apply(v) == pytest.approx(v.mean() * grid.length)
    shifted = AffineShift(NormV2(grid), 0.25)
    assert shifted.apply(v) == pytest.approx(v.norm_v2() + 0.25)


def test_scalar_identity_returns_float():
    xi = IdentityV2(SCALAR)
    assert xi.apply(SCALAR.state([-1.5])) == -1.5
    assert not xi.vector_valued


def test_sublinearity_constants():
    grid = grid_space(8, length=2.0, q=2.0)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8)
    functionals = [
        NormV2(grid),
        IdentityV2(grid),
        Linear(grid, psi),
        Linear.mass(grid),
        AffineShift(Linear(grid, psi), -0.7),
    ]
    for xi in functionals:
        for _ in range(200):
            v = grid.state(rng.normal(size=8) * rng.uniform(0, 10))
            assert sublinearity_violation(xi, v) <= 1e-12


def test_sublinearity_q1_dual_norm():
    grid = grid_space(4, length=1.0, q=1.0)
    xi = Linear(grid, [1.0, -3.0, 2.0, 0.0])
    assert xi.c1 == 3.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = grid.state(rng.normal(size=4))
        assert sublinearity_violation(xi, v) <= 1e-12


def test_segment_closed_form_examples():
    sg = scalar_sg()
    one = SCALAR.state([1.0])
    res = integrate_segment(NormV2(SCALAR), one, 1.0, sg)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.n_evals == 0
    # zero state integrates to zero, plus the shift for affine functionals
    zero = SCALAR.zero()
    assert integrate_segment(NormV2(SCALAR), zero, 2.0, sg).value == 0.0
    shift = AffineShift(NormV2(SCALAR), 0.5)
    assert integrate_segment(shift, zero, 2.0, sg).value == pytest.approx(1.0)


def test_segment_signed_and_linear():
    sg = scalar_sg()
    neg = SCALAR.state([-1.0])
    signed = integrate_segment(IdentityV2(SCALAR), neg, 1.0, sg).value
    assert signed == pytest.approx(-1.0 / 3.0, abs=1e-15)
    lin = Linear(SCALAR, [2.0])
    assert integrate_segment(lin, neg, 1.0, sg).value == pytest.approx(-2.0 / 3.0)


# the closed form's sign, pairing and shift branches, on both signs of the
# state, each with its integrand for quad: weight * (|T x| or T x) + shift
CLOSED_FORM_KINDS = [
    (NormV2(SCALAR), dict()),
    (IdentityV2(SCALAR), dict(signed=True)),
    (Linear(SCALAR, [-1.7]), dict(weight=-1.7 * SCALAR.h, signed=True)),
    (
        AffineShift(Linear(SCALAR, [0.6]), -0.35),
        dict(weight=0.6 * SCALAR.h, shift=-0.35, signed=True),
    ),
]


@pytest.mark.parametrize(
    "xi, integrand", CLOSED_FORM_KINDS, ids=[type(xi).__name__ for xi, _ in CLOSED_FORM_KINDS]
)
@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@example(-2.5, 1.3, 0.5, 1.0)  # a negative state, extinct inside the segment
@example(-0.0, 0.7, 0.3, 2.0)
def test_closed_form_matches_simpson(xi, integrand, x, delta, rho, kappa):
    closed = integrate_segment(xi, SCALAR.state([x]), delta, scalar_sg(kappa, rho)).value
    assert abs(closed - quad_segment_integral(x, kappa, rho, delta, **integrand)) <= 1e-9


def test_closed_form_matches_scipy_quad():
    sg = scalar_sg(1.3, 0.4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-3, 3)
        delta = rng.uniform(0.05, 4.0)
        ours = integrate_segment(NormV2(SCALAR), SCALAR.state([x]), delta, sg).value
        ref = quad_segment_integral(x, 1.3, 0.4, delta)
        assert abs(ours - ref) <= 1e-9


def test_shift_identity():
    sg = scalar_sg()
    state = SCALAR.state([0.8])
    base = NormV2(SCALAR)
    for w in (-1.0, 0.25, 3.0):
        a = integrate_segment(AffineShift(base, w), state, 1.7, sg).value
        b = integrate_segment(base, state, 1.7, sg).value + 1.7 * w
        assert a == pytest.approx(b, abs=1e-12)


def test_additivity_over_partition():
    sg = scalar_sg(0.9, 0.6)
    xi = NormV2(SCALAR)
    x0 = SCALAR.state([2.0])
    whole = integrate_segment(xi, x0, 2.0, sg).value
    t_mid = 0.7
    first = integrate_segment(xi, x0, t_mid, sg).value
    second = integrate_segment(xi, sg.evolve(x0, t_mid), 2.0 - t_mid, sg).value
    assert whole == pytest.approx(first + second, abs=1e-12)


def test_sublinearity_of_integral():
    # |int_0^d Xi| <= d * (c1 ||state||_V2 + c2): uses the V2 contraction
    sg = scalar_sg()
    rng = np.random.default_rng(3)
    functionals = [NormV2(SCALAR), IdentityV2(SCALAR), AffineShift(NormV2(SCALAR), 2.0)]
    for xi in functionals:
        for _ in range(100):
            state = SCALAR.state([rng.uniform(-3, 3)])
            delta = rng.uniform(0.01, 3.0)
            val = integrate_segment(xi, state, delta, sg).value
            bound = delta * (xi.c1 * state.norm_v2() + xi.c2)
            assert abs(val) <= bound + 1e-12


def test_deterministic_cycle_value():
    # beta = 3, eta = 1 cycle: integral 1/3, affine shift subtracts 3w
    sg = scalar_sg()
    xi = AffineShift(NormV2(SCALAR), -0.1)
    val = integrate_segment(xi, SCALAR.state([1.0]), 3.0, sg).value
    assert val == pytest.approx(1.0 / 3.0 - 0.3, abs=1e-14)


def grid_problem(n_cells=8, q=2.0, seed=0, eps_reg=1e-8):
    grid = Grid1D(n_cells, 1.0)
    rng = np.random.default_rng(seed)
    weights = WeightField.uniform(grid, 0.5, 2.0, rng)
    cfg = PLaplaceConfig(p=1.5, dt=1e-2, eps_reg=eps_reg)
    return PLaplaceSemigroup(grid, weights, cfg, q=q)


def test_mass_functional_exact_on_grid_flow():
    # mass is conserved, so the integrand is constant: value = mean * L * delta
    sg = grid_problem()
    rng = np.random.default_rng(4)
    state = sg.space.state(rng.normal(size=8))
    delta = 0.035
    val = integrate_segment(Linear.mass(sg.space), state, delta, sg).value
    assert val == pytest.approx(state.mean() * sg.grid.length * delta, abs=1e-11)


def test_grid_norm_segment_vs_refined():
    sg = grid_problem()
    state = project_zero_mean(sg.space.state(np.sin(2 * np.pi * sg.grid.centers())))
    xi = NormV2(sg.space)
    coarse = integrate_segment(xi, state, 0.05, sg).value
    fine = integrate_segment(
        xi, state, 0.05, sg, QuadratureConfig(tol=1e-12)
    ).value
    assert coarse == pytest.approx(fine, abs=1e-8)


def test_grid_identity_integral_linearity():
    # componentwise integral pairs with psi exactly like the scalar route
    sg = grid_problem()
    rng = np.random.default_rng(5)
    state = project_zero_mean(sg.space.state(rng.normal(size=8)))
    psi = rng.normal(size=8)
    vec = integrate_segment(IdentityV2(sg.space), state, 0.04, sg).value
    scal = integrate_segment(Linear(sg.space, psi), state, 0.04, sg).value
    # both routes are adaptive to 1e-9 per segment; node placement may differ
    assert scal == pytest.approx(float(np.dot(vec, psi)) * sg.space.h, abs=1e-8)


def test_extinction_breakpoint_on_grid_flow():
    # after the flow hits zero the tail contributes exactly the shift
    sg = grid_problem()
    state = project_zero_mean(
        sg.space.state(0.05 * np.sin(2 * np.pi * sg.grid.centers()))
    )
    _, _, extinct = sg.decay_trace(state, 10.0)
    assert extinct
    xi = AffineShift(NormV2(sg.space), 1.0)
    delta = 5.0
    val = integrate_segment(xi, state, delta, sg).value
    base = integrate_segment(NormV2(sg.space), state, delta, sg).value
    assert val == pytest.approx(base + delta, rel=1e-10)


def grid_functionals(space):
    return [
        NormV2(space),
        IdentityV2(space),
        Linear.mass(space),
        AffineShift(NormV2(space), -0.2),
        AffineShift(IdentityV2(space), np.linspace(-1.0, 1.0, space.dim)),
    ]


# (start state, segment length): off the dt grid, on it, and past extinction
GRID_SEGMENTS = {
    "off_grid": (lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x), 0.047),
    "on_grid": (lambda x: np.where(x < 0.5, 1.0, -0.5) + 0.2, 0.05),
    "extinct_tail": (lambda x: 0.01 * np.sin(2 * np.pi * x), 0.134),
}


@pytest.mark.parametrize("eps_reg", [1e-8, 0.0])
@pytest.mark.parametrize("where", sorted(GRID_SEGMENTS))
def test_grid_quadrature_matches_depth_first_oracle(where, eps_reg):
    # level-by-level nodes solved in batches give the recursion's value,
    # error and evaluation count bit for bit, also when a checkpoint
    # sub-segment and the whole step share one flow
    sg = grid_problem(eps_reg=eps_reg)
    profile, delta = GRID_SEGMENTS[where]
    state = sg.space.state(profile(sg.grid.centers()))
    if where == "extinct_tail":
        state = project_zero_mean(state)
        assert sg.segment_flow(state).extinction_breakpoint(delta) is not None
    flow = sg.segment_flow(state)
    for xi in grid_functionals(sg.space):
        for length in (0.6 * delta, delta):
            got = integrate_segment(xi, state, length, sg, flow=flow)
            value, err, n_evals = grid_simpson_reference(xi, state, length, sg)
            assert np.asarray(got.value).tobytes() == np.asarray(value).tobytes()
            assert got.abs_error_estimate == err
            assert got.n_evals == n_evals


def test_grid_budget_exceeded_exactly_where_the_recursion_exceeds():
    sg = grid_problem()
    state = sg.space.state(np.sin(2 * np.pi * sg.grid.centers()))
    xi = NormV2(sg.space)
    _, _, n_evals = grid_simpson_reference(xi, state, 0.047, sg)
    for cap in (4, n_evals // 2, n_evals - 1):
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_segment(xi, state, 0.047, sg, QuadratureConfig(max_evals=cap))
    res = integrate_segment(xi, state, 0.047, sg, QuadratureConfig(max_evals=n_evals))
    assert res.n_evals == n_evals
