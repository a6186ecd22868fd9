import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regenjump.semigroup import ExtinctionParams, ScalarPowerLaw, axiom_residuals
from regenjump.spaces import scalar_space

SPACE = scalar_space()

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
rhos = st.sampled_from([0.25, 0.5, 0.75])
kappas = st.sampled_from([0.5, 1.0, 2.0])


def make(kappa=1.0, rho=0.5):
    return ScalarPowerLaw(ExtinctionParams(kappa, rho), SPACE)


def test_evolve_examples():
    sg = make(1.0, 0.5)
    assert sg.evolve(SPACE.state([1.0]), 0.0).scalar == 1.0
    assert sg.evolve(SPACE.state([1.0]), 0.25).scalar == pytest.approx(0.5625, abs=1e-15)
    assert sg.evolve(SPACE.state([1.0]), 2.0).scalar == 0.0


def test_extinction_time_examples():
    # |x|**rho / kappa = 1 for both: alive just before, exactly zero at it
    for kappa, x in ((1.0, 1.0), (2.0, 4.0)):
        assert make(kappa, 0.5).evolve_scalar(x, 1.0 - 1e-9) > 0.0
        assert make(kappa, 0.5).evolve_scalar(x, 1.0) == 0.0
    assert make(1.0, 0.5).evolve_scalar(0.0, 1e-9) == 0.0


@given(values, times, kappas, rhos)
def test_extinction_bound_is_equality(x, t, kappa, rho):
    sg = make(kappa, rho)
    out = sg.evolve_scalar(x, t)
    bound = max(abs(x) ** rho - kappa * t, 0.0)
    assert abs(abs(out) ** rho - bound) <= 1e-12


@given(values, times, kappas, rhos)
def test_zero_at_extinction_time(x, t, kappa, rho):
    sg = make(kappa, rho)
    t_star = abs(x) ** rho / kappa
    assert sg.evolve_scalar(x, t_star + t) == 0.0


@given(values, times, times, kappas, rhos)
def test_semigroup_property(x, t, s, kappa, rho):
    sg = make(kappa, rho)
    both = sg.evolve_scalar(x, t + s)
    composed = sg.evolve_scalar(sg.evolve_scalar(x, s), t)
    assert abs(both - composed) <= 1e-12 * max(1.0, abs(x))


@given(values, values, times, kappas, rhos)
def test_contraction(x, y, t, kappa, rho):
    sg = make(kappa, rho)
    after = abs(sg.evolve_scalar(x, t) - sg.evolve_scalar(y, t))
    assert after <= abs(x - y) + 1e-12 * max(1.0, abs(x), abs(y))


@given(values, times, kappas, rhos)
def test_sign_preserved_and_magnitude_shrinks(x, t, kappa, rho):
    sg = make(kappa, rho)
    out = sg.evolve_scalar(x, t)
    assert abs(out) <= abs(x)
    if out != 0.0:
        assert np.sign(out) == np.sign(x)


@given(values, kappas, rhos)
def test_monotone_decay_on_time_grid(x, kappa, rho):
    sg = make(kappa, rho)
    norms = [abs(sg.evolve_scalar(x, t)) for t in np.linspace(0.0, 3.0, 20)]
    assert all(a >= b - 1e-15 for a, b in zip(norms, norms[1:]))


def test_evolve_at_zero_is_identity_object():
    sg = make()
    v = SPACE.state([0.3])
    assert sg.evolve(v, 0.0) is v


def assert_within(rows, tol):
    # the maxima over axiom_residuals rows; the contraction residual is signed
    for column in ("semigroup_residual", "contraction_residual", "identity_residual"):
        assert max(row[column] for row in rows) <= tol


def test_axiom_report_scalar_exact():
    sg = make(1.3, 0.4)
    rng = np.random.default_rng(42)
    samples = [
        (
            SPACE.state([rng.uniform(-5, 5)]),
            SPACE.state([rng.uniform(-5, 5)]),
            rng.uniform(0, 3),
            rng.uniform(0, 3),
        )
        for _ in range(200)
    ]
    rows = [axiom_residuals(sg, *q)[0] for q in samples]
    assert_within(rows, 1e-12)
    assert len(rows) == 200


def test_axiom_report_triples():
    # one sample with u = 0
    sg = make()
    rows = [axiom_residuals(sg, SPACE.zero(), SPACE.state([1.0]), 0.5, 0.25)[0]]
    assert_within(rows, 1e-12)


@pytest.mark.parametrize("kappa,rho", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0)])
def test_params_validated(kappa, rho):
    with pytest.raises(ValueError):
        ExtinctionParams(kappa, rho)
