import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regenjump.errors import DimensionMismatch
from regenjump.spaces import grid_space, project_zero_mean, scalar_space

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_scalar_norms_coincide():
    space = scalar_space()
    v = space.state([-2.5])
    assert v.norm_v() == v.norm_v1() == v.norm_v2() == 2.5


def test_grid_norms():
    space = grid_space(4, length=2.0, q=2.0)  # h = 0.5
    v = space.state([1.0, -1.0, 2.0, 0.0])
    assert v.norm_v() == pytest.approx(0.5 * 4.0)
    assert v.norm_v1() == pytest.approx(np.sqrt(0.5 * 6.0))
    assert v.norm_v2() == pytest.approx(np.sqrt(0.5 * 6.0))


def test_norm_v2_uses_q():
    space = grid_space(2, length=1.0, q=4.0)
    v = space.state([1.0, -2.0])
    expected = (0.5 * (1.0 + 16.0)) ** 0.25
    assert v.norm_v2() == pytest.approx(expected)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_stack_row_norms_equal_single_state_norms_bit_for_bit(q):
    rng = np.random.default_rng(23)
    for n in (2, 3, 7, 8, 9, 16, 31, 64, 127, 128, 129, 1000, 4096):
        space = grid_space(n, length=1.7, q=q)
        rows = rng.normal(size=(30, n)) * 10.0 ** rng.uniform(-12, 3, size=(30, 1))
        for rule, norm in ((space.l1, "norm_v"), (space.l2, "norm_v1"), (space.lq, "norm_v2")):
            for row, got in zip(rows, rule(rows)):
                assert got == rule(row) == getattr(space.state(row), norm)()


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -2.2e-310, 1e-170, -3.7, 1e300, -1.7e308])
def test_scalar_norms_are_abs_exactly(x):
    # sqrt(x*x) loses subnormal and huge x: the scalar norms are |x| itself
    space = scalar_space()
    for rule in (space.l1, space.l2, space.lq):
        assert rule(np.array([x])) == abs(x)
        assert rule(np.array([[x], [-x]])).tolist() == [abs(x), abs(x)]
    v = space.state([x])
    assert v.norm_v() == v.norm_v1() == v.norm_v2() == abs(x)
    if x in (5e-324, -2.2e-310, 1e-170, 1e300, -1.7e308):
        assert math.sqrt(x * x) != abs(x)


def test_zero_iff_norm_zero():
    space = grid_space(8)
    assert space.zero().norm_v() == 0.0
    v = space.state(np.zeros(8))
    v.values[3] = 1e-300
    assert space.state(v.values).norm_v() > 0.0


def test_nonfinite_rejected():
    space = scalar_space()
    with pytest.raises(ValueError):
        space.state([np.nan])
    with pytest.raises(ValueError):
        space.state([np.inf])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        grid_space(4).state([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        scalar_space().state([1.0, 2.0])


@pytest.mark.parametrize("bad", [dict(n_cells=1), dict(length=0.0), dict(q=0.5)])
def test_space_validation(bad):
    kwargs = dict(n_cells=4, length=1.0, q=2.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        grid_space(**kwargs)


def test_project_zero_mean_examples():
    space = grid_space(2)
    assert np.allclose(project_zero_mean(space.state([1.0, 3.0])).values, [-1.0, 1.0])
    const = space.state([4.0, 4.0])
    assert np.all(project_zero_mean(const).values == 0.0)


@given(st.lists(finite_floats, min_size=2, max_size=16))
def test_project_zero_mean_properties(vals):
    space = grid_space(len(vals))
    u = space.state(vals)
    p = project_zero_mean(u)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    assert abs(p.mean()) <= 1e-14 * scale
    # idempotent up to rounding
    p2 = project_zero_mean(p)
    assert np.max(np.abs(p2.values - p.values)) <= 1e-14 * scale


@given(finite_floats, finite_floats)
def test_scalar_add_sub(a, b):
    space = scalar_space()
    x, y = space.state([a]), space.state([b])
    assert (x + y).scalar == a + b
    assert (x - y).scalar == a - b
