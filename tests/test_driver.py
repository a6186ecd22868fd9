import math

import numpy as np
import pytest
from scipy import stats as sps

from regenjump.driver import (
    _Z99,
    BetaLaw,
    DriverConfig,
    EtaLaw,
    KICK_BLOCK_ROWS,
    check_drift_condition,
    derive_replicate_rng,
    grid_kick_norms,
)
from regenjump.errors import ConfigError
from regenjump.plaplace import Grid1D, PLaplaceConfig, PLaplaceSemigroup, WeightField
from regenjump.process import ExtinctionPolicy
from regenjump.runner import ExperimentSetup, validate_moment_sanity
from regenjump.semigroup import ExtinctionParams, ScalarPowerLaw
from regenjump.spaces import grid_space, scalar_space

SCALAR = scalar_space()


def test_deterministic_beta():
    law = BetaLaw.deterministic(3.0)
    rng = derive_replicate_rng(1, 0, 0)
    assert all(law.sample(rng) == 3.0 for _ in range(5))
    assert law.mean() == 3.0


def test_degenerate_uniform_beta():
    law = BetaLaw.uniform(1.0, 1.0)
    rng = derive_replicate_rng(1, 0, 0)
    assert law.sample(rng) == 1.0


def test_exponential_mean_lln():
    law = BetaLaw.exponential(2.0)
    rng = derive_replicate_rng(7, 0, 0)
    draws = law.sample_block(rng, 10**6)
    assert np.mean(draws) == pytest.approx(0.5, abs=2e-3)
    assert np.all(draws > 0)


def test_gamma_mean():
    law = BetaLaw.gamma(2.0, 1.5)
    assert law.mean() == 3.0
    rng = derive_replicate_rng(7, 0, 0)
    draws = law.sample_block(rng, 10**5)
    assert np.mean(draws) == pytest.approx(3.0, rel=0.02)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: BetaLaw.deterministic(0.0),
        lambda: BetaLaw.uniform(0.0, 1.0),
        lambda: BetaLaw.uniform(2.0, 1.0),
        lambda: BetaLaw.exponential(0.0),
        lambda: BetaLaw.gamma(0.0, 1.0),
        lambda: BetaLaw("cauchy"),
        lambda: EtaLaw("levy"),
        lambda: EtaLaw.scalar_uniform(-1.0),
        lambda: EtaLaw.grid_bumps(0, 1.0, (0.1, 0.2)),
        lambda: EtaLaw.grid_bumps(2, 1.0, (0.3, 0.2)),
    ],
)
def test_law_validation(bad):
    with pytest.raises(ConfigError):
        bad()


def test_scalar_uniform_zero_amp():
    law = EtaLaw.scalar_uniform(0.0)
    rng = derive_replicate_rng(1, 0, 1)
    assert law.sample(rng, SCALAR).scalar == 0.0
    assert law.is_zero


def test_scalar_constant_eta():
    law = EtaLaw.scalar_constant(1.0)
    rng = derive_replicate_rng(1, 0, 1)
    assert law.sample(rng, SCALAR).scalar == 1.0
    assert law.is_deterministic


def test_scalar_uniform_half_moment():
    # E |U[-1,1]|^0.5 = 2/3
    rng = derive_replicate_rng(11, 0, 1)
    draws = rng.uniform(-1.0, 1.0, size=10**6)
    assert np.mean(np.abs(draws) ** 0.5) == pytest.approx(2.0 / 3.0, abs=5e-3)


def test_grid_bumps_zero_mean_and_bounded():
    space = grid_space(32, length=1.0)
    law = EtaLaw.grid_bumps(3, 1.0, (0.05, 0.2))
    rng = derive_replicate_rng(5, 0, 1)
    for _ in range(50):
        eta = law.sample(rng, space)
        assert abs(eta.mean()) <= 1e-14
        assert np.max(np.abs(eta.values)) <= 2 * 3 * 1.0  # bumps plus mean shift


def test_eta_space_mismatch():
    rng = derive_replicate_rng(1, 0, 1)
    with pytest.raises(ConfigError):
        EtaLaw.scalar_uniform(1.0).sample(rng, grid_space(4))
    with pytest.raises(ConfigError):
        EtaLaw.grid_bumps(1, 1.0, (0.1, 0.2)).sample(rng, SCALAR)
    with pytest.raises(ConfigError):
        next(EtaLaw.scalar_uniform(1.0).sample_blocks(rng, grid_space(4), 1))


def kicks_one_at_a_time(law, rng, space, n):
    """The per-draw grid_bumps loop: the oracle for the block sampler."""
    x = (np.arange(space.n_cells) + 0.5) * space.h
    rows = []
    for _ in range(n):
        out = np.zeros(space.n_cells)
        for _ in range(law.n_bumps):
            center = rng.uniform(0.0, space.length)
            width = rng.uniform(law.width_low, law.width_high)
            amp = rng.uniform(-law.amp_max, law.amp_max)
            out += amp * np.exp(-0.5 * ((x - center) / width) ** 2)
        rows.append(out - np.mean(out))
    return np.array(rows)


GRID_BUMPS = EtaLaw.grid_bumps(2, 0.6, (0.05, 0.2))


@pytest.mark.parametrize("seed", [5, 20250811])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 10000])
def test_kick_blocks_match_one_at_a_time(n, seed):
    space = grid_space(16)
    rng_blocks = derive_replicate_rng(seed, 0, 101)
    rng_loop = derive_replicate_rng(seed, 0, 101)
    blocks = list(GRID_BUMPS.sample_blocks(rng_blocks, space, n))
    assert [b.shape[0] for b in blocks[:-1]] == [KICK_BLOCK_ROWS] * (len(blocks) - 1)
    ref = kicks_one_at_a_time(GRID_BUMPS, rng_loop, space, n)
    assert np.concatenate(blocks).tobytes() == ref.tobytes()
    assert repr(rng_blocks.bit_generator.state) == repr(rng_loop.bit_generator.state)


def test_sample_values_matches_one_at_a_time():
    space = grid_space(32, length=2.0)
    law = EtaLaw.grid_bumps(3, 1.0, (0.05, 0.2))
    rng = derive_replicate_rng(9, 0, 1)
    got = np.array([law.sample_values(rng, space) for _ in range(20)])
    ref = kicks_one_at_a_time(law, derive_replicate_rng(9, 0, 1), space, 20)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "law",
    [
        BetaLaw.deterministic(0.7),
        BetaLaw.uniform(0.2, 1.5),
        BetaLaw.exponential(1.3),
        BetaLaw.gamma(0.6, 0.5),  # shape below 1 takes another sampler branch
        BetaLaw.gamma(2.5, 0.4),
        EtaLaw.scalar_uniform(1.0),
        EtaLaw.scalar_constant(0.4),
    ],
    ids=lambda law: f"{law.kind}",
)
def test_scalar_blocks_are_block_invariant(law):
    # the scalar backend draws its inputs in windows of varying size, so n
    # values must not depend on how the draws are split
    whole_rng = derive_replicate_rng(11, 0, 0)
    parts_rng = derive_replicate_rng(11, 0, 0)
    single_rng = derive_replicate_rng(11, 0, 0)
    whole = law.sample_block(whole_rng, 10_000)
    sizes = [1, 63, 4096, 0, 1, 2500, 3339]
    parts = np.concatenate([law.sample_block(parts_rng, m) for m in sizes])
    singles = np.concatenate([law.sample_block(single_rng, 1) for _ in range(10_000)])
    assert parts.tobytes() == whole.tobytes() == singles.tobytes()
    state = repr(whole_rng.bit_generator.state)
    assert repr(parts_rng.bit_generator.state) == state
    assert repr(single_rng.bit_generator.state) == state


def test_eta_sample_block_is_scalar_only():
    with pytest.raises(ConfigError):
        GRID_BUMPS.sample_block(derive_replicate_rng(1, 0, 1), 4)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_grid_kick_norms_match_state_norms(q):
    space = grid_space(16, q=q)
    rng = derive_replicate_rng(3, 0, 103)
    kicks = kicks_one_at_a_time(GRID_BUMPS, derive_replicate_rng(3, 0, 103), space, 1500)
    v1 = grid_kick_norms(GRID_BUMPS, rng, space, 1500, "v1")
    assert v1 == [space.state(k).norm_v1() for k in kicks]
    rng = derive_replicate_rng(3, 0, 103)
    v2 = grid_kick_norms(GRID_BUMPS, rng, space, 1500, "v2")
    assert v2 == [space.state(k).norm_v2() for k in kicks]


def test_drift_grid_matches_one_at_a_time():
    space = grid_space(16)
    cfg = DriverConfig(BetaLaw.uniform(0.3, 0.7), GRID_BUMPS, 20250811)
    kappa, rho, n_mc = 2.0, 0.5, 10**4
    report = check_drift_condition(cfg, kappa, rho, n_mc, space)
    betas = cfg.beta.sample_block(derive_replicate_rng(cfg.master_seed, 0, 100), n_mc)
    kicks = kicks_one_at_a_time(
        cfg.eta, derive_replicate_rng(cfg.master_seed, 0, 101), space, n_mc
    )
    terms = -kappa * betas + np.array([space.state(k).norm_v1() ** rho for k in kicks])
    assert report.lhs_estimate == float(np.mean(terms))
    assert report.ci_halfwidth == _Z99 * float(np.std(terms, ddof=1)) / math.sqrt(n_mc)


@pytest.mark.parametrize("seed, rho", [(7, 0.7), (11, 0.45)])
def test_drift_scalar_matches_one_at_a_time(seed, rho):
    # np.power's SIMD route moves a few of these terms by an ulp, and with
    # them the mean; the powers must be those of Python's float **
    cfg = DriverConfig(BetaLaw.uniform(0.3, 0.7), EtaLaw.scalar_uniform(1.5), seed)
    kappa, n_mc = 2.0, 10**5
    report = check_drift_condition(cfg, kappa, rho, n_mc, SCALAR)
    betas = cfg.beta.sample_block(derive_replicate_rng(seed, 0, 100), n_mc)
    draws = derive_replicate_rng(seed, 0, 101).uniform(-1.5, 1.5, size=n_mc)
    terms = -kappa * betas + np.array([abs(d) ** rho for d in draws.tolist()])
    assert report.lhs_estimate == float(np.mean(terms))
    assert report.ci_halfwidth == _Z99 * float(np.std(terms, ddof=1)) / math.sqrt(n_mc)


@pytest.mark.parametrize("seed", [1, 3])
def test_moment_sanity_scalar_matches_one_at_a_time(seed):
    driver = DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.3), seed)
    sg = ScalarPowerLaw(ExtinctionParams(1.0, 0.5), SCALAR)
    got = validate_moment_sanity(ExperimentSetup(sg, driver, ExtinctionPolicy(), []), 10)
    draws = driver.eta.sample_block(derive_replicate_rng(seed, 0, 103), 2048)
    assert got["eta_v2_moment_4"] == float(np.mean([abs(d) ** 4 for d in draws.tolist()]))


@pytest.mark.parametrize("seed", [1, 6])
def test_moment_sanity_grid_matches_one_at_a_time(seed):
    grid = Grid1D(16, 1.0)
    sg = PLaplaceSemigroup(grid, WeightField.constant(grid, 1.0), PLaplaceConfig(p=1.5))
    driver = DriverConfig(BetaLaw.uniform(0.1, 0.4), GRID_BUMPS, seed)
    got = validate_moment_sanity(ExperimentSetup(sg, driver, ExtinctionPolicy(), []), 10)
    kicks = kicks_one_at_a_time(GRID_BUMPS, derive_replicate_rng(seed, 0, 103), sg.space, 2048)
    norms = [sg.space.state(k).norm_v2() for k in kicks]
    assert got["eta_v2_moment_4"] == float(np.mean([v**4 for v in norms]))


def test_stream_determinism_and_separation():
    a1 = derive_replicate_rng(42, 0, 0).random(8)
    a2 = derive_replicate_rng(42, 0, 0).random(8)
    b = derive_replicate_rng(42, 1, 0).random(8)
    c = derive_replicate_rng(42, 0, 1).random(8)
    assert np.all(a1 == a2)
    assert a1[0] != b[0]
    assert a1[0] != c[0]


def test_stream_uniformity_ks():
    # first draws across 10^4 replicate streams look uniform
    first = np.array([derive_replicate_rng(42, k, 0).random() for k in range(10**4)])
    _, p = sps.kstest(first, "uniform")
    assert p > 0.01


def test_beta_eta_streams_disjoint():
    # changing the eta law never perturbs the beta sequence
    cfg_a = DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.0), 99)
    cfg_b = DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(2.5), 99)
    betas_a = cfg_a.beta.sample_block(cfg_a.streams(0).beta_rng, 64)
    betas_b = cfg_b.beta.sample_block(cfg_b.streams(0).beta_rng, 64)
    assert np.all(betas_a == betas_b)


def test_drift_exact_cases():
    space = SCALAR
    ok = check_drift_condition(
        DriverConfig(BetaLaw.deterministic(3.0), EtaLaw.scalar_constant(1.0), 1),
        kappa=1.0, rho=0.5, n_mc=10**4, space=space,
    )
    assert ok.exact and ok.ci_halfwidth == 0.0
    assert ok.lhs_estimate == pytest.approx(-2.0)
    assert ok.ok

    bad = check_drift_condition(
        DriverConfig(BetaLaw.deterministic(0.5), EtaLaw.scalar_constant(1.0), 1),
        kappa=1.0, rho=0.5, n_mc=10**4, space=space,
    )
    assert bad.lhs_estimate == pytest.approx(0.5)
    assert not bad.ok


def test_drift_monte_carlo():
    # beta ~ Exp(1), eta ~ U[-1,1]: lhs = -1 + 2/3 = -1/3
    report = check_drift_condition(
        DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.0), 123),
        kappa=1.0, rho=0.5, n_mc=10**5, space=SCALAR,
    )
    assert not report.exact
    assert report.lhs_estimate == pytest.approx(-1.0 / 3.0, abs=0.02)
    assert report.ok
    assert abs(report.lhs_estimate + 1.0 / 3.0) <= 2 * report.ci_halfwidth


def test_drift_grid_backend():
    space = grid_space(16)
    report = check_drift_condition(
        DriverConfig(
            BetaLaw.uniform(0.5, 1.5), EtaLaw.grid_bumps(2, 0.5, (0.05, 0.2)), 7
        ),
        kappa=2.0, rho=0.5, n_mc=10**4, space=space,
    )
    assert report.ok  # kappa*E beta = 2 dominates E||eta||^0.5 < 1


def test_drift_needs_enough_samples():
    with pytest.raises(ConfigError):
        check_drift_condition(
            DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.0), 1),
            kappa=1.0, rho=0.5, n_mc=100, space=SCALAR,
        )


def test_moment_sanity_against_analytic():
    # 12th moment of Exp(rate): 12! / rate^12; 4th moment of |U[-a,a]|: a^4/5
    rng = derive_replicate_rng(3, 0, 0)
    draws = BetaLaw.exponential(1.0).sample_block(rng, 10**5)
    m12 = np.mean(draws**12)
    import math

    exact = math.factorial(12)
    # heavy-ish tail: just demand finiteness and the right order of magnitude
    assert np.isfinite(m12)
    assert 0.01 * exact < m12 < 100 * exact
    rng2 = derive_replicate_rng(3, 0, 1)
    etas = rng2.uniform(-2.0, 2.0, size=10**5)
    m4 = np.mean(etas**4)
    se = np.std(etas**4) / np.sqrt(10**5)
    assert abs(m4 - 2.0**4 / 5.0) <= 3 * se
