import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats._ksstats import _kolmogn_Pomeranz

from regenjump import estimators
from regenjump.errors import DegenerateSigma, InsufficientCycles
from regenjump.estimators import (
    anscombe_check,
    clt_statistic,
    ks_test_normal,
    stats_from_moments,
)
from regenjump.process import CycleMoments

from _oracles import (
    add_cycle,
    autocorrelation,
    cycle_diagnostics,
    estimate_nu,
    estimate_Q,
    estimate_sigma2,
    stats_from_arrays,
)


def autocorr_band(diag):
    """The +-3/sqrt(n) acceptance band for the lag correlations."""
    return 3.0 / math.sqrt(diag.n_cycles)


def test_ratio_estimator_deterministic():
    s = np.full(100, 1.0 / 3.0)
    tau = np.full(100, 3.0)
    nu, se = estimate_nu(s, tau)
    assert nu == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert se <= 1e-16
    assert estimate_sigma2(s, tau, nu) <= 1e-30


def test_constant_functional_gives_nu_one():
    # Xi == 1: S_n = tau_n, so nu = 1 whatever the cycles
    rng = np.random.default_rng(0)
    tau = rng.uniform(0.5, 4.0, size=500)
    nu, se = estimate_nu(tau.copy(), tau)
    assert nu == pytest.approx(1.0, abs=1e-14)
    assert se == pytest.approx(0.0, abs=1e-15)


def test_sigma2_hand_example():
    # S_n - nu tau_n alternating +-1 with mean_tau = 2 -> sigma2 = 1/2
    n = 10
    tau = np.full(n, 2.0)
    nu = 0.7
    resid = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    s = nu * tau + resid
    assert estimate_sigma2(s, tau, nu) == pytest.approx(0.5)


def test_estimate_nu_needs_cycles():
    with pytest.raises(InsufficientCycles):
        estimate_nu(np.array([1.0]), np.array([1.0]))


def test_vector_nu_and_q():
    rng = np.random.default_rng(1)
    n, d = 4000, 3
    tau = rng.uniform(1.0, 3.0, size=n)
    noise = rng.normal(size=(n, d))
    target = np.array([0.5, -1.0, 2.0])
    s = target[None, :] * tau[:, None] + noise
    nu, se = estimate_nu(s, tau)
    assert np.max(np.abs(nu - target)) <= 4 * np.max(se) + 0.05
    q = estimate_Q(s, tau, nu, h=1.0)
    assert q.shape == (d, d)
    assert np.allclose(q, q.T)
    assert np.min(np.linalg.eigvalsh(q)) >= -1e-10


def test_q_deterministic_cycles_zero():
    tau = np.full(50, 2.0)
    s = np.tile([0.4, 0.8], (50, 1)) * tau[:, None]
    nu, _ = estimate_nu(s, tau)
    q = estimate_Q(s, tau, nu, h=1.0)
    assert np.max(np.abs(q)) <= 1e-28


def test_q_dimension_one_equals_sigma2():
    rng = np.random.default_rng(2)
    tau = rng.uniform(0.5, 2.0, size=300)
    s = 0.3 * tau + rng.normal(size=300)
    nu, _ = estimate_nu(s, tau)
    sigma2 = estimate_sigma2(s, tau, nu)
    q = estimate_Q(s[:, None], tau, np.array([nu]), h=1.0)
    assert q[0, 0] == pytest.approx(sigma2, rel=1e-12)


def test_q_projection_consistency():
    rng = np.random.default_rng(3)
    n, d = 500, 8
    h = 1.0 / d
    tau = rng.uniform(0.5, 2.0, size=n)
    s = rng.normal(size=(n, d)) * tau[:, None]
    nu, _ = estimate_nu(s, tau)
    q = estimate_Q(s, tau, nu, h=h)
    for _ in range(10):
        psi = rng.normal(size=d)
        s_proj = (s @ psi) * h
        nu_proj = float(np.dot(nu, psi)) * h
        sigma2 = estimate_sigma2(s_proj, tau, nu_proj)
        assert psi @ q @ psi == pytest.approx(sigma2, abs=1e-8 * max(1.0, sigma2))


def test_stats_from_moments_matches_arrays():
    rng = np.random.default_rng(4)
    tau = rng.uniform(0.5, 3.0, size=1000)
    s = 0.25 * tau + rng.normal(size=1000) * 0.3
    arr = stats_from_arrays(s, tau)
    m = CycleMoments(labels=["f"])
    for si, ti in zip(s, tau):
        add_cycle(m, float(ti), {"f": float(si)})
    mom = stats_from_moments(m, "f")
    assert mom.nu_hat == pytest.approx(arr.nu_hat, rel=1e-12)
    assert mom.sigma2_hat == pytest.approx(arr.sigma2_hat, rel=1e-9)
    assert mom.se_nu == pytest.approx(arr.se_nu, rel=1e-9)
    assert mom.mean_tau == pytest.approx(arr.mean_tau, rel=1e-14)


def test_vector_stats_from_moments_match_columns():
    # the cycles of test_vector_nu_and_q, through the moment route
    rng = np.random.default_rng(1)
    n, d = 4000, 3
    tau = rng.uniform(1.0, 3.0, size=n)
    s = np.array([0.5, -1.0, 2.0])[None, :] * tau[:, None] + rng.normal(size=(n, d))
    m = CycleMoments(labels=["f"])
    for si, ti in zip(s, tau):
        add_cycle(m, float(ti), {"f": si})
    mom = stats_from_moments(m, "f")
    nu, se = estimate_nu(s, tau)
    q = estimate_Q(s, tau, nu, h=1.0)
    assert mom.nu_hat.shape == mom.se_nu.shape == (d,) and mom.sigma2_hat.shape == (d, d)
    np.testing.assert_allclose(mom.nu_hat, nu, rtol=1e-12)
    np.testing.assert_allclose(mom.se_nu, se, rtol=1e-9)
    assert np.max(np.abs(mom.sigma2_hat - q)) <= 1e-12 * np.max(np.abs(q))


def test_clt_statistic_trivials():
    assert clt_statistic(9.0, 9.0, 1.0) == 0.0
    assert clt_statistic(5.0, 25.0, 0.2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        clt_statistic(1.0, 0.0, 1.0)


def test_ks_normal_self_consistency():
    passes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 1.0, size=10**4)
        if ks_test_normal(samples, 1.0).passed:
            passes += 1
    assert passes >= 99


def test_ks_normal_rejects_constant():
    report = ks_test_normal(np.zeros(500) + 0.5, 1.0)
    assert not report.passed
    assert report.p_value < 1e-6


def test_ks_normal_scale_sensitivity():
    rng = np.random.default_rng(12)
    samples = rng.normal(0.0, 2.0, size=10**4)
    assert ks_test_normal(samples, 2.0).passed
    assert not ks_test_normal(samples, 1.0).passed


KS_SIZES = [100, 140, 141, 400, 1000, 2000, 10000]


def ks_grid(n):
    """d from 1/(2n) to 1, with the branch boundaries of scipy and of the package."""
    edges = [1 / n, 1.4 ** (2 / 3) / n ** (2 / 3), math.sqrt(2.2 / n), math.sqrt(4 / n), 0.5]
    d = np.concatenate([np.geomspace(0.5 / n, 1.0, 40), edges, np.nextafter(edges, 0.0)])
    return sorted(set(np.clip(d, 0.5 / n, 1.0).tolist()))


def pelz_good(n, d):
    # the one region where scipy's kstwo.sf is an approximation (Pelz-Good)
    return n > 140 and n * d**1.5 > 1.4 and n * d * d < 2.2 and d < 0.5


@pytest.mark.parametrize("n", KS_SIZES)
def test_kolmogorov_sf_matches_scipy(n):
    # scipy is exact (Durbin matrix, Pomeranz, closed forms) or uses the same
    # Miller tail everywhere but the Pelz-Good region
    for d in ks_grid(n):
        got, want = estimators._kolmogorov_sf(n, d), float(sps.kstwo.sf(d, n))
        tol = 1e-10
        if pelz_good(n, d):  # its own error, 2.2e-5 at n = 141 (see the Pomeranz test)
            tol = 3e-5 if n == 141 else 1e-5
        assert got == pytest.approx(want, rel=tol, abs=1e-300), d


@pytest.mark.parametrize("n", [141, 400])
def test_kolmogorov_sf_is_exact_where_scipy_approximates(n):
    # against scipy's exact Pomeranz recursion, which kstwo uses only for
    # n <= 140; by n = 1000 the recursion's own rounding reaches 1e-9
    ds = [d for d in ks_grid(n) if pelz_good(n, d)]
    assert ds
    for d in ds:
        want = 1.0 - float(_kolmogn_Pomeranz(n, d))
        assert estimators._kolmogorov_sf(n, d) == pytest.approx(want, rel=1e-10), d


def test_ks_statistic_and_verdict_match_scipy():
    rng = np.random.default_rng(2025)
    for _ in range(60):
        n = int(rng.integers(100, 3000))
        sigma = float(rng.uniform(0.2, 3.0))
        samples = rng.normal(rng.normal(0.0, 0.1), sigma * rng.uniform(0.9, 1.1), size=n)
        report = ks_test_normal(samples, sigma)
        want = sps.kstest(samples, "norm", args=(0.0, sigma))
        assert report.statistic == pytest.approx(want.statistic, rel=0, abs=1e-15)
        assert report.passed == (want.pvalue > report.alpha)


def test_ks_large_distance_builds_no_large_matrix(monkeypatch):
    # n d^2 >= 2.2 takes the one-sided tail; the Durbin matrix, of size
    # 2 n d + 1, is built only below that
    calls = []
    durbin = estimators._durbin_cdf

    def spy(n, d):
        calls.append(n * d * d)
        return durbin(n, d)

    monkeypatch.setattr(estimators, "_durbin_cdf", spy)
    report = ks_test_normal(np.zeros(10**4), 1.0)
    assert report.statistic == 0.5
    assert report.p_value == float(sps.kstwo.sf(0.5, 10**4))
    assert not report.passed
    ks_test_normal(np.random.default_rng(3).normal(size=10**4), 1.0)
    assert calls and all(x < 2.2 for x in calls)


def test_ks_normal_fails_nan_samples():
    samples = np.random.default_rng(4).normal(size=200)
    samples[7] = np.nan
    report = ks_test_normal(samples, 1.0)
    assert math.isnan(report.p_value) and not report.passed


def test_ks_normal_degenerate_sigma():
    with pytest.raises(DegenerateSigma):
        ks_test_normal(np.zeros(200), 0.0)


def test_ks_normal_needs_samples():
    with pytest.raises(InsufficientCycles):
        ks_test_normal(np.zeros(50), 1.0)


def test_autocorrelation_ar1():
    rng = np.random.default_rng(5)
    n = 20000
    z = np.empty(n)
    z[0] = rng.normal()
    for i in range(1, n):
        z[i] = 0.5 * z[i - 1] + rng.normal()
    r = autocorrelation(z, 3)
    assert r[0] == pytest.approx(0.5, abs=0.03)
    assert r[1] == pytest.approx(0.25, abs=0.03)


def test_diagnostics_iid_calibration():
    # lag-1 inside the 3/sqrt(n) band for at least 99% of seeds
    n = 2000
    hits = 0
    seeds = 200
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        s = rng.exponential(size=n)
        tau = rng.uniform(1.0, 2.0, size=n)
        diag = cycle_diagnostics(s, tau)
        band = autocorr_band(diag)
        if abs(diag.lag_autocorr_s[0]) <= band:
            hits += 1
    assert hits >= 0.99 * seeds


def test_diagnostics_detect_ar1():
    rng = np.random.default_rng(6)
    n = 5000
    s = np.empty(n)
    s[0] = rng.normal()
    for i in range(1, n):
        s[i] = 0.5 * s[i - 1] + rng.normal()
    tau = rng.uniform(1.0, 2.0, size=n)
    diag = cycle_diagnostics(s, tau)
    assert abs(diag.lag_autocorr_s[0]) > autocorr_band(diag)
    assert diag.lag_pvalues_s[0] < 0.01


def test_diagnostics_halves_ks_detects_shift():
    rng = np.random.default_rng(7)
    n = 4000
    s = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(1.0, 1, n // 2)])
    tau = rng.uniform(1.0, 2.0, size=n)
    diag = cycle_diagnostics(s, tau)
    assert not diag.halves_s.passed


def test_diagnostics_degenerate():
    s = np.full(300, 1.0 / 3.0)
    tau = np.full(300, 3.0)
    diag = cycle_diagnostics(s, tau)
    assert diag.degenerate
    assert diag.halves_s is None


def test_diagnostics_needs_cycles():
    with pytest.raises(InsufficientCycles):
        cycle_diagnostics(np.zeros(100), np.ones(100))


def test_anscombe_calibration_deterministic_count():
    # N == theta with iid Gaussian summands: exact normal at every n
    rng = np.random.default_rng(8)
    mean_tau = 2.0
    sigma2 = 1.3
    theta = 400
    t = theta * mean_tau
    # S_k - nu tau_k = y_k with nu = 0, tau absorbed in the variance
    y = rng.normal(0.0, math.sqrt(sigma2 * mean_tau), size=(2000, theta))
    sum_s, sum_tau = np.sum(y, axis=1), np.zeros(2000)
    report = anscombe_check(sum_s, sum_tau, t, nu=0.0, sigma2=sigma2, mean_tau=mean_tau)
    assert report.passed


def test_anscombe_statistics_shapes(monkeypatch):
    # the normalized sums anscombe_check hands to its KS test
    seen = []
    monkeypatch.setattr(estimators, "ks_test_normal", lambda *args, **kw: seen.append(args))
    sum_s, sum_tau = np.array([1.0, 0.5]), np.array([2.0, 1.0])
    anscombe_check(sum_s, sum_tau, 10.0, nu=0.25, sigma2=1.0, mean_tau=2.0)
    ((out, sigma),) = seen
    assert sigma == math.sqrt(2.0)
    theta = 10.0 / 2.0
    assert out.shape == (2,)
    assert out[0] == pytest.approx((1.0 - 0.25 * 2.0) / math.sqrt(theta))
