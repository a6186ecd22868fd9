"""Renewal-reward estimators and the statistical verification tests.

The long-run time average of a functional equals the ratio of cycle means,
so the point estimate is the ratio estimator ``nu_hat = sum S_n / sum tau_n``
with a delta-method standard error.  The fluctuation variance is

    ``sigma2_hat = (1 / mean_tau) * mean((S_n - nu * tau_n)^2)``

and, for vector-valued functionals, the matrix of the same second moments.
One route estimates both kinds: ``stats_from_moments`` reads them off the
cycle moments that every estimation run accumulates.

Distribution checks are one-sample Kolmogorov-Smirnov tests at a configured
significance level; zero-variance configurations are first-class and raise
DegenerateSigma (the limit is a point mass, not a failure).  The KS statistic
and its p-value are computed here with numpy and ``math``, so no study
loads ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSigma, InsufficientCycles

__all__ = [
    "CycleStats",
    "TestReport",
    "stats_from_moments",
    "clt_statistic",
    "ks_test_normal",
    "anscombe_check",
]


@dataclass
class CycleStats:
    """Point estimates from one batch of cycles for one functional.

    For a vector-valued functional ``mean_s``, ``nu_hat`` and ``se_nu`` are
    arrays (d,) and ``sigma2_hat`` is the (d, d) fluctuation matrix.
    """

    n_cycles: int
    mean_s: object
    mean_tau: float
    nu_hat: object
    se_nu: object
    sigma2_hat: object = None


def stats_from_moments(moments, label: str) -> CycleStats:
    """Statistics for one functional from accumulated cycle moments.

    Algebraically identical to the array route:
    sum (S - nu tau)^2 = sum S^2 - 2 nu sum(S tau) + nu^2 sum tau^2.
    The subtraction cancels; residual variation below 1e-13 of the raw
    second-moment scale is rounding noise and is clamped to exactly zero
    (degenerate configurations must report a zero variance, not noise).

    A vector-valued label's sums are arrays, and its residual matrix
    sum (S - nu tau)(S - nu tau)^T is formed the same way, as
    S_ss - nu S_stau^T - S_stau nu^T + nu nu^T S_tautau, without the clamp:
    ``sigma2_hat`` is that matrix / n / mean_tau, and ``se_nu`` is read off
    its diagonal.
    """
    n = moments.n
    if n < 2:
        raise InsufficientCycles("need at least 2 cycles")
    sum_s = moments.sum_s[label]
    sum_tau = moments.sum_tau
    nu = sum_s / sum_tau
    mean_tau = sum_tau / n
    if np.ndim(sum_s):
        s_tau = moments.sum_s_tau[label]
        resid = (
            moments.sum_s2[label]
            - np.outer(nu, s_tau)
            - np.outer(s_tau, nu)
            + np.outer(nu, nu) * moments.sum_tau2
        )
        # rounding may leave a zero diagonal entry just below 0
        se = np.sqrt(np.maximum(np.diag(resid), 0.0) / n / n) / mean_tau
        return CycleStats(n, sum_s / n, mean_tau, nu, se, resid / n / mean_tau)
    raw_scale = moments.sum_s2[label] + nu * nu * moments.sum_tau2
    ss_resid = (
        moments.sum_s2[label]
        - 2.0 * nu * moments.sum_s_tau[label]
        + nu * nu * moments.sum_tau2
    )
    if ss_resid <= 1e-13 * raw_scale:
        ss_resid = 0.0
    sigma2 = (ss_resid / n) / mean_tau
    se = math.sqrt(ss_resid / n / n) / mean_tau
    return CycleStats(
        n_cycles=n,
        mean_s=sum_s / n,
        mean_tau=mean_tau,
        nu_hat=nu,
        se_nu=se,
        sigma2_hat=sigma2,
    )


def clt_statistic(integral, t: float, nu):
    """Normalized centered path integral (I_t - t * nu) / sqrt(t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return (integral - t * nu) / math.sqrt(t)


@dataclass
class TestReport:
    """Outcome of one distribution test at a fixed significance level."""

    statistic: float
    p_value: float
    n_samples: int
    passed: bool
    alpha: float
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n_samples": self.n_samples,
            "passed": self.passed,
            "alpha": self.alpha,
            "note": self.note,
        }


_SQRT1_2 = math.sqrt(0.5)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF, evaluated as cephes ``ndtr`` (and so scipy) does."""
    x = z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _ks_statistic(samples: np.ndarray, sigma: float) -> float:
    """Two-sided KS distance max(D+, D-) of the samples from N(0, sigma^2)."""
    z = np.sort(samples) / sigma
    n = z.shape[0]
    cdf = np.fromiter(map(_normal_cdf, z.tolist()), dtype=float, count=n)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided tail P(D_n+ >= d), 0 < d < 1: the Birnbaum-Tingey sum in log space."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    a = 1.0 - d - j / n
    j, a = j[a > 0.0], a[a > 0.0]  # a term with a == 0 is 0
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1) / j[1:]))))
    logs = log_binom + (n - j) * np.log(a) + (j - 1) * np.log(d + j / n)
    top = float(np.max(logs))
    return d * math.exp(top) * float(np.sum(np.exp(logs - top)))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) from the Durbin matrix, as Marsaglia, Tsang & Wang (2003) compute it.

    With n d = k - h, the probability is n!/n^n times entry (k, k) of H^n,
    H of size 2k - 1.  Powers are taken by repeated squaring and kept as a
    matrix scaled to entries below 1 times a power of two, so nothing
    overflows; the scaling is exact.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(1, m + 1)
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / i)))  # 1/j!, j = 0..m
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    mat = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    v = (1.0 - h**i) * inv_fact[1:]
    v[-1] = (1.0 - 2.0 * h**m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[m]
    mat[:, 0] = v
    mat[-1, :] = v[::-1]

    def scaled(a: np.ndarray, expo: int):
        e = math.frexp(float(np.max(a)))[1]  # the entries are non-negative
        return a * math.ldexp(1.0, -e), expo + e

    power, expo = np.eye(m), 0
    sq, sq_expo = scaled(mat, 0)
    bits = n
    while True:
        if bits & 1:
            power, expo = scaled(power @ sq, expo + sq_expo)
        bits >>= 1
        if not bits:
            break
        sq, sq_expo = scaled(sq @ sq, 2 * sq_expo)
    p = float(power[k - 1, k - 1])
    for j in range(1, n + 1):  # times n!/n^n, renormalised as it shrinks
        p, e = math.frexp(p * j / n)
        expo += e
    return math.ldexp(p, expo)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided KS statistic D_n of n samples.

    The cases follow Simard & L'Ecuyer (2011): closed forms at both ends
    (Ruben & Gambino), twice the one-sided tail where the two tails cannot
    both be crossed (d >= 1/2) and where crossing both is rare (Miller;
    n d^2 >= 2.2, or > 4 for n <= 140, as scipy decides: the dropped term is
    about 1e-6 of the tail at 2.2 and 2e-11 at 4), and the Durbin matrix
    elsewhere, of size 2 ceil(n d) - 1 < 2 sqrt(2.2 n) + 1 for n > 140.  A
    NaN distance gives a NaN probability, which fails any test.
    """
    if math.isnan(d):
        return d
    t = n * d
    if t <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if t <= 1.0:  # P(D_n < d) = n!/n^n (2t - 1)^n
        return 1.0 - math.exp(math.lgamma(n + 1) + n * math.log((2.0 * t - 1.0) / n))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    if d >= 0.5 or t * d >= (2.2 if n > 140 else 4.0):
        return 2.0 * _smirnov_sf(n, d)
    return 1.0 - _durbin_cdf(n, d)


MIN_KS_REPLICATES = 100  # the fewest samples a KS test of a study takes


def check_ks_replicates(n: int):
    """Raise InsufficientCycles if n samples are too few for a KS test."""
    if n < MIN_KS_REPLICATES:
        raise InsufficientCycles(
            f"the KS tests need at least {MIN_KS_REPLICATES} replicates, got {n}"
        )


def ks_test_normal(samples, sigma: float, alpha: float = 0.01) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against N(0, sigma^2)."""
    samples = np.asarray(samples, dtype=float)
    check_ks_replicates(samples.shape[0])
    if sigma <= 0:
        raise DegenerateSigma(
            "sigma <= 0: the limit is a point mass at 0, no distribution to test"
        )
    n = samples.shape[0]
    statistic = _ks_statistic(samples, sigma)
    p_value = _kolmogorov_sf(n, statistic)
    return TestReport(
        statistic=statistic,
        p_value=p_value,
        n_samples=n,
        passed=p_value > alpha,
        alpha=alpha,
    )


def anscombe_check(
    sum_s,
    sum_tau,
    t: float,
    nu: float,
    sigma2: float,
    mean_tau: float,
    alpha: float = 0.01,
) -> TestReport:
    """KS test of the random-index normalized sums against N(0, sigma^2 * mean_tau).

    ``sum_s`` and ``sum_tau`` hold each replicate's sums of S and tau over the
    cycles counted by the horizon t (one past it); each gives
    (sum_s - nu sum_tau) / sqrt(theta), where theta = t / mean_tau is the
    deterministic cycle-count scale.  Under the limit theorem these converge
    to N(0, sigma^2 * mean_tau).
    """
    samples = (np.asarray(sum_s) - nu * np.asarray(sum_tau)) / math.sqrt(t / mean_tau)
    sigma = math.sqrt(max(sigma2, 0.0) * mean_tau)
    return ks_test_normal(samples, sigma, alpha=alpha)
