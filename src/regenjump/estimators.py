"""Renewal-reward estimators and the statistical verification tests.

The long-run time average of a functional equals the ratio of cycle means,
so the point estimate is the ratio estimator ``nu_hat = sum S_n / sum tau_n``
with a delta-method standard error.  The fluctuation variance is

    ``sigma2_hat = (1 / mean_tau) * mean((S_n - nu * tau_n)^2)``

and, for vector-valued functionals, the covariance is the second-moment
matrix of the normalized centered cycle integrals with respect to the
cell-weighted pairing.

Distribution checks are one-sample Kolmogorov-Smirnov tests at a configured
significance level; zero-variance configurations are first-class and raise
DegenerateSigma (the limit is a point mass, not a failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .errors import DegenerateSigma, InsufficientCycles

__all__ = [
    "CycleSet",
    "CycleStats",
    "TestReport",
    "CycleDiagnostics",
    "estimate_nu",
    "estimate_sigma2",
    "estimate_Q",
    "stats_from_moments",
    "clt_statistic",
    "ks_test_normal",
    "cycle_diagnostics",
    "autocorrelation",
    "anscombe_statistics",
    "anscombe_check",
]


@dataclass
class CycleSet:
    """Arrays of cycle lengths and per-functional cycle integrals."""

    tau: np.ndarray
    integrals: dict

    @classmethod
    def from_records(cls, records) -> "CycleSet":
        """Collect a record stream, dropping the warm-up segment."""
        tau = []
        integrals: dict = {}
        for rec in records:
            if rec.is_warmup:
                continue
            tau.append(rec.tau)
            for label, value in rec.integrals.items():
                integrals.setdefault(label, []).append(value)
        return cls(
            tau=np.asarray(tau, dtype=float),
            integrals={
                label: np.asarray(vals)
                for label, vals in integrals.items()
            },
        )

    @property
    def n(self) -> int:
        return self.tau.shape[0]


@dataclass
class CycleStats:
    """Point estimates from one batch of cycles for one functional."""

    n_cycles: int
    mean_s: object
    mean_tau: float
    nu_hat: object
    se_nu: object
    sigma2_hat: float | None = None
    q_hat: np.ndarray | None = None


def _as_2d(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return s[:, None] if s.ndim == 1 else s


def estimate_nu(s: np.ndarray, tau: np.ndarray):
    """Ratio estimator sum S / sum tau with its delta-method standard error.

    Scalar cycle integrals give float (nu, se); vector ones give arrays.
    """
    tau = np.asarray(tau, dtype=float)
    n = tau.shape[0]
    if n < 2:
        raise InsufficientCycles("need at least 2 cycles for the ratio estimator")
    s2d = _as_2d(s)
    sum_tau = float(np.sum(tau))
    nu = np.sum(s2d, axis=0) / sum_tau
    mean_tau = sum_tau / n
    resid = s2d - nu[None, :] * tau[:, None]
    se = np.sqrt(np.mean(resid**2, axis=0) / n) / mean_tau
    if np.ndim(s) == 1:
        return float(nu[0]), float(se[0])
    return nu, se


def estimate_sigma2(s: np.ndarray, tau: np.ndarray, nu: float) -> float:
    """Fluctuation variance (1/mean_tau) * mean((S - nu*tau)^2) for scalar S."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if s.ndim != 1:
        raise ValueError("estimate_sigma2 expects scalar cycle integrals")
    if tau.shape[0] < 2:
        raise InsufficientCycles("need at least 2 cycles")
    mean_tau = float(np.mean(tau))
    resid = s - nu * tau
    return float(np.mean(resid**2) / mean_tau)


def estimate_Q(s: np.ndarray, tau: np.ndarray, nu: np.ndarray, h: float) -> np.ndarray:
    """Covariance of the normalized centered cycle integrals.

    With z_n = h * (S_n - nu * tau_n) / sqrt(mean_tau), returns
    Q = mean(z_n z_n^T), the bilinear form such that psi^T Q psi equals the
    scalar fluctuation variance of the cell-weighted pairing <., psi>.
    """
    s2d = _as_2d(s)
    tau = np.asarray(tau, dtype=float)
    if tau.shape[0] < 2:
        raise InsufficientCycles("need at least 2 cycles")
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    mean_tau = float(np.mean(tau))
    z = h * (s2d - nu[None, :] * tau[:, None]) / math.sqrt(mean_tau)
    return (z.T @ z) / tau.shape[0]


def stats_from_moments(moments, label: str) -> CycleStats:
    """Statistics for one functional from accumulated cycle moments.

    Algebraically identical to the array route:
    sum (S - nu tau)^2 = sum S^2 - 2 nu sum(S tau) + nu^2 sum tau^2.
    The subtraction cancels; residual variation below 1e-13 of the raw
    second-moment scale is rounding noise and is clamped to exactly zero
    (degenerate configurations must report a zero variance, not noise).
    """
    n = moments.n
    if n < 2:
        raise InsufficientCycles("need at least 2 cycles")
    sum_s = moments.sum_s[label]
    sum_tau = moments.sum_tau
    nu = sum_s / sum_tau
    mean_tau = sum_tau / n
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


def ks_test_normal(samples, sigma: float, alpha: float = 0.01) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against N(0, sigma^2)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 100:
        raise InsufficientCycles("KS test needs at least 100 samples")
    if sigma <= 0:
        raise DegenerateSigma(
            "sigma <= 0: the limit is a point mass at 0, no distribution to test"
        )
    result = sps.kstest(samples, "norm", args=(0.0, sigma))
    return TestReport(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        n_samples=samples.shape[0],
        passed=bool(result.pvalue > alpha),
        alpha=alpha,
    )


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag (biased normalization)."""
    z = np.asarray(series, dtype=float)
    z = z - np.mean(z)
    denom = float(np.dot(z, z))
    if denom == 0.0:
        return np.full(max_lag, np.nan)
    return np.array(
        [float(np.dot(z[:-lag], z[lag:])) / denom for lag in range(1, max_lag + 1)]
    )


@dataclass
class CycleDiagnostics:
    """Independence and identical-distribution checks on the cycle sequence."""

    lag_autocorr_s: np.ndarray
    lag_autocorr_tau: np.ndarray
    lag_pvalues_s: np.ndarray
    lag_pvalues_tau: np.ndarray
    halves_s: TestReport | None
    halves_tau: TestReport | None
    degenerate: bool
    n_cycles: int


def _lag_pvalues(r: np.ndarray, n: int) -> np.ndarray:
    # under independence r_l ~ N(0, 1/n); two-sided normal p-value
    z = np.abs(r) * math.sqrt(n)
    return 2.0 * sps.norm.sf(z)


def cycle_diagnostics(
    s: np.ndarray, tau: np.ndarray, max_lag: int = 5, alpha: float = 0.01
) -> CycleDiagnostics:
    """Lag-1..max_lag autocorrelations plus first-half/second-half KS tests."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = s.shape[0]
    if n < 200:
        raise InsufficientCycles("diagnostics need at least 200 cycles")
    if tau.shape[0] != n:
        raise ValueError("mismatched cycle arrays")
    degenerate = float(np.var(s)) == 0.0 or float(np.var(tau)) == 0.0
    r_s = autocorrelation(s, max_lag)
    r_tau = autocorrelation(tau, max_lag)
    if degenerate:
        return CycleDiagnostics(
            lag_autocorr_s=r_s,
            lag_autocorr_tau=r_tau,
            lag_pvalues_s=np.full(max_lag, np.nan),
            lag_pvalues_tau=np.full(max_lag, np.nan),
            halves_s=None,
            halves_tau=None,
            degenerate=True,
            n_cycles=n,
        )
    half = n // 2

    def halves_report(series: np.ndarray) -> TestReport:
        res = sps.ks_2samp(series[:half], series[half:])
        return TestReport(
            statistic=float(res.statistic),
            p_value=float(res.pvalue),
            n_samples=n,
            passed=bool(res.pvalue > alpha),
            alpha=alpha,
        )

    return CycleDiagnostics(
        lag_autocorr_s=r_s,
        lag_autocorr_tau=r_tau,
        lag_pvalues_s=_lag_pvalues(r_s, n),
        lag_pvalues_tau=_lag_pvalues(r_tau, n),
        halves_s=halves_report(s),
        halves_tau=halves_report(tau),
        degenerate=False,
        n_cycles=n,
    )


def anscombe_statistics(replicates, nu: float, mean_tau: float) -> np.ndarray:
    """Random-index normalized sums, one per replicate.

    Each replicate contributes (sum_k (S_k - nu tau_k)) / sqrt(theta) where
    the sum runs over the cycles counted by the horizon (one past it) and
    theta = t / mean_tau is the deterministic cycle-count scale.  Under the
    limit theorem these converge to N(0, sigma^2 * mean_tau).
    """
    out = np.empty(len(replicates))
    for i, (sum_s, sum_tau, t) in enumerate(replicates):
        theta = t / mean_tau
        out[i] = (sum_s - nu * sum_tau) / math.sqrt(theta)
    return out


def anscombe_check(
    replicates,
    nu: float,
    sigma2: float,
    mean_tau: float,
    alpha: float = 0.01,
) -> TestReport:
    """KS test of the random-index sums against N(0, sigma^2 * mean_tau)."""
    samples = anscombe_statistics(replicates, nu, mean_tau)
    sigma = math.sqrt(max(sigma2, 0.0) * mean_tau)
    return ks_test_normal(samples, sigma, alpha=alpha)
