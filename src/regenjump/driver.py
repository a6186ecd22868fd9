"""I.i.d. inputs for the jump chain: waiting times beta and kicks eta.

Only bounded-support or exponentially-tailed laws are offered, so every
moment required by the limit theorems (high polynomial moments of beta and of
the kick norms) is automatically finite; heavy-tailed laws are rejected at
construction.

Randomness is organized as counter-based streams: ``derive_replicate_rng``
hashes (master_seed, replicate_index, stream_id) through a SeedSequence into
a Philox generator, so replicate k's draws never depend on how many other
replicates ran or on scheduling, and beta and eta always consume disjoint
sub-streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import Space, StateVector
from .errors import ConfigError

__all__ = [
    "BetaLaw",
    "EtaLaw",
    "DriverConfig",
    "ReplicateStreams",
    "DriftReport",
    "derive_replicate_rng",
    "check_drift_condition",
    "grid_kick_norms",
]

BETA_STREAM = 0
ETA_STREAM = 1

_BETA_KINDS = ("deterministic", "uniform", "exponential", "gamma")
_ETA_KINDS = ("scalar_constant", "scalar_uniform", "grid_bumps")
KICK_BLOCK_ROWS = 1024  # grid kicks per sampled block; bounds its temporaries


def derive_replicate_rng(
    master_seed: int, replicate_index: int, stream_id: int = 0
) -> np.random.Generator:
    """Independent, order-free stream for one (replicate, role) pair.

    The same (seed, index, stream) always reproduces the identical stream,
    regardless of how many other streams were derived before it.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(replicate_index, stream_id))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class BetaLaw:
    """Law of the positive waiting times.

    kind: deterministic | uniform | exponential | gamma, with parameters
    (value) | (low, high) | (rate) | (shape, scale).  Every offered law has
    all moments finite.
    """

    kind: str
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    rate: float = 0.0
    shape: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in _BETA_KINDS:
            raise ConfigError(f"unknown beta law {self.kind!r}")
        if self.kind == "deterministic" and not self.value > 0:
            raise ConfigError("deterministic beta needs value > 0")
        if self.kind == "uniform" and not 0 < self.low <= self.high:
            raise ConfigError("uniform beta needs 0 < low <= high")
        if self.kind == "exponential" and not self.rate > 0:
            raise ConfigError("exponential beta needs rate > 0")
        if self.kind == "gamma" and not (self.shape > 0 and self.scale > 0):
            raise ConfigError("gamma beta needs shape > 0 and scale > 0")

    @classmethod
    def deterministic(cls, value: float) -> "BetaLaw":
        return cls("deterministic", value=value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "BetaLaw":
        return cls("uniform", low=low, high=high)

    @classmethod
    def exponential(cls, rate: float) -> "BetaLaw":
        return cls("exponential", rate=rate)

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "BetaLaw":
        return cls("gamma", shape=shape, scale=scale)

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic"

    def mean(self) -> float:
        if self.kind == "deterministic":
            return self.value
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        if self.kind == "exponential":
            return 1.0 / self.rate
        return self.shape * self.scale

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_block(rng, 1)[0])

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "deterministic":
            return np.full(n, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=n)
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size=n)
        return rng.gamma(self.shape, self.scale, size=n)


@dataclass(frozen=True)
class EtaLaw:
    """Law of the kicks.

    scalar_constant: the fixed kick ``value`` (the degenerate law used by the
    closed-form oracle configurations).
    scalar_uniform: uniform on [-amp, amp].
    grid_bumps: sum of n_bumps random Gaussian bumps (random center, width in
    width_range, amplitude uniform in [-amp_max, amp_max]), projected to zero
    mean.  Output norms are bounded almost surely, so all moments are finite.
    """

    kind: str
    value: float = 0.0
    amp: float = 0.0
    n_bumps: int = 0
    amp_max: float = 0.0
    width_low: float = 0.0
    width_high: float = 0.0

    def __post_init__(self):
        if self.kind not in _ETA_KINDS:
            raise ConfigError(f"unknown eta law {self.kind!r}")
        if self.kind == "scalar_uniform" and self.amp < 0:
            raise ConfigError("scalar_uniform eta needs amp >= 0")
        if self.kind == "grid_bumps":
            if self.n_bumps < 1 or self.amp_max < 0:
                raise ConfigError("grid_bumps eta needs n_bumps >= 1, amp_max >= 0")
            if not 0 < self.width_low <= self.width_high:
                raise ConfigError("grid_bumps eta needs 0 < width_low <= width_high")

    @classmethod
    def scalar_constant(cls, value: float) -> "EtaLaw":
        return cls("scalar_constant", value=value)

    @classmethod
    def scalar_uniform(cls, amp: float) -> "EtaLaw":
        return cls("scalar_uniform", amp=amp)

    @classmethod
    def grid_bumps(
        cls, n_bumps: int, amp_max: float, width_range: tuple[float, float]
    ) -> "EtaLaw":
        return cls(
            "grid_bumps",
            n_bumps=n_bumps,
            amp_max=amp_max,
            width_low=width_range[0],
            width_high=width_range[1],
        )

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "scalar_constant"

    @property
    def is_zero(self) -> bool:
        if self.kind == "scalar_constant":
            return self.value == 0.0
        if self.kind == "scalar_uniform":
            return self.amp == 0.0
        return self.amp_max == 0.0

    def sample_values(self, rng: np.random.Generator, space: Space) -> np.ndarray:
        if self.kind == "grid_bumps":
            return next(self.sample_blocks(rng, space, 1))[0]
        if space.kind != "scalar":
            raise ConfigError(f"{self.kind} eta needs a scalar space")
        return self.sample_block(rng, 1)

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n scalar kicks; equal to n one-at-a-time draws, generator state too."""
        if self.kind == "scalar_constant":
            return np.full(n, self.value)
        if self.kind == "scalar_uniform":
            return rng.uniform(-self.amp, self.amp, size=n)
        raise ConfigError("grid kicks are drawn with sample_blocks")

    def sample_blocks(self, rng: np.random.Generator, space: Space, n: int):
        """Yield n grid_bumps kicks as blocks of at most KICK_BLOCK_ROWS rows.

        Each block draws ``rng.random((m, n_bumps, 3))`` (center, width,
        amplitude per bump) and maps it as ``rng.uniform`` maps its draws,
        ``low + (high - low) * u``, so the rows and the generator state
        afterwards equal n one-at-a-time draws.  Fixed-size blocks consume
        the stream in the same order and bound the temporaries.
        """
        if self.kind != "grid_bumps" or space.kind != "grid":
            raise ConfigError("grid_bumps eta needs a grid space")
        x = (np.arange(space.n_cells) + 0.5) * space.h
        low = np.array([0.0, self.width_low, -self.amp_max])
        high = np.array([space.length, self.width_high, self.amp_max])
        for first in range(0, n, KICK_BLOCK_ROWS):
            u = rng.random((min(KICK_BLOCK_ROWS, n - first), self.n_bumps, 3))
            draws = low + (high - low) * u
            out = np.zeros((u.shape[0], space.n_cells))
            for b in range(self.n_bumps):
                center, width, amp = draws[:, b, 0:1], draws[:, b, 1:2], draws[:, b, 2:3]
                out += amp * np.exp(-0.5 * ((x - center) / width) ** 2)
            yield out - np.mean(out, axis=1, keepdims=True)

    def sample(self, rng: np.random.Generator, space: Space) -> StateVector:
        return StateVector(space, self.sample_values(rng, space))


@dataclass(frozen=True)
class DriverConfig:
    """Noise laws plus the master seed all replicate streams derive from."""

    beta: BetaLaw
    eta: EtaLaw
    master_seed: int

    def streams(self, replicate_index: int) -> "ReplicateStreams":
        return ReplicateStreams(
            beta_rng=derive_replicate_rng(self.master_seed, replicate_index, BETA_STREAM),
            eta_rng=derive_replicate_rng(self.master_seed, replicate_index, ETA_STREAM),
        )


@dataclass
class ReplicateStreams:
    """The pair of disjoint sub-streams owned by one replicate worker."""

    beta_rng: np.random.Generator
    eta_rng: np.random.Generator


@dataclass
class DriftReport:
    """Estimate of -kappa E[beta] + E[||eta||_V1 ^ rho] with a 99% CI."""

    lhs_estimate: float
    ci_halfwidth: float
    n_mc: int
    exact: bool

    @property
    def ok(self) -> bool:
        return self.lhs_estimate + self.ci_halfwidth < 0.0

    def as_dict(self) -> dict:
        return {
            "lhs_estimate": self.lhs_estimate,
            "ci_halfwidth": self.ci_halfwidth,
            "n_mc": self.n_mc,
            "exact": self.exact,
            "ok": self.ok,
        }


def grid_kick_norms(
    law: EtaLaw, rng: np.random.Generator, space: Space, n: int, norm: str
) -> list:
    """``norm_v1`` or ``norm_v2`` of n grid_bumps kicks, drawn in blocks.

    Equal bit for bit to the per-kick ``StateVector`` norms: the sums run
    row by row, and the final root is ``np.float_power``, which equals
    Python's float ``**`` (``np.power`` can differ in the last bits).
    """
    out = []
    for block in law.sample_blocks(rng, space, n):
        if norm == "v1":
            out.extend(np.sqrt(np.sum(block**2, axis=1) * space.h).tolist())
        else:
            sums = np.sum(np.abs(block) ** space.q, axis=1) * space.h
            out.extend(np.float_power(sums, 1.0 / space.q).tolist())
    return out


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def check_drift_condition(
    cfg: DriverConfig,
    kappa: float,
    rho: float,
    n_mc: int,
    space: Space,
) -> DriftReport:
    """Monte Carlo check of the negative-drift requirement.

    Deterministic beta and zero eta are evaluated exactly (CI contribution 0);
    everything else is estimated from n_mc draws of -kappa*beta + ||eta||^rho
    with a 99% normal confidence interval.
    """
    if n_mc < 10_000:
        raise ConfigError("drift check needs n_mc >= 10**4")
    rng_beta = derive_replicate_rng(cfg.master_seed, 0, 100)
    rng_eta = derive_replicate_rng(cfg.master_seed, 0, 101)
    exact = cfg.beta.is_deterministic and (cfg.eta.is_zero or cfg.eta.is_deterministic)
    if cfg.beta.is_deterministic:
        beta_terms = np.full(n_mc, -kappa * cfg.beta.value)
    else:
        beta_terms = -kappa * cfg.beta.sample_block(rng_beta, n_mc)
    if cfg.eta.is_zero:
        eta_terms = np.zeros(n_mc)
    elif cfg.eta.kind == "scalar_constant":
        eta_terms = np.full(n_mc, abs(cfg.eta.value) ** rho)
    elif cfg.eta.kind == "scalar_uniform":
        draws = rng_eta.uniform(-cfg.eta.amp, cfg.eta.amp, size=n_mc)
        eta_terms = np.float_power(np.abs(draws), rho)
    else:
        norms = grid_kick_norms(cfg.eta, rng_eta, space, n_mc, "v1")
        eta_terms = np.float_power(norms, rho)
    terms = beta_terms + eta_terms
    estimate = float(np.mean(terms))
    if exact:
        halfwidth = 0.0
    else:
        halfwidth = _Z99 * float(np.std(terms, ddof=1)) / math.sqrt(n_mc)
    return DriftReport(
        lhs_estimate=estimate, ci_halfwidth=halfwidth, n_mc=n_mc, exact=exact
    )
