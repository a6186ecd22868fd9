"""Contraction semigroups with finite extinction.

The exact scalar power-law semigroup implemented here saturates the
extinction inequality with equality,

    ``|T(t) v| ** rho == max(|v| ** rho - kappa * t, 0)``,

which makes it an exact oracle for every statistical routine downstream: the
extinction time, the flow between jumps, and all segment integrals have
closed forms.  The sign is preserved and the magnitude shrinks, so T(t) is a
contraction on the real line.

``axiom_residuals`` measures the semigroup, contraction, and identity
residuals of one sample and ``check_semigroup_axioms`` their maxima over a
corpus; violations are reported as data, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .spaces import Space, StateVector, scalar_space

__all__ = [
    "ExtinctionParams", "ScalarPowerLaw", "AxiomReport", "axiom_residuals", "check_semigroup_axioms"
]


@dataclass(frozen=True)
class ExtinctionParams:
    """Decay rate and exponent of the extinction bound on the V1 norm."""

    kappa: float
    rho: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")


class ScalarPowerLaw:
    """Sign-preserving scalar flow with exact finite extinction.

    ``T(t) v = sign(v) * max(|v|**rho - kappa*t, 0) ** (1/rho)``.
    """

    kind = "scalar_power_law"
    kappa_source = "exact"

    def __init__(self, params: ExtinctionParams, space: Space | None = None):
        self.params = params
        self.space = space if space is not None else scalar_space()
        if self.space.kind != "scalar":
            raise DimensionMismatch("the power-law semigroup acts on scalar states")

    @property
    def kappa(self) -> float:
        return self.params.kappa

    @property
    def rho(self) -> float:
        return self.params.rho

    def evolve_scalar(self, x: float, t: float) -> float:
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t == 0.0 or x == 0.0:
            return x
        ax = abs(x)
        r = ax**self.rho - self.kappa * t
        if r <= 0.0:
            return 0.0
        mag = r ** (1.0 / self.rho)
        if mag > ax:  # power round-trip may exceed |x| by an ulp
            mag = ax
        return mag if x > 0 else -mag

    def evolve(self, v: StateVector, t: float) -> StateVector:
        if v.space.kind != "scalar":
            raise DimensionMismatch("expected a scalar state")
        if t == 0.0:
            return v
        return StateVector(v.space, [self.evolve_scalar(v.scalar, t)])


@dataclass
class AxiomReport:
    """Worst-case residuals of the three semigroup axioms over a sample set.

    The contraction residual is signed: values <= 0 mean the contraction
    inequality held with slack, positive values measure its violation.
    """

    max_semigroup_residual: float
    max_contraction_residual: float
    max_identity_residual: float
    n_samples: int

    @classmethod
    def from_rows(cls, rows) -> "AxiomReport":
        """The maxima over per-sample ``axiom_residuals`` rows."""
        return cls(
            max_semigroup_residual=max([0.0] + [r["semigroup_residual"] for r in rows]),
            max_contraction_residual=max(r["contraction_residual"] for r in rows),
            max_identity_residual=max([0.0] + [r["identity_residual"] for r in rows]),
            n_samples=len(rows),
        )

    def within(self, tol: float) -> bool:
        return (
            self.max_semigroup_residual <= tol
            and self.max_contraction_residual <= tol
            and self.max_identity_residual <= tol
        )


def axiom_residuals(sg, u, v, t, s):
    """The three axiom residuals of one sample, with T(t)u and T(t)v.

    In the ambient norm: ``|T(t+s)v - T(t)T(s)v|``, ``|T(t)u - T(t)v| -
    |u - v|`` (contraction) and ``|T(0)v - v|``.  Every flow is evaluated
    once; the returned T(t)u and T(t)v serve further per-sample checks.
    """
    tu, tv = sg.evolve(u, t), sg.evolve(v, t)
    residuals = {
        "semigroup_residual": (sg.evolve(v, t + s) - sg.evolve(sg.evolve(v, s), t)).norm_v(),
        "contraction_residual": (tu - tv).norm_v() - (u - v).norm_v(),
        "identity_residual": (sg.evolve(v, 0.0) - v).norm_v(),
    }
    return residuals, tu, tv


def check_semigroup_axioms(sg, samples) -> AxiomReport:
    """Measure axiom residuals on (v, t, s) triples or (u, v, t, s) quadruples.

    Reports the worst ``axiom_residuals`` over the samples, with u = 0 when
    only a triple is given.
    """
    if not samples:
        raise ValueError("need at least one sample")
    quads = [s if len(s) == 4 else (s[0].space.zero(), *s) for s in samples]
    return AxiomReport.from_rows([axiom_residuals(sg, *q)[0] for q in quads])
