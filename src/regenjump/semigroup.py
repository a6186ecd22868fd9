"""Contraction semigroups with finite extinction.

The exact scalar power-law semigroup implemented here saturates the
extinction inequality with equality,

    ``|T(t) v| ** rho == max(|v| ** rho - kappa * t, 0)``,

which makes it an exact oracle for every statistical routine downstream: the
extinction time, the flow between jumps, and all segment integrals have
closed forms.  The sign is preserved and the magnitude shrinks, so T(t) is a
contraction on the real line.

``axiom_residuals`` measures the semigroup, contraction, and identity
residuals of one sample; violations are reported as data, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .spaces import Space, StateVector, scalar_space

__all__ = ["ExtinctionParams", "ScalarPowerLaw", "axiom_residuals"]


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


def axiom_residuals(sg, u, v, t, s):
    """The three axiom residuals of one sample, with T(t)u and T(t)v.

    In the ambient norm: ``|T(t+s)v - T(t)T(s)v|``, ``|T(t)u - T(t)v| -
    |u - v|`` (contraction; signed, at most 0 where it holds) and
    ``|T(0)v - v|``.  Every flow is evaluated once; the returned T(t)u and
    T(t)v serve further per-sample checks.
    """
    tu, tv = sg.evolve(u, t), sg.evolve(v, t)
    residuals = {
        "semigroup_residual": (sg.evolve(v, t + s) - sg.evolve(sg.evolve(v, s), t)).norm_v(),
        "contraction_residual": (tu - tv).norm_v() - (u - v).norm_v(),
        "identity_residual": (sg.evolve(v, 0.0) - v).norm_v(),
    }
    return residuals, tu, tv
