"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError is reserved for programming errors caught at construction.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter range, unknown key, malformed file."""


class DimensionMismatch(ConfigError):
    """A state does not match the space a semigroup or operator was built for."""


class NonConvergence(RuntimeError):
    """Implicit solver hit its iteration cap with the residual above tolerance."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"implicit step did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class NoExtinction(RuntimeError):
    """A trajectory failed to fall below the extinction threshold within the time cap."""


class DriftViolated(RuntimeError):
    """The configured noise does not satisfy the negative-drift requirement."""


class CycleCapExceeded(RuntimeError):
    """A regeneration cycle exceeded the maximum chain-step budget."""


class QuadratureBudgetExceeded(RuntimeError):
    """Adaptive quadrature hit its evaluation cap before reaching tolerance."""


class InsufficientCycles(ValueError):
    """An estimator was handed fewer cycles than it needs."""


class DegenerateSigma(ValueError):
    """A distribution test was requested with zero variance: the limit is a point mass."""
