"""State spaces and the norm triplet carried by every state.

A state lives in one finite-dimensional space realized either as a scalar or
as a piecewise-constant function on a uniform 1-D grid.  Three norms are
attached to the same value array:

* ``norm_v``  -- the ambient norm (scalar: absolute value; grid: discrete L1),
* ``norm_v1`` -- the norm in which finite extinction is asserted
  (scalar: absolute value; grid: discrete L2),
* ``norm_v2`` -- the norm entering sub-linear functionals
  (scalar: absolute value; grid: discrete Lq with configurable q).

``Space.l1``, ``l2`` and ``lq`` are the one rule per norm, taken over the
last axis of a state or of a stack of rows, so row norms equal state norms bit
for bit; on the scalar space they are |x| (sqrt(x*x) is not, for subnormal or
huge x).  Grid norms weight by the cell width, so they converge under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

__all__ = ["Space", "StateVector", "scalar_space", "grid_space", "project_zero_mean"]


@dataclass(frozen=True)
class Space:
    """Geometry of the state space.

    kind is "scalar" or "grid".  For grids, ``length`` is the domain size,
    ``n_cells`` the number of cells, and ``q`` the exponent of the discrete
    Lq norm used as the functional-space norm.
    """

    kind: str
    n_cells: int = 1
    length: float = 1.0
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("scalar", "grid"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "grid" and self.n_cells < 2:
            raise ValueError("grid spaces need at least 2 cells")
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.q < 1:
            raise ValueError("Lq exponent must satisfy q >= 1")

    @property
    def h(self) -> float:
        """Cell width (1.0 for scalar states)."""
        if self.kind == "scalar":
            return 1.0
        return self.length / self.n_cells

    @property
    def dim(self) -> int:
        return 1 if self.kind == "scalar" else self.n_cells

    def centers(self) -> np.ndarray:
        """Cell centres, (i + 1/2) h."""
        return (np.arange(self.dim) + 0.5) * self.h

    def l1(self, values):
        """Discrete L1 norm over the last axis; |x| on the scalar space, whose h is 1."""
        return np.sum(np.abs(values), axis=-1) * self.h

    def l2(self, values):
        """Discrete L2 norm over the last axis: of a state, or per row of a stack."""
        if self.kind == "scalar":
            return np.abs(values[..., 0])
        return np.sqrt(np.sum(values * values, axis=-1) * self.h)

    def lq(self, values):
        """Discrete Lq norm over the last axis.

        The root is ``np.float_power``, which equals Python's float ``**``
        (``np.power`` can differ in the last bits).
        """
        if self.kind == "scalar":
            return np.abs(values[..., 0])
        sums = np.sum(np.abs(values) ** self.q, axis=-1) * self.h
        return np.float_power(sums, 1.0 / self.q)

    def zero(self) -> "StateVector":
        return StateVector(self, np.zeros(self.dim))

    def state(self, values) -> "StateVector":
        return StateVector(self, np.asarray(values, dtype=float))


def scalar_space() -> Space:
    return Space(kind="scalar")


def grid_space(n_cells: int, length: float = 1.0, q: float = 2.0) -> Space:
    return Space(kind="grid", n_cells=n_cells, length=length, q=q)


@dataclass
class StateVector:
    """A state together with its space; values are a plain float array."""

    space: Space
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dim,):
            raise DimensionMismatch(
                f"state of shape {self.values.shape} does not fit space of "
                f"dimension {self.space.dim}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state entries must be finite")

    @property
    def scalar(self) -> float:
        if self.space.kind != "scalar":
            raise DimensionMismatch("scalar() called on a grid state")
        return float(self.values[0])

    def norm_v(self) -> float:
        """Ambient norm: |x| for scalars, discrete L1 for grids."""
        return float(self.space.l1(self.values))

    def norm_v1(self) -> float:
        """Extinction-space norm: |x| for scalars, discrete L2 for grids."""
        return float(self.space.l2(self.values))

    def norm_v2(self) -> float:
        """Functional-space norm: |x| for scalars, discrete Lq for grids."""
        return float(self.space.lq(self.values))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def __add__(self, other: "StateVector") -> "StateVector":
        if other.space != self.space:
            raise DimensionMismatch("cannot add states from different spaces")
        return StateVector(self.space, self.values + other.values)

    def __sub__(self, other: "StateVector") -> "StateVector":
        if other.space != self.space:
            raise DimensionMismatch("cannot subtract states from different spaces")
        return StateVector(self.space, self.values - other.values)

    def __neg__(self) -> "StateVector":
        return StateVector(self.space, -self.values)

    def copy(self) -> "StateVector":
        return StateVector(self.space, self.values.copy())


def project_zero_mean(u: StateVector) -> StateVector:
    """Remove the mean so the result carries zero mass."""
    return StateVector(u.space, u.values - np.mean(u.values))
