"""Uniform grids, time-stamped fields, and exterior boundary extensions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "Field", "BoundaryModel"]

_RIGHT_MODELS = ("zero", "constant", "algebraic_tail")


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with ``n`` nodes on ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if self.n < 16:
            raise ValueError("grid requires at least 16 nodes")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        pts = np.linspace(self.x_min, self.x_max, self.n)
        pts.flags.writeable = False
        return pts

    def is_symmetric_about(self, center: float, tol: float = 1e-12) -> bool:
        scale = max(abs(self.x_min), abs(self.x_max), 1.0)
        return abs((self.x_min - center) + (self.x_max - center)) <= tol * scale


@dataclass(frozen=True, eq=False)
class Field:
    """Grid function at one instant; values are finite and match the grid."""

    grid: Grid
    t: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("field time stamp must be nonnegative")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, t: float | None = None) -> "Field":
        return Field(self.grid, self.t if t is None else t, values)


@dataclass(frozen=True)
class BoundaryModel:
    """How a field extends beyond the computational window.

    The left extension is always a constant (the plateau value feeding the
    front). The right extension is one of:

    * ``zero``: extends by 0; conservative for lower bounds since dropping
      nonnegative exterior values can only decrease the operator output,
    * ``constant``: extends by ``right_value``,
    * ``algebraic_tail``: extends by ``amp * x^(-2s)`` with the amplitude
      refitted from the last decade of grid values on every apply, capped so
      the extension starts no higher than the last grid value.
    """

    left_value: float
    right: str = "zero"
    right_value: float = 0.0

    def __post_init__(self) -> None:
        if self.right not in _RIGHT_MODELS:
            raise ValueError(f"right boundary model must be one of {_RIGHT_MODELS}")
        if not np.isfinite(self.left_value) or self.left_value < 0:
            raise ValueError("left boundary constant must be finite and nonnegative")
        if self.right == "constant" and (
            not np.isfinite(self.right_value) or self.right_value < 0
        ):
            raise ValueError("right boundary constant must be finite and nonnegative")

    def fit_tail_amplitude(self, grid: Grid, values: np.ndarray, exponent: float) -> float:
        """Least-squares amplitude of ``amp * x^-exponent`` over the last decade.

        The fit is capped at ``values[-1] * x_max^exponent``, so the extension
        never lies above the last grid value and a nonincreasing field stays
        nonincreasing across the edge; both bounds are nondecreasing in the
        values, so the capped amplitude keeps the comparison principle.
        """
        if grid.x_max <= 0:
            raise ValueError("algebraic tail extension requires x_max > 0")
        x = grid.points()
        window = x >= max(grid.x_max / 10.0, 10.0 * grid.h)
        u = values[window]
        if u.size == 0 or np.any(u <= 0):
            return 0.0
        fit = np.exp(np.mean(np.log(u) + exponent * np.log(x[window])))
        return float(min(fit, values[-1] * grid.x_max**exponent))
