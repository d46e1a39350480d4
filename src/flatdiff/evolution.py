"""Forward Euler time stepping under the monotonicity-preserving dt bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Field, Grid
from .operator import DiscreteOperator

__all__ = [
    "Trajectory",
    "SimulationDivergedError",
    "stable_dt",
    "step",
    "evolve",
    "ComparisonReport",
    "discrete_comparison_check",
    "worst_node",
]

class SimulationDivergedError(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of one evolution; times strictly increase from the start."""

    grid: Grid
    times: np.ndarray
    states: tuple[Field, ...]
    operator: DiscreteOperator | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(self.states) != t.size:
            raise ValueError("one state per time stamp required")
        if t.size == 0:
            raise ValueError("trajectory must contain at least the initial state")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time stamps must be strictly increasing")
        object.__setattr__(self, "times", t)

    def state_at(self, t: float) -> Field:
        idx = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))[0]
        if idx.size == 0:
            raise KeyError(f"no snapshot at t = {t}")
        return self.states[int(idx[0])]


def stable_dt(op: DiscreteOperator, safety: float) -> float:
    """Largest step keeping the Euler update a convex combination, scaled.

    The update ``u + dt * D u`` has diagonal coefficient ``1 - dt * W``; it
    stays nonnegative exactly when ``dt <= 1 / W``.
    """
    if not 0 < safety <= 1:
        raise ValueError("safety factor must lie in (0, 1]")
    if op.row_sum <= 0:
        raise ValueError("degenerate operator: row sum is not positive")
    return safety / op.row_sum


def _euler_stage(
    op: DiscreteOperator, values: np.ndarray, dt: float, t: float, workers: int = 1
) -> np.ndarray:
    """``u + dt D u``: convex when ``dt <= 1/W``; ``t`` locates a divergence."""
    values = values + dt * op.rate(values, workers=workers)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise SimulationDivergedError(
            f"non-finite value at t = {t:.6g}, x = {op.grid.points()[bad]:.6g}"
        )
    return values


def step(op: DiscreteOperator, u: Field, dt: float) -> Field:
    """One forward Euler step (``dt <= stable_dt(op, 1.0)``), divergence-checked."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    limit = stable_dt(op, 1.0)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt:.6g} exceeds the stability bound 1/W = {limit:.6g}"
        )
    op.check_field(u)
    return u.with_values(_euler_stage(op, u.values, dt, u.t + dt), t=u.t + dt)


def _startup_cap(t: float, dt_stable: float) -> float:
    # shorten the first few steps while the front is steepest; the cap is a
    # function of absolute time only, so restarting from a snapshot reproduces
    # the tail of the original step sequence
    return max(0.5 * t, 0.01 * dt_stable)


def evolve(
    op: DiscreteOperator,
    u0: Field,
    t_final: float,
    output_times: tuple[float, ...] | list[float] = (),
    *,
    safety: float = 0.45,
    startup_ramp: bool = True,
    workers: int = 1,
) -> Trajectory:
    """March ``u0`` to ``t_final``, landing on every requested output time.

    Steps use ``stable_dt(op, safety)``, optionally shortened near the start
    of the evolution, and are truncated (never interpolated) so that each
    snapshot time is hit exactly; ``op.rate`` picks the apply path from the
    grid size. The trajectory always holds the initial and final states.
    """
    snaps = sorted({float(s) for s in output_times} | {float(t_final)})
    if snaps[0] < u0.t:
        raise ValueError(f"output time {snaps[0]} precedes the initial time {u0.t}")

    op.check_field(u0)
    dt_stable = stable_dt(op, safety)
    times = [u0.t]
    states = [u0]
    # step raw arrays; a Field (which validates its values) only per snapshot
    values = u0.values

    t = u0.t
    for target in snaps:
        while t < target:
            dt = dt_stable
            if startup_ramp:
                dt = min(dt, _startup_cap(t, dt_stable))
            if t + dt >= target - 1e-15 * max(1.0, abs(target)):
                dt = target - t
                t = target
            else:
                t = t + dt
            values = _euler_stage(op, values, dt, t, workers)
        if target > times[-1]:
            times.append(target)
            states.append(u0.with_values(values, t=t))
    return Trajectory(op.grid, np.asarray(times), tuple(states), operator=op)


def worst_node(times, rows, x, largest: bool = False) -> tuple[float, float, float]:
    """Smallest (or largest) entry of snapshot rows and where it lies.

    ``rows[k][i]`` is a value at time ``times[k]`` and node ``x[i]``; returns
    ``(value, t, x)``. Ties go to the earliest snapshot, then the leftmost
    node.
    """
    table = np.stack(rows)
    flat = np.argmax(table) if largest else np.argmin(table)
    k, i = np.unravel_index(flat, table.shape)
    return float(table[k, i]), float(times[k]), float(x[i])


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case ordering margin between two trajectories."""

    margin: float
    tolerance: float
    worst_t: float
    worst_x: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance


def discrete_comparison_check(
    upper: Trajectory, lower: Trajectory, tol: float = 1e-12
) -> ComparisonReport:
    """Verify ``upper >= lower - tol`` at every snapshot node.

    Both trajectories must share the grid and the snapshot times, and must be
    ordered at the initial time; the report carries the worst margin and its
    location.
    """
    if upper.grid != lower.grid:
        raise ValueError("trajectories live on different grids")
    if upper.times.shape != lower.times.shape or np.any(upper.times != lower.times):
        raise ValueError("trajectories have different snapshot times")
    init = upper.states[0].values - lower.states[0].values
    if init.min() < -tol:
        raise ValueError("initial data are not ordered within tolerance")

    margin, worst_t, worst_x = worst_node(
        upper.times,
        [us.values - ls.values for us, ls in zip(upper.states, lower.states)],
        upper.grid.points(),
    )
    return ComparisonReport(
        margin=margin, tolerance=tol, worst_t=worst_t, worst_x=worst_x
    )
