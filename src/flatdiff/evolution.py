"""SSPRK(k,2) time stepping built from convex forward Euler stages.

A step of size ``dt`` is the ``k``-stage, second-order strong-stability-
preserving Runge-Kutta scheme SSPRK(k,2) (Gottlieb, Shu & Tadmor 2001,
SIAM Rev. 43:89; Ketcheson 2008, SIAM J. Sci. Comput. 30:2113): ``k``
forward Euler stages of ``h = dt / (k - 1)`` each, then the average
``u / k + (k - 1) / k * stage``. Its SSP coefficient is ``k - 1``, so a step
may span ``k - 1`` stage bounds ``1/W`` (``W`` the operator's row sum) while
every stage, and the average, stays a convex combination of field values:
positivity, monotone profiles, the comparison principle and the maximum
principle hold by construction. ``k`` is the least count, and at least 2,
that keeps ``h <= stable_dt``.
"""

from __future__ import annotations

import math
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
]

# fraction of the convex-combination bound 1/W taken per Euler stage by default
DEFAULT_SAFETY = 0.9
# step growth: a step is max(THETA * t, stable_dt).
# L-inf error against the exact solution / op.rate calls per solve, measured
# with the hat-weight operator on three step-datum solves:
#   theta                          1.0           0.75          0.6           0.5
#   s = 1/2, 84 001 nodes, t = 1   1.22e-3 / 38  6.52e-4 / 42  4.74e-4 / 44  4.71e-4 / 43
#   s = 0.75, 8001 nodes, t = 1    9.96e-5 / 175 1.02e-4 / 180 6.36e-5 / 183 6.42e-5 / 185
#   s = 1/2, 128 nodes, t = 0.2    4.53e-3 / 12  2.95e-3 / 13  2.65e-3 / 13  3.46e-3 / 14
# The target was no row worse than under the cell-mass weights, which read
# 1.06e-3, 5.29e-3 and 3.21e-3 at theta = 1. Theta = 1 misses rows 1 and 3,
# where the time error now dominates, and 0.5 misses row 3, which is not
# monotone in theta because its time and space errors partly cancel. Of 0.75
# and 0.6, which both meet it, 0.75 takes fewer applies.
THETA = 0.75


class SimulationDivergedError(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of one evolution; times strictly increase from the start.

    ``steps`` counts the time steps taken and ``applies`` the ``op.rate``
    calls they made (one per Euler stage); ``dt_min`` and ``dt_max`` are the
    shortest and longest step and ``k_max`` the most stages one step took.
    ``tail_fallbacks`` counts the calls whose algebraic-tail fit refused,
    dropping the extension (its amplitude was 0.0); it is 0 under the other
    boundary models. All are 0 for a trajectory not built by :func:`evolve`
    and for one that took no step.
    """

    grid: Grid
    times: np.ndarray
    states: tuple[Field, ...]
    operator: DiscreteOperator | None = None
    steps: int = 0
    applies: int = 0
    dt_min: float = 0.0
    dt_max: float = 0.0
    k_max: int = 0
    tail_fallbacks: int = 0

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
    op: DiscreteOperator, values: np.ndarray, dt: float, t: float
) -> np.ndarray:
    """``u + dt D u``: convex when ``dt <= 1/W``; ``t`` locates a divergence.

    The caller holds ``np.errstate(over="ignore", invalid="ignore")`` around
    its stages: overflow is not warned about, since its inf or nan is what
    the finiteness check turns into :class:`SimulationDivergedError`. The
    check sums the stage first, since a finite sum has no inf or nan term;
    only a non-finite sum, which finite entries can also overflow to, looks
    at every entry. The rate array is fresh, so it is scaled and shifted in
    place: two grid-sized temporaries fewer per stage, with the bits of
    ``values + dt * rate``.
    """
    out = op.rate(values)
    out *= dt
    out += values
    if not math.isfinite(out.sum()) and not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.isfinite(out)))
        raise SimulationDivergedError(
            f"non-finite value at t = {t:.6g}, x = {op.grid.points()[bad]:.6g}"
        )
    return out


def step(op: DiscreteOperator, u: Field, dt: float) -> Field:
    """One convex Euler stage (``dt <= stable_dt(op, 1.0)``), divergence-checked.

    The checked form of the stage ``_euler_stage`` that :func:`evolve`
    repeats on raw arrays; it returns a :class:`Field` at ``u.t + dt``.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, not {dt}")
    limit = stable_dt(op, 1.0)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt:.6g} exceeds the stability bound 1/W = {limit:.6g}"
        )
    op.check_field(u)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _euler_stage(op, u.values, dt, u.t + dt)
    return u.with_values(values, t=u.t + dt)


def _ssp_step(
    op: DiscreteOperator, values: np.ndarray, dt: float, dt_stable: float, t: float
) -> tuple[np.ndarray, int]:
    """One SSPRK(k,2) step of size ``dt`` ending at ``t``; returns the values and k."""
    # a step of a whole number of stage bounds, up to rounding, takes no
    # extra stage; h then exceeds dt_stable by at most the 1e-12 that
    # ``step`` also allows
    k = max(2, 1 + math.ceil(dt / dt_stable * (1.0 - 1e-12)))
    h = dt / (k - 1)
    stage = values
    for _ in range(k):
        stage = _euler_stage(op, stage, h, t)
    # values / k + (k - 1) / k * stage, in the last stage's fresh array
    stage *= (k - 1) / k
    stage += values / k
    return stage, k


def evolve(
    op: DiscreteOperator,
    u0: Field,
    t_final: float,
    output_times: tuple[float, ...] | list[float] = (),
    *,
    safety: float = DEFAULT_SAFETY,
    workers: int = 1,
) -> Trajectory:
    """March ``u0`` to ``t_final``, landing on every requested output time.

    Each step is one SSPRK(k,2) step (see the module docstring) whose Euler
    stages take at most ``stable_dt(op, safety)``. The step is
    ``max(THETA * t, stable_dt)``: it starts at one stage bound, short while
    the front is steepest, and grows with the time reached, the time scale
    on which a self-similar front changes. ``THETA`` (0.75) is a module
    constant, not a keyword; its comment gives the measured errors it was
    chosen from. Steps are truncated (never interpolated) so that each
    snapshot time is hit exactly. The step depends on the absolute time
    only, so a restart from a snapshot reproduces the rest of the run bit
    for bit. ``op.rate`` takes the operator's ``apply_path``. ``workers`` is
    accepted and ignored: every stage transform runs on ``numpy.fft`` in the
    calling thread, so it changes neither the time nor any bit. Every Euler
    stage runs under one ``np.errstate``, set around the stepping loop, and
    overflows silently into its divergence check. The trajectory always
    holds the initial and final states, counts the steps and applies taken
    and the applies whose tail fit refused, and records the step range and
    the most stages a step took.
    """
    snaps = sorted({float(s) for s in output_times} | {float(t_final)})
    if not all(map(math.isfinite, snaps)):
        raise ValueError(f"output times must be finite, not {snaps}")
    if snaps[0] < u0.t:
        raise ValueError(f"output time {snaps[0]} precedes the initial time {u0.t}")

    op.check_field(u0)
    dt_stable = stable_dt(op, safety)
    times = [u0.t]
    states = [u0]
    # step raw arrays; a Field (which validates its values) only per snapshot
    values = u0.values
    steps = applies = k_max = 0
    dt_min, dt_max = math.inf, 0.0
    fallbacks = op._tail_fallbacks()

    t = u0.t
    with np.errstate(over="ignore", invalid="ignore"):
        for target in snaps:
            while t < target:
                dt = max(THETA * t, dt_stable)
                if t + dt >= target - 1e-15 * max(1.0, abs(target)):
                    dt = target - t
                    t = target
                else:
                    t = t + dt
                values, k = _ssp_step(op, values, dt, dt_stable, t)
                steps += 1
                applies += k
                dt_min, dt_max, k_max = min(dt_min, dt), max(dt_max, dt), max(k_max, k)
            if target > times[-1]:
                times.append(target)
                states.append(u0.with_values(values, t=t))
    return Trajectory(
        op.grid,
        np.asarray(times),
        tuple(states),
        operator=op,
        steps=steps,
        applies=applies,
        dt_min=dt_min if steps else 0.0,
        dt_max=dt_max,
        k_max=k_max,
        tail_fallbacks=op._tail_fallbacks() - fallbacks,
    )


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
