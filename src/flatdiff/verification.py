"""Measured pass/fail checks for the three quantitative claims.

Each check consumes solver output (or runs a small dedicated simulation) and
produces a report with the measured quantity, the claimed bound, and the
tolerance that budgets discretization error:

* half-line persistence: a solution starting above a plateau of height ``a``
  on ``(-inf, b]`` stays above ``a/2`` strictly left of ``b`` for all time;
* mirror identity: for a plateau edge smoothed antisymmetrically about
  ``b`` (a closed-form C^inf ramp, see :class:`InitialDatum`), the sum of
  the solution at ``b + x`` and ``b - x`` stays exactly ``a``;
* flattening: at time t the renormalized tail ``x^(2s) u(t, x) / t`` stays
  above ``kappa a`` on a window far inside the grid.

A tail-exponent regression utility supports the decay-rate assertions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .evolution import DEFAULT_SAFETY, Trajectory, evolve, worst_node
from .kernels import KernelSpec
from .mesh import BoundaryModel, Field, Grid
from .operator import discretize
from .subsolution import SubsolutionParams, kappa

__all__ = [
    "InitialDatum",
    "VerificationReport",
    "halfline_bound_check",
    "mirror_identity_check",
    "flattening_ratio",
    "TailFit",
    "tail_exponent_fit",
]

DEFAULT_MOLLIFIER_RADIUS = 0.5


@dataclass(frozen=True, eq=False)
class InitialDatum:
    """Plateau-type initial data of height ``a`` with edge parameter ``b``.

    ``eps == 0`` (``step``) is the sharp plateau; sampling averages it over
    grid cells so the discrete front sits at ``b`` independently of mesh
    alignment (the jump cell may land below ``a``; the guaranteed plateau is
    unaffected). ``eps > 0`` (``mollified_step``) ramps from ``a`` to 0
    across ``[b - eps, b + eps]`` as ``a expit(-4 r / (1 - r^2))`` with
    ``r = (x - b) / eps``: a C^inf, decreasing profile supported exactly on
    the ramp. Since ``expit(-v) = 1 - expit(v)``, it is antisymmetric about
    ``b`` (``u(b + x) + u(b - x) = a``), which is all the mirror identity
    needs. Either way the guaranteed plateau ends at ``b - eps``.
    """

    a: float
    b: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ValueError("datum plateau height must be positive and finite")
        if not np.isfinite(self.b):
            raise ValueError("plateau edge must be finite")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"mollifier radius must be finite and >= 0, not {self.eps}")

    @classmethod
    def step(cls, a: float, b: float) -> "InitialDatum":
        return cls(a, b)

    @classmethod
    def mollified_step(
        cls, a: float, b: float, eps: float = DEFAULT_MOLLIFIER_RADIUS
    ) -> "InitialDatum":
        if not eps > 0:
            raise ValueError("mollifier radius must be positive")
        return cls(a, b, eps)

    @property
    def plateau_edge(self) -> float:
        """Right end of the region where the datum is guaranteed >= a."""
        return self.b - self.eps

    def sample(self, grid: Grid) -> Field:
        """Realize the datum on a grid as a time-zero field."""
        x = grid.points()
        if self.eps == 0.0:
            # cell average of a * 1_{x <= b}: fraction of the cell left of b
            frac = np.clip((self.b - x) / grid.h + 0.5, 0.0, 1.0)
            return Field(grid, 0.0, self.a * frac)
        r = (x - self.b) / self.eps
        vals = np.where(r <= -1.0, self.a, 0.0)
        ramp = np.abs(r) < 1.0
        r = r[ramp]
        vals[ramp] = self.a * expit(-4.0 * r / (1.0 - r * r))
        return Field(grid, 0.0, vals)


@dataclass(frozen=True)
class VerificationReport:
    """One measured claim: value, bound, tolerance, and worst location.

    ``relation`` records the inequality direction: ``lower_bound`` passes
    when ``measured >= bound - tolerance``, ``upper_bound`` when
    ``measured <= bound + tolerance``. ``passed`` is computed from these
    fields, so a report cannot contradict its own numbers.
    """

    check: str
    measured: float
    bound: float
    tolerance: float
    relation: str
    worst_t: float
    worst_x: float
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.relation not in ("lower_bound", "upper_bound"):
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        if self.relation == "lower_bound":
            return self.measured >= self.bound - self.tolerance
        return self.measured <= self.bound + self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def _grid_metadata(grid: Grid) -> dict:
    return {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "h": grid.h}


def halfline_bound_check(
    traj: Trajectory, a: float, b: float, tol: float | None = None
) -> VerificationReport:
    """Persistence of half the plateau strictly left of the edge.

    Scans every positive-time snapshot over grid points x < b and compares
    the minimum against a/2. The tolerance budgets discretization error
    only; it defaults to 0.02 a.
    """
    if tol is None:
        tol = 0.02 * a
    x = traj.grid.points()
    left = x < b
    if not np.any(left):
        raise ValueError("no grid points strictly left of the plateau edge")
    later = np.nonzero(traj.times > 0)[0]
    if later.size == 0:
        raise ValueError("trajectory has no positive-time snapshots")
    worst, worst_t, worst_x = worst_node(
        traj.times[later], [traj.states[k].values[left] for k in later], x[left]
    )
    bound = 0.5 * a
    return VerificationReport(
        check="halfline_lower_bound",
        measured=worst,
        bound=bound,
        tolerance=tol,
        relation="lower_bound",
        worst_t=worst_t,
        worst_x=worst_x,
        details={**_grid_metadata(traj.grid), "a": a, "b": b},
    )


def mirror_identity_check(
    spec: KernelSpec,
    a: float,
    b: float,
    t_final: float,
    grid: Grid,
    *,
    eps: float = DEFAULT_MOLLIFIER_RADIUS,
    tol: float | None = None,
    safety: float = DEFAULT_SAFETY,
) -> VerificationReport:
    """Evolve a symmetrically mollified edge and measure the mirror defect.

    The datum ramps from a to 0 symmetrically about b over radius ``eps``;
    with constant-a left and zero right extensions the continuum solution
    satisfies ``v(t, b + x) + v(t, b - x) = a`` exactly. The check runs its
    own simulation on ``grid`` (symmetric about b; its size picks the apply
    path) and reports the worst absolute defect over all snapshots against
    ``tol``, which defaults to 0.02 a. ``safety`` goes to ``evolve``.
    """
    if tol is None:
        tol = 0.02 * a
    if not grid.is_symmetric_about(b):
        raise ValueError("mirror check needs a grid symmetric about the edge")
    if t_final <= 0:
        raise ValueError("final time must be positive")
    op = discretize(spec, grid, BoundaryModel(left_value=a, right="zero"))
    datum = InitialDatum.mollified_step(a, b, eps).sample(grid)
    traj = evolve(op, datum, t_final, safety=safety)
    worst, worst_t, worst_x = worst_node(
        traj.times,
        [np.abs(state.values + state.values[::-1] - a) for state in traj.states],
        grid.points(),
        largest=True,
    )
    return VerificationReport(
        check="mirror_identity",
        measured=worst,
        bound=0.0,
        tolerance=tol,
        relation="upper_bound",
        worst_t=worst_t,
        worst_x=worst_x,
        details={
            **_grid_metadata(grid),
            "kernel": spec.describe(),
            "a": a,
            "b": b,
            "eps": eps,
        },
    )


def flattening_ratio(
    traj: Trajectory,
    spec: KernelSpec,
    t: float,
    window: tuple[float, float] | None = None,
    *,
    a: float,
    b: float = 0.0,
    tol_rel: float = 0.1,
) -> VerificationReport:
    """Tail-flattening lower bound ``x^(2s) u(t, x) >= kappa a t`` on a window.

    The limit at infinity is operationalized as a minimum over
    ``[x_lo, x_hi]`` with ``x_hi`` well inside the grid. Defaults place the
    window past both the barrier onset radius for scale ``kappa t`` and the
    self-similar scale ``50 t^(1/(2s))``; an explicit window must satisfy
    the same guards. A trajectory that records its operator must have been
    computed for ``spec``; one built by hand records none and is not checked.

    The details also carry the exact limit ``tail_limit = a A / (2s)`` of
    the renormalized tail for a kernel whose tail is exactly
    ``A |z|^(-1-2s)`` (an unbounded ``spec.tail_support``; None for a
    truncated kernel) and ``measured_over_limit``, so that an overshoot
    shows. Neither is gated.
    """
    if t <= 0:
        raise ValueError("flattening bound applies to positive times")
    if traj.operator is not None and traj.operator.spec != spec:
        raise ValueError(
            f"trajectory was computed for kernel {traj.operator.spec.describe()}, "
            f"not {spec.describe()}"
        )
    state = traj.state_at(t)
    s = spec.s
    params = SubsolutionParams(spec, kappa(spec) * t, a, b)
    onset = params.onset + b
    x_max = traj.grid.x_max
    if window is None:
        window = (max(onset, 50.0 * t ** (1.0 / (2.0 * s))), 0.8 * x_max)
    x_lo, x_hi = window
    if x_lo <= 0 or x_lo < onset - 1e-12:
        raise ValueError(
            f"window start {x_lo:g} lies before the barrier onset {onset:g}"
        )
    if x_hi > 0.8 * x_max + 1e-12 * abs(x_max):
        raise ValueError("window end must stay within 0.8 of the grid extent")
    x = traj.grid.points()
    sel = (x >= x_lo) & (x <= x_hi)
    if not np.any(sel):
        raise ValueError("flattening window contains no grid points")
    ratio = x[sel] ** (2.0 * s) * state.values[sel] / t
    i = int(np.argmin(ratio))
    measured = float(ratio[i])
    bound = params.kappa * a
    # a tail exactly A |z|^(-1-2s) gives x^(2s) u / t -> a A / (2s)
    # (Blumenthal & Getoor 1960); a tail support bounded above has no such limit
    tail_limit = None
    if spec.tail_support[1] == math.inf:
        tail_limit = a * spec.amplitude / (2.0 * s)
    return VerificationReport(
        check="flattening_ratio",
        measured=measured,
        bound=bound,
        tolerance=bound * tol_rel,
        relation="lower_bound",
        worst_t=float(t),
        worst_x=float(x[sel][i]),
        details={
            **_grid_metadata(traj.grid),
            "kernel": spec.describe(),
            "a": a,
            "b": b,
            "window": [float(x_lo), float(x_hi)],
            "kappa": params.kappa,
            "tail_limit": tail_limit,
            "measured_over_limit": measured / tail_limit if tail_limit else None,
        },
    )


@dataclass(frozen=True)
class TailFit:
    """Log-log regression of a field tail: u ~ amplitude * x^slope."""

    slope: float
    amplitude: float
    r_squared: float
    n_points: int


def tail_exponent_fit(f: Field, window: tuple[float, float]) -> TailFit:
    """Least-squares decay exponent of the field on a positive window.

    Requires strictly positive values and a window spanning at least one
    decade, so the exponent is identifiable.
    """
    x_lo, x_hi = window
    if x_lo <= 0:
        raise ValueError("tail window must be positive")
    if x_hi < 10.0 * x_lo:
        raise ValueError("tail window must span at least one decade")
    x = f.grid.points()
    sel = (x >= x_lo) & (x <= x_hi)
    if np.count_nonzero(sel) < 2:
        raise ValueError("tail window contains fewer than two grid points")
    u = f.values[sel]
    if np.any(u <= 0):
        raise ValueError("tail fit requires strictly positive values")
    lx = np.log(x[sel])
    lu = np.log(u)
    slope, intercept = np.polyfit(lx, lu, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((lu - fitted) ** 2))
    ss_tot = float(np.sum((lu - lu.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return TailFit(
        slope=float(slope),
        amplitude=float(np.exp(intercept)),
        r_squared=r2,
        n_points=int(np.count_nonzero(sel)),
    )
