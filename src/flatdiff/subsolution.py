"""Explicit traveling lower barrier for heavy-tailed nonlocal diffusion.

The barrier is the spatially decaying profile

    w(t, x) = 1/2                              for x <= 0,
    w(t, x) = kappa t / (x^(2s) + 2 kappa t)   for x > 0,

with rate constant ``kappa = 1 / (8 s J0)`` determined by the kernel's tail
envelope. For a scale parameter ``C`` the profile stays a subsolution of
``d_t u = D u`` for times ``t < t_star = 2 C / kappa`` at distances
``x >= R0 + R_star`` with ``R_star = (8 C J0^2)^(1/(2s))``: there the residual
``d_t w - D w`` is nonpositive. Since ``x^(2s) w(t, x) -> kappa t`` as
``x -> inf``, sliding the barrier under a solution converts an order-``a``
plateau on a half line into the algebraic lower bound
``u(t, x) >= a C / ((x + R0 + R_star + b)^(2s) + 2 C)``.

The residual is evaluated by adaptive quadrature of the defining integral in
the continuum; it is deliberately independent of the grid discretization so
the two can cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, eval_kernel, exterior_mass
from .quadrature import integrate_interval, integrate_tail

__all__ = [
    "SubsolutionParams",
    "kappa",
    "scaling_constants",
    "w_eval",
    "w_time_derivative",
    "symmetric_increment",
    "nonlocal_apply_to_barrier",
    "subsolution_residual",
    "ResidualSample",
    "residual_certificate",
    "residual_grid",
    "shifted_subsolution",
]

RESIDUAL_BUDGET_FLOOR = 1e-10


def _kappa(s: float, j0: float) -> float:
    return 1.0 / (8.0 * s * j0)


def kappa(spec: KernelSpec) -> float:
    """Barrier growth rate ``1 / (8 s J0)`` from the declared tail envelope."""
    return _kappa(spec.s, spec.declared_j0)


def scaling_constants(spec: KernelSpec, c: float) -> tuple[float, float]:
    """Validity scales ``(t_star, r_star)`` for barrier scale ``c``.

    ``t_star * kappa = 2 c`` and ``r_star^(2s) = 8 c J0^2`` hold exactly.
    """
    if c <= 0:
        raise ValueError("barrier scale must be positive")
    params = SubsolutionParams.from_kernel(spec, c)
    return params.t_star, params.r_star


@dataclass(frozen=True)
class SubsolutionParams:
    """Barrier constants for one kernel envelope and one plateau datum.

    ``a`` and ``b`` describe the plateau (height ``a`` on ``(-inf, b]``);
    ``r0`` is the kernel's lower-envelope onset radius. Derived fields obey
    ``kappa = 1/(8 s j0)``, ``t_star kappa = 2 c``, ``r_star^(2s) = 8 c j0^2``.
    """

    s: float
    j0: float
    c: float
    a: float = 1.0
    b: float = 0.0
    r0: float = 2.0

    def __post_init__(self) -> None:
        if self.s <= 0 or self.j0 <= 0 or self.c <= 0:
            raise ValueError("s, j0 and c must be positive")
        if self.a <= 0:
            raise ValueError("plateau height must be positive")
        if self.r0 <= 1:
            raise ValueError("lower-envelope onset radius must exceed 1")

    @property
    def kappa(self) -> float:
        return _kappa(self.s, self.j0)

    @property
    def t_star(self) -> float:
        return 2.0 * self.c / self.kappa

    @property
    def r_star(self) -> float:
        return (8.0 * self.c * self.j0**2) ** (1.0 / (2.0 * self.s))

    @classmethod
    def from_kernel(
        cls, spec: KernelSpec, c: float, a: float = 1.0, b: float = 0.0
    ) -> "SubsolutionParams":
        return cls(
            s=spec.s, j0=spec.declared_j0, c=c, a=a, b=b, r0=spec.declared_r0
        )


def w_eval(params: SubsolutionParams, t: float, x) -> np.ndarray | float:
    """Barrier value; 1/2 on the left half line, decaying algebraically right.

    Continuous at the junction, strictly decreasing in ``x`` on ``(0, inf)``,
    nondecreasing in ``t``, with ``x^(2s) w(t, x) -> kappa t``.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    x_arr = np.asarray(x, dtype=float)
    kt = params.kappa * t
    xp = np.where(x_arr > 0, x_arr, 1.0)
    right = kt / (xp ** (2.0 * params.s) + 2.0 * kt)
    out = np.where(x_arr > 0, right, 0.5)
    if x_arr.ndim == 0:
        return float(out)
    return out


def w_time_derivative(params: SubsolutionParams, t: float, x: float) -> float:
    """Exact ``d_t w``: ``kappa x^(2s) / (x^(2s) + 2 kappa t)^2`` for x > 0."""
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    if x <= 0:
        return 0.0
    xs = x ** (2.0 * params.s)
    return params.kappa * xs / (xs + 2.0 * params.kappa * t) ** 2


def symmetric_increment(
    params: SubsolutionParams, t: float, x: float, z
) -> np.ndarray | float:
    """``w(x+z) + w(x-z) - 2 w(x)``; nonnegative where the profile is convex."""
    return (
        w_eval(params, t, np.asarray(x) + np.asarray(z))
        + w_eval(params, t, np.asarray(x) - np.asarray(z))
        - 2.0 * w_eval(params, t, x)
    )


def nonlocal_apply_to_barrier(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = 1e-8,
) -> float:
    """Evaluate ``(D w)(t, x)`` by adaptive quadrature in the continuum.

    The integration domain is split at the natural breakpoints: a symmetric
    inner window that pairs ``+z`` with ``-z`` (taming the kernel
    singularity), the finite annulus out to ``max(x, r_star)``, the left far
    field where the barrier equals 1/2 so only a closed-form tail mass is
    needed, and the right far field handled by the 1/z substitution.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    if x == 0.0:
        raise ValueError("the profile kink makes the operator singular at x = 0")
    w_x = float(w_eval(params, t, x))

    def j(z: float) -> float:
        return float(eval_kernel(spec, z))

    if x < 0:
        lo = -x
        mid_hi = lo + params.r_star

        def right_branch(z: float) -> float:
            return (float(w_eval(params, t, x + z)) - 0.5) * j(z)

        near, _ = integrate_interval(right_branch, lo, mid_hi, rel_tol=quad_tol)
        far, _ = integrate_tail(right_branch, mid_hi, rel_tol=quad_tol)
        return near + far

    r = params.r_star
    m, big = min(x, r), max(x, r)

    def sym(z: float) -> float:
        return float(symmetric_increment(params, t, x, z)) * j(z)

    inner, _ = integrate_interval(sym, 0.0, m, rel_tol=quad_tol)

    annulus = 0.0
    if big > m:
        def one_sided(sign: float):
            def f(z: float) -> float:
                return (float(w_eval(params, t, x + sign * z)) - w_x) * j(z)
            return f

        right_val, _ = integrate_interval(one_sided(+1.0), m, big, rel_tol=quad_tol)
        left_val, _ = integrate_interval(one_sided(-1.0), m, big, rel_tol=quad_tol)
        annulus = right_val + left_val

    # beyond max(x, r_star) the left branch sees only the 1/2 plateau
    left_far = (0.5 - w_x) * exterior_mass(spec, big)

    def right_far_f(z: float) -> float:
        return (float(w_eval(params, t, x + z)) - w_x) * j(z)

    right_far, _ = integrate_tail(right_far_f, big, rel_tol=quad_tol)
    return inner + annulus + left_far + right_far


def subsolution_residual(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = 1e-8,
) -> float:
    """``d_t w - D w`` with analytic time derivative and quadrature operator.

    Nonpositive (up to quadrature budget) for ``0 < t < t_star`` and
    ``x >= r0 + r_star``; carries no sign claim elsewhere.
    """
    return w_time_derivative(params, t, x) - nonlocal_apply_to_barrier(
        spec, params, t, x, quad_tol
    )


@dataclass(frozen=True)
class ResidualSample:
    """One certified residual evaluation with its quadrature budget."""

    t: float
    x: float
    residual: float
    budget: float
    passed: bool

    def as_row(self) -> dict:
        return {
            "t": self.t,
            "x": self.x,
            "residual": self.residual,
            "budget": self.budget,
            "pass": self.passed,
        }


def residual_certificate(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = 1e-8,
) -> ResidualSample:
    """Residual plus the tolerance budget ``max(10 tol |D w|, floor)``."""
    dw = nonlocal_apply_to_barrier(spec, params, t, x, quad_tol)
    residual = w_time_derivative(params, t, x) - dw
    budget = max(10.0 * quad_tol * abs(dw), RESIDUAL_BUDGET_FLOOR)
    return ResidualSample(
        t=t, x=x, residual=residual, budget=budget, passed=residual <= budget
    )


def residual_grid(
    spec: KernelSpec,
    params: SubsolutionParams,
    nt: int = 20,
    nx: int = 20,
    x_max: float | None = None,
    quad_tol: float = 1e-8,
) -> list[ResidualSample]:
    """Certify the residual sign on an ``nt x nx`` sample of the validity set.

    Times fill the open interval ``(0, t_star)``; positions span
    ``[r0 + r_star, x_max]``.
    """
    if nt < 1 or nx < 1:
        raise ValueError("sample counts must be positive")
    x_lo = params.r0 + params.r_star
    if x_max is None:
        x_max = 10.0 * x_lo
    if x_max < x_lo:
        raise ValueError("x_max lies below the validity onset r0 + r_star")
    times = params.t_star * np.arange(1, nt + 1) / (nt + 1)
    positions = np.linspace(x_lo, x_max, nx)
    return [
        residual_certificate(spec, params, float(t), float(x), quad_tol)
        for t in times
        for x in positions
    ]


def shifted_subsolution(params: SubsolutionParams, t: float, x) -> np.ndarray | float:
    """Barrier slid under the solution: ``a * w(t, x + r0 + r_star + b)``.

    At ``t_star / 2`` this equals
    ``a c / ((x + r0 + r_star + b)^(2s) + 2 c)``, the certified lower bound
    for a solution that started above ``a`` on ``(-inf, b]``.
    """
    shift = params.r0 + params.r_star + params.b
    return params.a * w_eval(params, t, np.asarray(x) + shift)
