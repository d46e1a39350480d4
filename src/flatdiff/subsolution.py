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
the two can cross-validate each other. With ``p = |x|`` the operator splits as

    D w(x) = int_0^p Delta(z) J(z) dz + (1/2 - w(x)) int_p^inf J(z) dz
             + int_p^inf (w(x + z) - w(x)) J(z) dz,

where ``Delta(z) = w(x + z) + w(x - z) - 2 w(x)`` pairs ``+z`` with ``-z`` to
tame the kernel singularity and ``w(x - z) = 1/2`` once ``z >= p``. For
``x < 0`` the first two terms vanish. ``Delta`` is evaluated without
cancellation (see :func:`symmetric_increment`), which lets the quadrature
converge on the ``z^(-1-2s)`` singularity up to ``s -> 1``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .kernels import KernelSpec, eval_kernel, exterior_mass
from .quadrature import integrate_interval, integrate_tail

__all__ = [
    "SubsolutionParams",
    "kappa",
    "w_eval",
    "w_time_derivative",
    "symmetric_increment",
    "nonlocal_apply_to_barrier",
    "ResidualSample",
    "residual_certificate",
    "residual_grid",
    "shifted_subsolution",
]

RESIDUAL_BUDGET_FLOOR = 1e-10
DEFAULT_QUAD_TOL = 1e-8


def _kappa(s: float, j0: float) -> float:
    return 1.0 / (8.0 * s * j0)


def kappa(spec: KernelSpec) -> float:
    """Barrier growth rate ``1 / (8 s J0)`` from the declared tail envelope."""
    return _kappa(spec.s, spec.declared_j0)


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

    @cached_property
    def kappa(self) -> float:
        return _kappa(self.s, self.j0)

    @cached_property
    def t_star(self) -> float:
        return 2.0 * self.c / self.kappa

    @cached_property
    def r_star(self) -> float:
        return (8.0 * self.c * self.j0**2) ** (1.0 / (2.0 * self.s))

    @classmethod
    def from_kernel(
        cls, spec: KernelSpec, c: float, a: float = 1.0, b: float = 0.0
    ) -> "SubsolutionParams":
        return cls(
            s=spec.s, j0=spec.declared_j0, c=c, a=a, b=b, r0=spec.declared_r0
        )


def _barrier_right(kt: float, a: float, x):
    """``kt / (x^a + 2 kt)`` at ``x > 0``, for a float or an array.

    ``np.power`` gives a float the same bits as an array element and
    overflows to ``inf`` (so ``w = 0``) where bare ``**`` raises.
    """
    return kt / (np.power(x, a) + 2.0 * kt)


def w_eval(params: SubsolutionParams, t: float, x) -> np.ndarray | float:
    """Barrier value; 1/2 on the left half line, decaying algebraically right.

    Continuous at the junction, strictly decreasing in ``x`` on ``(0, inf)``,
    nondecreasing in ``t``, with ``x^(2s) w(t, x) -> kappa t``. A ``float``
    ``x`` (``np.float64`` included) gives a ``float`` out, computed without
    building an array and with the same bits as the array path.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    kt, a = params.kappa * t, 2.0 * params.s
    if isinstance(x, float):
        return float(_barrier_right(kt, a, x)) if x > 0 else 0.5
    x_arr = np.asarray(x, dtype=float)
    xp = np.where(x_arr > 0, x_arr, 1.0)
    out = np.where(x_arr > 0, _barrier_right(kt, a, xp), 0.5)
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
    params: SubsolutionParams, t: float, x: float, z: float
) -> float:
    """``w(x+z) + w(x-z) - 2 w(x)``; nonnegative where the profile is convex.

    For ``x > 0`` and ``|z| < x`` the three values nearly cancel as
    ``z -> 0``, so the increment is formed from the differences
    ``d+- = g(x +- |z|) - g(x)`` of ``g(y) = y^a + 2 kappa t``, ``a = 2s``:

        Delta = -kappa t (g(x) e + 2 d+ d-) / (g(x+z) g(x-z) g(x)),

    with ``u = |z|/x``, ``d+- = x^a expm1(a log1p(+-u))`` and
    ``e = d+ + d- = 2 x^a (expm1(S) cosh D + 2 sinh(D/2)^2)``, where
    ``S = (a/2) log1p(-u^2)`` and ``D = a atanh(u)``. Elsewhere the direct
    sum of three barrier values has no cancellation and is used as is.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    z = abs(z)
    if x <= 0 or z >= x:
        return (
            w_eval(params, t, x + z)
            + w_eval(params, t, x - z)
            - 2.0 * w_eval(params, t, x)
        )
    a, kt, u = 2.0 * params.s, params.kappa * t, z / x
    xa = x**a
    d_plus = xa * math.expm1(a * math.log1p(u))
    d_minus = xa * math.expm1(a * math.log1p(-u))
    big_s, big_d = 0.5 * a * math.log1p(-u * u), a * math.atanh(u)
    e = 2.0 * xa * (
        math.expm1(big_s) * math.cosh(big_d) + 2.0 * math.sinh(0.5 * big_d) ** 2
    )
    g = xa + 2.0 * kt
    g_plus, g_minus = (x + z) ** a + 2.0 * kt, (x - z) ** a + 2.0 * kt
    return -kt * (g * e + 2.0 * d_plus * d_minus) / (g_plus * g_minus * g)


def nonlocal_apply_to_barrier(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> float:
    """Evaluate ``(D w)(t, x)`` by adaptive quadrature in the continuum.

    With ``p = |x|``: the symmetric increment against ``J`` on ``(0, p)``,
    split at the kernel's jump radii (1 and the cutoff, when inside); the
    closed-form exterior mass beyond ``p`` times ``1/2 - w(x)``, since the
    left branch sees only the plateau there; and the right far field from
    ``p`` by the 1/z substitution. For ``x < 0`` the first two terms vanish.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    if x == 0.0:
        raise ValueError("the profile kink makes the operator singular at x = 0")
    w_x = w_eval(params, t, x)
    p = abs(x)

    def near_f(z: float) -> float:
        return symmetric_increment(params, t, x, z) * eval_kernel(spec, z)

    def far_f(z: float) -> float:
        return (w_eval(params, t, x + z) - w_x) * eval_kernel(spec, z)

    jumps = [r for r in (1.0, spec.cutoff) if r is not None]
    near, _ = integrate_interval(near_f, 0.0, p, rel_tol=quad_tol, breakpoints=jumps)
    far, _ = integrate_tail(far_f, p, rel_tol=quad_tol)
    return near + (0.5 - w_x) * exterior_mass(spec, p) + far


@dataclass(frozen=True)
class ResidualSample:
    """One certified residual evaluation with its quadrature budget.

    ``passed`` is ``residual <= budget``, so a NaN residual fails.
    """

    t: float
    x: float
    residual: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget

    def as_row(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def residual_certificate(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ResidualSample:
    """Residual plus the tolerance budget ``max(10 tol |D w|, floor)``."""
    dw = nonlocal_apply_to_barrier(spec, params, t, x, quad_tol)
    residual = w_time_derivative(params, t, x) - dw
    budget = max(10.0 * quad_tol * abs(dw), RESIDUAL_BUDGET_FLOOR)
    return ResidualSample(t=t, x=x, residual=residual, budget=budget)


def residual_grid(
    spec: KernelSpec,
    params: SubsolutionParams,
    nt: int = 20,
    nx: int = 20,
    x_max: float | None = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
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
