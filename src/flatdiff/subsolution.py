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
# The near piece of D w is split where x - z is this many core widths
# (2 kappa t)^(1/(2s)) of the barrier: past it w(x - z) climbs to 1/2 over a
# layer that is narrow against sqrt(x) for large x, and QUADPACK's
# extrapolation gives up on the unsplit interval. Samples raising
# QuadratureError, of 1244 (c = 2; 10 kernels with s from 0.3 to 1; 4 times;
# 33 log-spaced positions from 20 to 1e12, those below the onset left out),
# and integrand calls per sample on the certify layout (s05 / s075 / s1):
#   no split   25 raised   215 / 369 / 289
#   1           3 raised
#   2           0 raised   165 / 373 / 236
#   4           0 raised   139 / 384 / 238
#   8           0 raised   153 / 344 / 239
CORE_WIDTHS = 4.0


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
    ``kappa = 1/(8 s j0)``, ``t_star kappa = 2 c``, ``r_star^(2s) = 8 c j0^2``
    and ``onset = r0 + r_star``, where the validity set starts.
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

    @cached_property
    def onset(self) -> float:
        return self.r0 + self.r_star

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


def _increment(kt: float, a: float, x: float, xa: float, g: float, z: float) -> float:
    """Cancellation-free ``Delta`` of :func:`symmetric_increment` at ``0 < z < x``.

    Takes the sample's constants ``kt = kappa t``, ``a = 2s``, ``xa = x^a``
    and ``g = g(x) = xa + 2 kt``, so that no ``pow`` is called per node.
    """
    u = z / x
    d_plus = xa * math.expm1(a * math.log1p(u))
    l_minus = a * math.log1p(-u)
    d_minus = xa * math.expm1(l_minus)
    big_s, big_d = 0.5 * a * math.log1p(-u * u), a * math.atanh(u)
    e = 2.0 * xa * (
        math.expm1(big_s) * math.cosh(big_d) + 2.0 * math.sinh(0.5 * big_d) ** 2
    )
    g_minus = xa * math.exp(l_minus) + 2.0 * kt
    return -kt * (g * e + 2.0 * d_plus * d_minus) / ((g + d_plus) * g_minus * g)


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
    ``S = (a/2) log1p(-u^2)`` and ``D = a atanh(u)``. ``g(x+z)`` is
    ``g(x) + d+``; ``g(x-z)`` is ``x^a exp(a log1p(-u)) + 2 kappa t``, since
    ``g(x) + d-`` loses every digit as ``z -> x`` once ``x^a`` dwarfs
    ``2 kappa t``. Elsewhere the direct sum of three barrier values has no
    cancellation and is used as is.
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
    a, kt = 2.0 * params.s, params.kappa * t
    xa = x**a
    return _increment(kt, a, x, xa, xa + 2.0 * kt, z)


def nonlocal_apply_to_barrier(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> float:
    """Evaluate ``(D w)(t, x)`` by adaptive quadrature in the continuum.

    With ``p = |x|``: the symmetric increment against ``J`` on ``(0, p)``;
    the closed-form exterior mass beyond ``p`` times ``1/2 - w(x)``, since
    the left branch sees only the plateau there; and the right far field
    from ``p`` by :func:`integrate_tail`. For ``x < 0`` the first two terms
    vanish.

    The near piece runs over ``tau`` with ``z = tau^2`` on ``(0, sqrt(p))``,
    so its ``z^(1-2s)`` end becomes ``tau^(3-4s)``, constant at ``s = 3/4``.
    It is split at ``sqrt(r)`` for the kernel's jump radii ``r`` (the finite
    nonzero ends of ``spec.tail_support``) and for ``r = x - CORE_WIDTHS
    (2 kappa t)^(1/(2s))``, where ``w(x - z)`` enters the barrier's core;
    points outside ``(0, p)`` are dropped. The far piece is split at the
    jump radii beyond ``p``. The sample's constants
    (``a = 2s``, ``kappa t``, ``x^a``, ``g(x)``) are formed once, so a near
    node costs only the ``math`` calls of the cancellation-free increment.

    Integrand calls per sample on the certify layout (c = 2, 20 x 20
    samples, x up to 200), near + tail:

        kernel                      z and 1/v maps    square-root maps
        s = 1/2 unit                171 + 21  = 192   118 + 21 = 139
        s = 0.75 fractional Lapl.   940 + 224 = 1164  363 + 21 = 384
        s = 1 compact flat          360 + 21  = 381   217 + 21 = 238

    The first column split the near piece at 1 and the cutoff, and not at
    the core.
    """
    if t <= 0:
        raise ValueError("barrier is defined for t > 0")
    if x == 0.0:
        raise ValueError("the profile kink makes the operator singular at x = 0")
    w_x = w_eval(params, t, x)
    p = abs(x)
    a, kt = 2.0 * params.s, params.kappa * t
    xa = p**a
    g = xa + 2.0 * kt

    def near_f(tau: float) -> float:
        z = tau * tau
        if z < x:
            inc = _increment(kt, a, x, xa, g, z)
        else:
            inc = symmetric_increment(params, t, x, z)
        return 2.0 * tau * inc * eval_kernel(spec, z)

    def far_f(z: float) -> float:
        return (w_eval(params, t, x + z) - w_x) * eval_kernel(spec, z)

    jumps = [r for r in spec.tail_support if 0.0 < r < math.inf]
    core_edge = x - CORE_WIDTHS * (2.0 * kt) ** (1.0 / a)
    near, _ = integrate_interval(
        near_f,
        0.0,
        math.sqrt(p),
        rel_tol=quad_tol,
        breakpoints=[math.sqrt(r) for r in (*jumps, core_edge) if r > 0.0],
    )
    far, _ = integrate_tail(far_f, p, rel_tol=quad_tol, breakpoints=jumps)
    return near + (0.5 - w_x) * exterior_mass(spec, p) + far


@dataclass(frozen=True)
class ResidualSample:
    """One certified residual evaluation with its quadrature budget.

    ``passed`` is ``residual <= budget``, so a NaN residual fails.
    ``resolved`` is ``residual <= -budget``: the sign is certified by the
    value itself, not only admitted by the budget.
    """

    t: float
    x: float
    residual: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget

    @property
    def resolved(self) -> bool:
        return self.residual <= -self.budget

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
    x_lo = params.onset
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
    shift = params.onset + params.b
    return params.a * w_eval(params, t, np.asarray(x) + shift)
