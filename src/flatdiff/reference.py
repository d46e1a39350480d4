"""Independent oracles built on the fractional-Laplacian heat kernel.

For orders s = 1/2 and s = 1 the kernel has closed forms (Cauchy and
Gaussian). For other orders in (0, 1) it is recovered by Fourier inversion,

    p(t, x) = (1/pi) * int_0^inf exp(-t xi^(2s)) cos(x xi) dxi,

evaluated with oscillatory quadrature after rescaling to t = 1 through the
exact self-similarity p(t, x) = t^(-1/(2s)) p(1, t^(-1/(2s)) x). Convolving
the kernel against a plateau datum a * 1_{x <= b} yields the reference
solution used to cross-validate the grid solver, and the algebraic kernel
tails provide the two-sided envelope fit and the large-x limit of
x^(2s) u(t, x) / t.

Orders are restricted to (0, 1] here; the grid solver itself accepts any
positive order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .quadrature import fourier_oscillatory_tail

__all__ = [
    "HeatKernelEval",
    "fractional_heat_kernel",
    "heat_kernel_profile",
    "reference_solution",
    "heat_kernel_tail_constant",
    "solution_tail_constant",
    "HeatKernelBoundsFit",
    "heat_kernel_bounds_fit",
]


def _check_order(s: float) -> None:
    if not 0.0 < s <= 1.0:
        raise ValueError("reference kernels require an order s in (0, 1]")


def heat_kernel_tail_constant(s: float) -> float:
    """Coefficient K in ``p(1, y) ~ K |y|^(-1-2s)``: Gamma(1+2s) sin(pi s)/pi.

    Vanishes at s = 1, where the Gaussian tail is lighter than any power.
    """
    _check_order(s)
    return special.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s) / math.pi


def solution_tail_constant(s: float) -> float:
    """Limit of ``x^(2s) u(t, x) / (a t)`` for the plateau datum: K / (2s)."""
    return heat_kernel_tail_constant(s) / (2.0 * s)


def _profile(s: float, y: float) -> tuple[float, float]:
    """Standardized density p(1, y) and quadrature error for 0 < s < 1."""
    y = abs(y)
    if y == 0.0:
        return special.gamma(1.0 + 1.0 / (2.0 * s)) / math.pi, 0.0

    def damped(xi: float) -> float:
        return math.exp(-(xi ** (2.0 * s)))

    val, err = fourier_oscillatory_tail(damped, omega=y, kind="cos")
    return max(val, 0.0) / math.pi, err / math.pi


def fractional_heat_kernel(s: float, t: float, x: float) -> float:
    """Heat kernel of the order-2s fractional Laplacian at time t, point x."""
    _check_order(s)
    if t <= 0:
        raise ValueError("kernel evaluation requires t > 0")
    if s == 0.5:
        return t / (math.pi * (t * t + x * x))
    if s == 1.0:
        return math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    scale = t ** (-1.0 / (2.0 * s))
    val, _ = _profile(s, scale * x)
    return scale * val


@dataclass(frozen=True)
class HeatKernelEval:
    """Kernel values on a set of points, tagged with the evaluation route."""

    s: float
    t: float
    x: np.ndarray
    p: np.ndarray
    method: str
    error_estimate: float

    def __post_init__(self) -> None:
        if self.method not in ("closed_form", "fourier_inversion"):
            raise ValueError(f"unknown evaluation method {self.method!r}")
        if self.x.shape != self.p.shape:
            raise ValueError("point and value arrays must align")
        if np.any(self.p < 0):
            raise ValueError("kernel values must be nonnegative")


def heat_kernel_profile(s: float, t: float, x) -> HeatKernelEval:
    """Evaluate the kernel on an array of points.

    Closed forms are used for s in {1/2, 1}; otherwise each point runs the
    oscillatory inversion and the reported error is the worst estimate.
    """
    _check_order(s)
    if t <= 0:
        raise ValueError("kernel evaluation requires t > 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if s == 0.5:
        p = t / (math.pi * (t * t + x_arr * x_arr))
        return HeatKernelEval(s, t, x_arr, p, "closed_form", 0.0)
    if s == 1.0:
        p = np.exp(-x_arr * x_arr / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        return HeatKernelEval(s, t, x_arr, p, "closed_form", 0.0)
    scale = t ** (-1.0 / (2.0 * s))
    vals = np.empty_like(x_arr)
    worst = 0.0
    for i, xi in enumerate(x_arr):
        val, err = _profile(s, scale * xi)
        vals[i] = scale * val
        worst = max(worst, scale * err)
    return HeatKernelEval(s, t, x_arr, vals, "fourier_inversion", worst)


def _survival(s: float, zeta: float) -> float:
    """Upper tail mass ``int_zeta^inf p(1, y) dy`` of the standardized kernel."""
    if s == 0.5:
        return 0.5 - math.atan(zeta) / math.pi
    if s == 1.0:
        return 0.5 * special.erfc(zeta / 2.0)
    if zeta == 0.0:
        return 0.5
    if zeta < 0.0:
        return 1.0 - _survival(s, -zeta)

    # int_z^inf p = 1/2 - (1/pi) int_0^inf e^{-xi^(2s)} sin(z xi)/xi dxi and
    # int_0^inf sin(z xi)/xi dxi = pi/2 absorb the non-decaying part, leaving
    # a sine transform of (e^{-xi^(2s)} - 1)/xi, which decays at infinity.
    def damped_minus_one(xi: float) -> float:
        if xi == 0.0:
            return 0.0
        return (math.exp(-(xi ** (2.0 * s))) - 1.0) / xi

    val, _ = fourier_oscillatory_tail(damped_minus_one, omega=zeta, kind="sin")
    return max(-val / math.pi, 0.0)


def reference_solution(s: float, a: float, b: float, t: float, x):
    """Exact solution from the plateau datum ``a`` on ``(-inf, b]``.

    Returns ``a * int_{x-b}^inf p_s(t, y) dy``. Monotone decreasing in x,
    equal to a/2 at x = b, with limits a and 0 at the two infinities.
    Accepts scalar or array x.
    """
    _check_order(s)
    if t <= 0:
        raise ValueError("reference solution requires t > 0")
    if a < 0:
        raise ValueError("plateau height must be nonnegative")
    scale = t ** (-1.0 / (2.0 * s))
    zeta = (np.asarray(x, dtype=float) - b) * scale
    if s == 0.5:
        out = a * (0.5 - np.arctan(zeta) / math.pi)
    elif s == 1.0:
        out = a * 0.5 * special.erfc(zeta / 2.0)
    else:
        out = a * np.vectorize(lambda z: _survival(s, z))(zeta)
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class HeatKernelBoundsFit:
    """Two-sided envelope constant and the induced tail-limit check.

    ``c1`` is the smallest constant >= 1 with
    ``g/c1 <= p <= c1 g`` at every sample, where
    ``g(t, x) = 1 / (t^(1/(2s)) (1 + |t^(-1/(2s)) x|^(1+2s)))``.
    ``limit_value`` is ``x^(2s) u(t, x) / t`` for the unit plateau datum at
    the farthest self-similar sample; the envelope forces it to stay above
    ``1/c1`` up to the finite-sample slack.
    """

    s: float
    c1: float
    sample_count: int
    decade_span: float
    tail_constant: float
    limit_value: float
    limit_floor: float
    limit_ok: bool


def heat_kernel_bounds_fit(
    s: float, t_samples, x_samples, rel_slack: float = 0.01
) -> HeatKernelBoundsFit:
    """Fit the two-sided kernel envelope over a product sample set.

    The samples must span at least two decades in the self-similar variable
    ``|x| t^(-1/(2s))``. The fitted constant is exact on the samples; the
    limit check evaluates the plateau solution at the farthest sample and
    allows a relative slack for the not-yet-converged limit.
    """
    _check_order(s)
    ts = np.asarray(t_samples, dtype=float)
    xs = np.asarray(x_samples, dtype=float)
    if ts.size == 0 or xs.size == 0:
        raise ValueError("sample sets must be nonempty")
    if np.any(ts <= 0):
        raise ValueError("time samples must be positive")

    ys = []
    c1 = 1.0
    for t in ts:
        scale = t ** (-1.0 / (2.0 * s))
        eval_ = heat_kernel_profile(s, float(t), xs)
        y = scale * np.abs(xs)
        ys.append(y[y > 0])
        envelope = scale / (1.0 + y ** (1.0 + 2.0 * s))
        ratio = eval_.p / envelope
        c1 = max(c1, float(np.max(ratio)), float(np.max(1.0 / ratio)))

    all_y = np.concatenate(ys)
    if all_y.size == 0:
        raise ValueError("need at least one sample away from the origin")
    span = float(np.max(all_y) / np.min(all_y))
    if span < 100.0:
        raise ValueError(
            "samples must span two decades in the self-similar variable, "
            f"got a span factor of {span:.3g}"
        )

    y_far = float(np.max(all_y))
    limit_value = y_far ** (2.0 * s) * reference_solution(s, 1.0, 0.0, 1.0, y_far)
    limit_floor = 1.0 / c1
    return HeatKernelBoundsFit(
        s=s,
        c1=c1,
        sample_count=int(ts.size * xs.size),
        decade_span=span,
        tail_constant=solution_tail_constant(s),
        limit_value=limit_value,
        limit_floor=limit_floor,
        limit_ok=limit_value >= limit_floor * (1.0 - rel_slack),
    )
