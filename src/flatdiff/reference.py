"""Independent oracles built on the fractional-Laplacian heat kernel.

The standardized kernel ``p(1, y)`` and its upper tail mass
``S(y) = int_y^inf p(1, v) dv`` are evaluated point by point by one router,
:func:`_standardized`, which picks one of four routes:

* closed forms at s = 1/2 (Cauchy, arctangent) and s = 1 (Gaussian, erfc);
* otherwise, beyond a switch-on point, the Bergström series in ``y^(-2s)``
  (Bergström 1952; Nolan 2020, section 3.10), which keeps relative accuracy
  in the far tail where the flattening bound lives;
* near the origin, where the Bergström series is not accepted, the Taylor
  series at ``y = 0`` (:func:`_taylor`). There the oscillatory quadrature
  below fails silently: its first cycle, ``pi / y`` long, samples the
  integrand only where it has decayed to 0;
* in the rest of the core, Fourier inversion

      p(1, y) = (1/pi) * int_0^inf exp(-xi^(2s)) cos(y xi) dxi

  (and a sine transform for ``S``) by one oscillatory quadrature,
  :func:`_inversion`.

A point takes a series when its smallest term plus the rounding of the
summed terms, ``smallest + eps * sum|terms|``, is at most
``SERIES_REL_TOL`` times the value. The Bergström switch-on point depends
on s (about 1.1 at s = 0.45, 6.1 at s = 0.75 and 9.8 at s = 0.9); the
Taylor series holds the density up to about 0.42, 1.6 and 1.8 there, and
the tail mass up to about 0.45, 2.5 and 2.5. Every route works at t = 1
and is rescaled through the exact self-similarity
``p(t, x) = t^(-1/(2s)) p(1, t^(-1/(2s)) x)``. The series and the
inversion see ``|y|``, and ``S(-y) = 1 - S(y)`` is applied once, after
them. A scalar and an array take the same route per point, so they give
the same bits. Convolving the kernel against a plateau datum
a * 1_{x <= b} yields the reference solution used to cross-validate the
grid solver, and the algebraic kernel tails provide the two-sided envelope
fit and the large-x limit of x^(2s) u(t, x) / t. None of this shares code
with the solver.

Orders are restricted to (0, 1] here; the grid solver itself accepts any
positive order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .quadrature import QuadratureError, fourier_oscillatory_tail

__all__ = [
    "fractional_heat_kernel",
    "reference_solution",
    "heat_kernel_tail_constant",
    "solution_tail_constant",
    "HeatKernelBoundsFit",
    "heat_kernel_bounds_fit",
]

# Bergström and Taylor series: the highest term index and the relative
# error a point must reach to take a series instead of quadrature
SERIES_TERMS = 60
SERIES_REL_TOL = 1e-14


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


def _bergstrom(s: float, y: np.ndarray, density: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bergström series of ``S(y)``, or of ``p(1, y)``, at the points ``y > 0``.

    With alpha = 2s, ``S(y) = (1/pi) sum_k (-1)^(k+1) Gamma(alpha k)/k!
    sin(pi alpha k/2) y^(-alpha k)``, and the density is the same series
    with ``Gamma(alpha k + 1)`` and ``y^(-alpha k - 1)``. The series
    converges for alpha < 1 but is only asymptotic for alpha > 1, so each
    point adds its terms up to, not including, its smallest one (k <=
    SERIES_TERMS). A term's size leaves the sine out: the sine vanishes at
    some k (every even k at s = 1/2) and would fake a small term. Returns
    the sums and the accept mask of the module docstring. Works term by
    term on whole arrays, so memory stays O(len(y)).
    """
    alpha = 2.0 * s
    shift = 1.0 if density else 0.0
    total = np.zeros_like(y)
    spread = np.zeros_like(y)  # sum of the sizes of the added terms
    active = np.ones(y.shape, dtype=bool)
    # y^(-alpha k) may overflow for y < 1; sizes there only grow, so such a
    # point stops at once
    with np.errstate(over="ignore"):
        z = y**-alpha
        power = z.copy()  # z^k
        size = math.gamma(alpha + shift) * power  # size of the pending term
        pending = math.sin(0.5 * math.pi * alpha) * size  # next term to add
        for k in range(2, SERIES_TERMS + 1):
            power *= z
            nxt = (math.gamma(alpha * k + shift) / math.factorial(k)) * power
            # the pending term is not the smallest while the sizes still fall
            active &= nxt < size
            if not active.any():
                break
            total += np.where(active, pending, 0.0)
            spread += np.where(active, size, 0.0)
            sine = math.sin(0.5 * math.pi * alpha * k)
            pending = np.where(active, (sine if k % 2 else -sine) * nxt, pending)
            size = np.where(active, nxt, size)
    accepted = size + np.finfo(float).eps * spread <= SERIES_REL_TOL * np.abs(total)
    if density:
        total /= y
    return total / math.pi, accepted


def _taylor(s: float, y: np.ndarray, density: bool) -> tuple[np.ndarray, np.ndarray]:
    """Taylor series at 0 of ``p(1, y)``, or of ``S(y)``, at the points ``y >= 0``.

    With alpha = 2s, ``p(1, y) = (1/(pi alpha)) sum_k (-1)^k
    Gamma((2k+1)/alpha) y^(2k)/(2k)!`` and ``S(y) = 1/2`` minus the same
    series with ``y^(2k+1)/(2k+1)!``. It converges for alpha > 1 and is
    only asymptotic for alpha < 1, so each point stops at its smallest term
    as in :func:`_bergstrom`, with the same accept rule, measured against
    ``|S|`` so that cancellation in ``1/2 - sum`` rejects a point. At
    ``y = 0`` only the first term is left. Sizes are formed from
    ``lgamma``, so a large ``Gamma`` cannot overflow a float.
    """
    alpha = 2.0 * s
    shift = 0 if density else 1
    with np.errstate(divide="ignore"):
        log_y = np.log(y)

    def size_of(k: int) -> np.ndarray:
        m = 2 * k + shift
        log_coef = math.lgamma((2 * k + 1) / alpha) - math.lgamma(m + 1)
        if m == 0:
            return np.full(y.shape, math.exp(log_coef))
        with np.errstate(over="ignore"):
            return np.exp(log_coef + m * log_y)

    total = np.zeros_like(y)
    spread = np.zeros_like(y)  # sum of the sizes of the added terms
    active = np.ones(y.shape, dtype=bool)
    size = size_of(0)  # size of the pending term
    pending = size  # next term to add
    for k in range(1, SERIES_TERMS + 1):
        nxt = size_of(k)
        active &= nxt < size
        if not active.any():
            break
        total += np.where(active, pending, 0.0)
        spread += np.where(active, size, 0.0)
        pending = np.where(active, -nxt if k % 2 else nxt, pending)
        size = np.where(active, nxt, size)
    scale = math.pi * alpha
    value = total / scale if density else 0.5 - total / scale
    error = (size + np.finfo(float).eps * spread) / scale
    return value, error <= SERIES_REL_TOL * np.abs(value)


def _standardized(s: float, y: np.ndarray, density: bool) -> np.ndarray:
    """``p(1, y)`` or ``S(y)`` at every point of ``y``: the one router.

    The closed forms take s = 1/2 and s = 1. Otherwise each point sees
    ``|y|``: the Bergström series where it is accepted, then the Taylor
    series where that is accepted, :func:`_inversion` elsewhere, and
    ``S(-y) = 1 - S(y)`` is applied once, after the three routes.
    """
    if s == 0.5:
        if density:
            return 1.0 / (math.pi * (1.0 + y * y))
        return 0.5 - np.arctan(y) / math.pi
    if s == 1.0:
        if density:
            return np.exp(-y * y / 4.0) / math.sqrt(4.0 * math.pi)
        return 0.5 * special.erfc(y / 2.0)
    flat = y.ravel()
    mag = np.abs(flat)
    out = np.empty(flat.shape)
    far = mag > 0.0
    series, accepted = _bergstrom(s, mag[far], density)
    far[far] = accepted
    out[far] = series[accepted]
    rest = np.flatnonzero(~far)
    series, accepted = _taylor(s, mag[rest], density)
    out[rest[accepted]] = series[accepted]
    rest = rest[~accepted]
    out[rest] = [_inversion(s, float(v), density)[0] for v in mag[rest]]
    if not density:
        out = np.where(flat < 0.0, 1.0 - out, out)
    return out.reshape(y.shape)


def _inversion(s: float, y: float, density: bool) -> tuple[float, float]:
    """``p(1, y)`` or ``S(y)`` and its quadrature error for 0 < s < 1 and
    ``y > 0``, by one oscillatory quadrature.

    The density is the cosine transform of ``exp(-xi^(2s))``. For the tail
    mass, ``int_y^inf p = 1/2 - (1/pi) int_0^inf e^{-xi^(2s)} sin(y xi)/xi
    dxi`` and ``int_0^inf sin(y xi)/xi dxi = pi/2`` absorb the non-decaying
    part, leaving ``S = -(1/pi)`` times the sine transform of
    ``(exp(-xi^(2s)) - 1)/xi``, which decays at infinity. A result below
    minus its error raises :class:`QuadratureError`.
    """
    alpha = 2.0 * s

    def damped(xi: float) -> float:
        if density:
            return math.exp(-(xi**alpha))
        return (math.exp(-(xi**alpha)) - 1.0) / xi if xi else 0.0

    kind = "cos" if density else "sin"
    val, err = fourier_oscillatory_tail(damped, omega=y, kind=kind)
    if not density:
        val = -val
    if val < -err:
        what = "density" if density else "tail mass"
        raise QuadratureError(f"{what} inversion gave {val / math.pi:.3g} < 0 at y={y}")
    return max(val, 0.0) / math.pi, err / math.pi


def _rescaled(s: float, t: float, x, density: bool):
    """``p(t, x)``, or ``S(t^(-1/(2s)) x)``, through the self-similar map to
    t = 1. A scalar gives a float, an array an array of the same shape."""
    _check_order(s)
    if t <= 0:
        raise ValueError("reference oracles require t > 0")
    scale = t ** (-1.0 / (2.0 * s))
    out = _standardized(s, scale * np.asarray(x, dtype=float), density)
    if density:
        out = scale * out
    return float(out) if np.ndim(x) == 0 else out


def fractional_heat_kernel(s: float, t: float, x):
    """Heat kernel of the order-2s fractional Laplacian at time t, points x.

    Each point takes a closed form, the series or the oscillatory inversion
    after rescaling to t = 1 (see the module docstring). Accepts scalar or
    array x: a scalar gives a float, an array an array of the same shape.
    """
    return _rescaled(s, t, x, density=True)


def reference_solution(s: float, a: float, b: float, t: float, x):
    """Exact solution from the plateau datum ``a`` on ``(-inf, b]``.

    Returns ``a * int_{x-b}^inf p_s(t, y) dy``. Monotone decreasing in x,
    equal to a/2 at x = b, with limits a and 0 at the two infinities.
    Accepts scalar or array x.
    """
    if a < 0:
        raise ValueError("plateau height must be nonnegative")
    return a * _rescaled(s, t, np.asarray(x, dtype=float) - b, density=False)


@dataclass(frozen=True)
class HeatKernelBoundsFit:
    """Two-sided envelope constant and the induced tail-limit check.

    ``c1`` is the smallest constant >= 1 with
    ``g/c1 <= p <= c1 g`` at every sample, where
    ``g(t, x) = 1 / (t^(1/(2s)) (1 + |t^(-1/(2s)) x|^(1+2s)))``.
    ``limit_value`` is ``x^(2s) u(t, x) / t`` for the unit plateau datum at
    the farthest self-similar sample; the envelope forces it to stay above
    ``limit_floor = 1/c1`` up to the relative finite-sample slack
    ``rel_slack``, which ``limit_ok`` checks.
    """

    s: float
    c1: float
    sample_count: int
    decade_span: float
    tail_constant: float
    limit_value: float
    limit_floor: float
    rel_slack: float

    @property
    def limit_ok(self) -> bool:
        return self.limit_value >= self.limit_floor * (1.0 - self.rel_slack)


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
        p = fractional_heat_kernel(s, float(t), xs)
        y = scale * np.abs(xs)
        ys.append(y[y > 0])
        envelope = scale / (1.0 + y ** (1.0 + 2.0 * s))
        ratio = p / envelope
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
        rel_slack=rel_slack,
    )
