"""Independent oracles built on the fractional-Laplacian heat kernel.

The standardized kernel ``p(1, y)`` and its upper tail mass
``S(y) = int_y^inf p(1, v) dv`` are evaluated by one router,
:func:`_standardized`, which sends each point to one of four routes:

* closed forms at s = 1/2 (Cauchy, arctangent) and s = 1 (Gaussian, erfc);
* otherwise, beyond a switch-on point, the Bergström series in ``y^(-2s)``
  (Bergström 1952; Nolan 2020, section 3.10), which keeps relative accuracy
  in the far tail where the flattening bound lives;
* near the origin, where the Bergström series is not accepted, the Taylor
  series at ``y = 0`` (:func:`_taylor`). It stays although the integral
  below reaches most of its points: alone, the integral misreads the
  density at tiny ``y`` without raising (by 1.1e-6 relative at s = 0.75
  from y = 1e-12 down);
* in the rest of the core, Zolotarev's integral over ``theta`` in
  ``(0, pi/2)`` (Zolotarev 1986; Nolan 1997), whose integrand is smooth and
  not oscillatory: :func:`_zolotarev` takes the core points it is given in
  one batch, finds each one's peak by a sorted search of a log-spaced
  section and a fixed number of Newton steps, and splits it there for one
  call of the vectorized Gauss-Kronrod rule
  :func:`~flatdiff.quadrature.integrate_panels`.

A point takes a series when its smallest term plus the rounding of the
summed terms, ``smallest + eps * sum|terms|``, is at most
``SERIES_REL_TOL`` times the value. Both series form every term of their
points at once, as a (term x point) array, and add the terms row by row,
so each point gets the bits of a loop over its terms. The router alone
blocks: every route gets at most ``SERIES_BLOCK`` (512) of a call's sorted
distinct ``|y|`` at once, so memory does not grow with the call.
The Bergström switch-on point depends on s (about 1.1 at s = 0.45, 6.1 at
s = 0.75 and 9.8 at s = 0.9); the Taylor series holds the density up to
about 0.42, 1.6 and 1.8 there, and the tail mass up to about 0.45, 2.5 and
2.5. Every route works at t = 1 and is rescaled through the exact
self-similarity ``p(t, x) = t^(-1/(2s)) p(1, t^(-1/(2s)) x)``. Each
distinct ``|y|`` of a call goes through the routes once; the values are
scattered back to the points, and ``S(-y) = 1 - S(y)`` is applied after
that. A scalar and an array take the same route per point, and a point's
series terms and quadrature panels are summed apart from the other
points', so they give the same bits in any slice.

Convolving the kernel against a plateau datum a * 1_{x <= b} yields the
reference solution used to cross-validate the grid solver, and
:func:`heat_kernel_tail_constant` gives the coefficient of the kernel's
algebraic tail. None of this shares code with the solver.

Orders are restricted to (0, 1] here; the grid solver itself accepts any
positive order.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .quadrature import QuadratureError, integrate_panels

__all__ = [
    "fractional_heat_kernel",
    "reference_solution",
    "heat_kernel_tail_constant",
]

# Bergström and Taylor series: the highest term index and the relative
# error a point must reach to take a series instead of quadrature
SERIES_TERMS = 60
SERIES_REL_TOL = 1e-14
# the router hands all three routes at most this many distinct |y| at once,
# so that a call holds O(SERIES_TERMS * SERIES_BLOCK) floats whatever its size
SERIES_BLOCK = 512
# Zolotarev's integral: the relative tolerance of its quadrature; its
# breakpoints, as multiples of the distance u* from the peak to the nearer
# end, as fractions of pi/2 from a far end where g -> 0, and as the values
# of log g they mark near the peak; and the search for u*: the section of
# 4096 log-spaced u in [1e-300, pi/4] whose log V brackets it, 0.17 wide in
# log u, then Newton steps.
#
# The multiples 3, 4.5 and 6.5 split the panel from 2u* to 10u*, which
# alone does not converge in the first pass for the tail mass at s = 0.75
# and y from 2.5 to 6.5. Passes and panels of integrate_panels for the tail
# mass, with the layout without them (and three section rounds and false
# position in place of Newton steps), then with this one:
#
#   points                                       passes    panels
#   tail workload's 20 core points, s = 0.75     3 -> 1    252 -> 256
#   20 y log-spaced in [0.05, 3], s = 0.3        4 -> 4    373 -> 376
#                                 s = 0.6        3 -> 2    337 -> 330
#                                 s = 0.9        6 -> 6    471 -> 470
#                                 s = 0.99       7 -> 7    579 -> 572
ZOLOTAREV_REL_TOL = 1e-13
_PEAK_MULTIPLES = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 6.5, 10.0, 100.0, 1e3])
_FAR_END_FRACTIONS = np.array([0.1, 1e-2, 1e-3])
_PEAK_LEVELS = np.array([-40.0, -10.0, -3.0, -1.0, 1.0, 2.0, 4.0])
_PEAK_SEARCH_FLOOR = 1e-300
_NEWTON_STEPS = 3
_SECTION_LOG_U = np.linspace(math.log(_PEAK_SEARCH_FLOOR), math.log(0.25 * math.pi), 4096)
_SECTION_U = np.exp(_SECTION_LOG_U)
# sin(b d) and sin(b d / 2) of the offset form, in one call
_HALVES = np.array([1.0, 0.5])[:, None, None, None]


def _check_order(s: float) -> None:
    if not 0.0 < s <= 1.0:
        raise ValueError("reference kernels require an order s in (0, 1]")


def heat_kernel_tail_constant(s: float) -> float:
    """Coefficient K in ``p(1, y) ~ K |y|^(-1-2s)``: Gamma(1+2s) sin(pi s)/pi.

    Vanishes at s = 1, where the Gaussian tail is lighter than any power.
    """
    _check_order(s)
    return special.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s) / math.pi


@functools.lru_cache(maxsize=64)
def _bergstrom_coefficients(alpha: float, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Size coefficients ``Gamma(alpha k + shift)/k!`` of the Bergström terms
    k = 1..SERIES_TERMS, and the signed sines ``(-1)^(k+1) sin(pi alpha k/2)``."""
    ks = range(1, SERIES_TERMS + 1)
    coef = np.array([math.gamma(alpha * k + shift) / math.factorial(k) for k in ks])
    sines = np.array([math.sin(0.5 * math.pi * alpha * k) for k in ks])
    sines[1::2] *= -1.0
    coef.flags.writeable = sines.flags.writeable = False
    return coef, sines


@functools.lru_cache(maxsize=64)
def _taylor_coefficients(alpha: float, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Log size coefficients ``lgamma((2k+1)/alpha) - lgamma(m+1)`` of the
    Taylor terms k = 0..SERIES_TERMS, and their exponents ``m = 2k + shift``."""
    ms = [2 * k + shift for k in range(SERIES_TERMS + 1)]
    log_coef = np.array(
        [math.lgamma((2 * k + 1) / alpha) - math.lgamma(m + 1) for k, m in enumerate(ms)]
    )
    exponents = np.array(ms, dtype=float)
    log_coef.flags.writeable = exponents.flags.writeable = False
    return log_coef, exponents


def _sum_to_smallest(sizes: np.ndarray, terms: np.ndarray):
    """Sum each column of a (term x point) block up to, not including, its
    smallest term: the terms before the first size that does not fall.

    Returns the sums, the sums of the added sizes and the smallest sizes.
    The rows are added one by one, as a loop over terms adds them, so every
    column gets the same bits whatever the number of columns;
    ``sum(axis=0)`` would add a lone column pairwise. Zeroes the entries of
    ``sizes`` and ``terms`` that are not added.
    """
    falling = np.logical_and.accumulate(sizes[1:] < sizes[:-1], axis=0)
    last = np.count_nonzero(falling, axis=0)
    smallest = np.take_along_axis(sizes, last[None], axis=0)[0]
    np.copyto(terms[:-1], 0.0, where=~falling)
    np.copyto(sizes[:-1], 0.0, where=~falling)
    total = np.zeros(last.shape)
    spread = np.zeros(last.shape)
    for k in range(last.max(initial=0)):
        total += terms[k]
        spread += sizes[k]
    return total, spread, smallest


def _bergstrom(s: float, y: np.ndarray, density: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bergström series of ``S(y)``, or of ``p(1, y)``, at the points ``y > 0``.

    With alpha = 2s, ``S(y) = (1/pi) sum_k (-1)^(k+1) Gamma(alpha k)/k!
    sin(pi alpha k/2) y^(-alpha k)``, and the density is the same series
    with ``Gamma(alpha k + 1)`` and ``y^(-alpha k - 1)``. The series
    converges for alpha < 1 but is only asymptotic for alpha > 1, so each
    point adds its terms up to, not including, its smallest one (k <=
    SERIES_TERMS). A term's size leaves the sine out: the sine vanishes at
    some k (every even k at s = 1/2) and would fake a small term. Returns
    the sums and the accept mask of the module docstring. All terms of the
    slice are formed at once; the powers ``z^k`` are running products, as
    a loop of ``power *= z`` would form them.
    """
    alpha = 2.0 * s
    shift = 1.0 if density else 0.0
    coef, sines = _bergstrom_coefficients(alpha, shift)
    # y^(-alpha k) may overflow for y < 1; sizes there only grow, so such a
    # point stops at once
    with np.errstate(over="ignore"):
        z = y ** -alpha
        sizes = np.empty((SERIES_TERMS, z.size))
        sizes[0] = z
        for k in range(1, SERIES_TERMS):
            np.multiply(sizes[k - 1], z, out=sizes[k])
        sizes *= coef[:, None]
        terms = sines[:, None] * sizes
    total, spread, size = _sum_to_smallest(sizes, terms)
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
    log_coef, exponents = _taylor_coefficients(alpha, shift)
    # the density's first term, y^0, is a constant
    first = 1 if density else 0
    signs = np.where(np.arange(SERIES_TERMS + 1) % 2, -1.0, 1.0)[:, None]
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    sizes = np.empty((SERIES_TERMS + 1, y.size))
    if density:
        sizes[0] = math.exp(log_coef[0])
    with np.errstate(over="ignore"):
        np.exp(log_coef[first:, None] + exponents[first:, None] * log_y, out=sizes[first:])
    total, spread, size = _sum_to_smallest(sizes, signs * sizes)
    scale = math.pi * alpha
    value = total / scale if density else 0.5 - total / scale
    error = (size + np.finfo(float).eps * spread) / scale
    return value, error <= SERIES_REL_TOL * np.abs(value)


def _standardized(s: float, y: np.ndarray, density: bool) -> np.ndarray:
    """``p(1, y)`` or ``S(y)`` at every point of ``y``: the one router.

    The closed forms take s = 1/2 and s = 1. Otherwise each distinct
    ``|y|`` goes through the routes once, in sorted slices of
    ``SERIES_BLOCK``: the Bergström series where it is accepted, then the
    Taylor series where that is accepted, :func:`_zolotarev` elsewhere.
    The values are scattered back to the points, and ``S(-y) = 1 - S(y)``
    is applied once, after that.
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
    mag, inverse = np.unique(np.abs(flat), return_inverse=True)
    out = np.empty(mag.shape)
    for start in range(0, mag.size, SERIES_BLOCK):
        part = mag[start : start + SERIES_BLOCK]
        value = out[start : start + SERIES_BLOCK]
        far = part > 0.0
        series, accepted = _bergstrom(s, part[far], density)
        far[far] = accepted
        value[far] = series[accepted]
        rest = np.flatnonzero(~far)
        series, accepted = _taylor(s, part[rest], density)
        value[rest[accepted]] = series[accepted]
        rest = rest[~accepted]
        if rest.size:
            value[rest] = _zolotarev(s, part[rest], density)
    out = out[inverse]
    if not density:
        out = np.where(flat < 0.0, 1.0 - out, out)
    return out.reshape(y.shape)


def _zolotarev_log_g(x: np.ndarray, log_scale, alpha: float) -> np.ndarray:
    """``log g`` of :func:`_zolotarev`, from the arguments ``x`` of the sines
    that form the factors ``cos theta``, ``sin(alpha theta)`` and
    ``cos((alpha - 1) theta)`` of ``V``, stacked on the first axis.

    The stack takes one ``sin`` and one ``log``, and its rows are added in
    the order of ``log V``. Stacked on a last axis of three, the factors
    would cost more to sum with numpy than to form, and ``@`` sums in an
    order that depends on the shape, so a point would not get the same bits
    alone and in a batch.
    """
    factors = np.log(np.sin(x))
    return (
        log_scale
        + factors[0] / (alpha - 1.0)
        - alpha / (alpha - 1.0) * factors[1]
        + factors[2]
    )


@functools.lru_cache(maxsize=64)
def _zolotarev_section(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The phases ``a`` and ``b`` of the sines ``sin(a + b u)`` of
    :func:`_zolotarev_log_g`, plain (``theta = u``) and flipped (``theta =
    pi/2 - u``) in two columns, and the rise of ``log V`` over
    ``_SECTION_U``, plain and flipped in two rows.

    Flipped, ``sin(alpha theta) = sin(pi - alpha theta)``, and ``cos(x) =
    sin(pi/2 - x)`` throughout. The rise is ``log V`` with the sign that
    makes it grow with ``u``: ``g`` rises with ``theta`` for alpha < 1 and
    falls for alpha > 1. A running maximum keeps it sorted where rounding
    stirs a flat stretch (s = 1, flipped, below u = 1e-8). The tables
    depend on the order alone, so each order builds them once, in about
    0.4 ms (24 576 sines).
    """
    alpha = 2.0 * s
    half_pi = 0.5 * math.pi
    reflect = (1.0 - s) * math.pi
    phase_a = np.array([[half_pi, 0.0], [0.0, reflect], [half_pi, reflect]])
    phase_b = np.array([[-1.0, 1.0], [alpha, alpha], [alpha - 1.0, alpha - 1.0]])
    log_v = _zolotarev_log_g(phase_a[..., None] + phase_b[..., None] * _SECTION_U, 0.0, alpha)
    rising = alpha < 1.0
    rise = np.maximum.accumulate(np.where([[not rising], [rising]], -log_v, log_v), axis=1)
    for table in (phase_a, phase_b, rise):
        table.flags.writeable = False
    return phase_a, phase_b, rise


def _zolotarev(s: float, y: np.ndarray, density: bool) -> np.ndarray:
    """``p(1, y)`` or ``S(y)`` at the points ``y > 0`` for ``s != 1/2``, by
    Zolotarev's integral over a finite interval, the slice in one batch.

    With alpha = 2s and ``ex = alpha / (alpha - 1)``, let ``g = y^ex V(theta)``
    on ``(0, pi/2)``, where ``log V = log(cos theta) / (alpha - 1)
    - ex log sin(alpha theta) + log cos((alpha - 1) theta)`` (Zolotarev 1986;
    Nolan 1997, Theorem 1). Then ``p(1, y) = alpha / (pi |alpha - 1| y)
    int g e^-g``, and ``S(y) = (1/pi) int e^-g`` for alpha > 1 or
    ``(1/pi) int -expm1(-g)`` for alpha < 1.

    The integrands are smooth and not oscillatory, but they peak, or step,
    where ``g = 1``, which can lie within 1e-4 of an end and near s = 1/2
    is only about ``|2s - 1| u*`` wide. Without breakpoints the adaptive
    rule reads the density as 0, with an error estimate of about 0, at
    s = 0.3 and 0.45 for small y and at s = 0.99 for y = 100. ``g`` runs
    monotonically from 0 at one end to infinity at the other, so a sorted
    search of the order's ``log V`` over a log-spaced section brackets the
    peak ``u*`` in the distance ``u`` from the nearer end, where every
    factor of ``V`` is the sine of an argument formed without cancellation,
    and ``_NEWTON_STEPS`` safeguarded Newton steps on ``log g`` in
    ``log u`` take it to rounding. Their number is fixed, so that a point's
    peak, and so its bits, do not depend on the other points of the
    batch. Each point is split at ``_PEAK_MULTIPLES`` times ``u*``, where
    ``log g`` reaches ``_PEAK_LEVELS`` by its slope at ``u*``, and, where
    the far end is the one with ``g -> 0`` (g is a power of the distance
    there, with a pole just beyond it at s near 1), at
    ``_FAR_END_FRACTIONS`` of pi/2 from that end. The quadrature runs over
    ``u - u*``, from which ``log g`` is formed near the peak, so that
    neither the nodes nor the logarithms carry rounding scaled by
    ``1 / |2s - 1|``. A point whose peak lies below the search range or is
    not resolved, or whose quadrature does not converge, raises
    :class:`QuadratureError`. At s = 1 this is Craig's formula for the
    Gaussian tail mass; there ``g >= y^2/4``, so a point with ``y >= 2`` has
    no peak to miss.
    """
    alpha = 2.0 * s
    ex = alpha / (alpha - 1.0)
    half_pi = 0.5 * math.pi
    phase_a, phase_b, rise_v = _zolotarev_section(s)
    log_scale = ex * np.log(y)
    # the peak is past pi/4 when g(pi/4) is on the side of 1 that theta = 0
    # is on
    rising = alpha < 1.0
    quarter = phase_a[:, :1] + phase_b[:, :1] * (0.25 * math.pi)
    flip = (_zolotarev_log_g(quarter, log_scale, alpha) < 0.0) == rising
    a = np.where(flip, phase_a[:, 1:], phase_a[:, :1])
    b = np.where(flip, phase_b[:, 1:], phase_b[:, :1])
    # g falls with u, towards 0 at the far end, where flip == rising; the
    # search runs on the rise, sign * log g, which grows with u. Over the
    # section it is sign * log y^ex plus the order's table, so each point's
    # bracket, the interval (k - 1, k) where the rise first reaches 0, is a
    # sorted search.
    falls = flip == rising
    sign = np.where(falls, -1.0, 1.0)
    rise_y = sign * log_scale
    k = np.empty(y.shape, dtype=np.intp)
    for flipped in (False, True):
        rows = flip == flipped
        k[rows] = np.searchsorted(rise_v[int(flipped)], -rise_y[rows])
    if alpha != 2.0 and (k == 0).any():
        raise QuadratureError(
            f"Zolotarev integral at y={y[np.argmax(k == 0)]}: the peak lies "
            f"below u = {_PEAK_SEARCH_FLOOR}"
        )
    k = np.clip(k, 1, _SECTION_U.size - 1)
    lo, hi = _SECTION_LOG_U[k - 1], _SECTION_LOG_U[k]
    orientation = flip.astype(np.intp)
    rise_lo = rise_y + rise_v[orientation, k - 1]
    rise_hi = rise_y + rise_v[orientation, k]
    # Newton's method on the rise in log u, whose slope is u sum(sign c b
    # cot(a + b u)) with c = (1/(alpha - 1), -ex, 1), from false position on
    # the bracket. A step that leaves the bracket, as a slope that is not
    # finite and positive makes it, bisects the bracket instead; a bracket
    # without a sign change (s = 1, y >= 2) stays at its lower end. The step
    # count is fixed, so that a point's peak does not depend on the batch.
    slope_weights = sign * b * np.array([[1.0 / (alpha - 1.0)], [-ex], [1.0]])
    bracketed = rise_lo < 0.0
    step = rise_lo * (hi - lo) / np.where(bracketed, rise_hi - rise_lo, 1.0)
    log_peak = np.where(bracketed, lo - step, lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            u = np.exp(log_peak)
            x = a + b * u
            rise = sign * _zolotarev_log_g(x, log_scale, alpha)
            weighted = slope_weights / np.tan(x)
            slope = u * (weighted[0] + weighted[1] + weighted[2])
            up = rise >= 0.0
            lo, hi = np.where(up, lo, log_peak), np.where(up, log_peak, hi)
            newton = log_peak - rise / slope
            log_peak = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    peak = np.exp(log_peak)
    x = a + b * peak
    cot_peak = 1.0 / np.tan(x)
    log_g_peak = _zolotarev_log_g(x, log_scale, alpha)
    # the level cuts below need the peak to within a fraction of its width
    missed = bracketed & (np.abs(log_g_peak) > 0.1)
    if missed.any():
        raise QuadratureError(
            f"Zolotarev integral at y={y[np.argmax(missed)]}: log g is "
            f"{log_g_peak[np.argmax(missed)]:.3g} at the peak found"
        )
    # the slope at the peak: log g moves by 1 over 1/slope in log u, which
    # near s = 1/2 is far below the multiples' spacing. A slope under 1 puts
    # every level past the clip, so it is raised to 1.
    weighted = slope_weights * cot_peak
    slope = np.fmax(peak * (weighted[0] + weighted[1] + weighted[2]), 1.0)
    # the breakpoints: multiples of u*, where log g crosses _PEAK_LEVELS, by
    # the slope, within [u*/2, 2u*], and the far-end cuts, all within
    # [0, pi/2] and sorted
    shift = (sign / slope)[:, None] * _PEAK_LEVELS
    levels = np.exp(np.clip(shift, -math.log(2.0), math.log(2.0)))
    far = np.where(falls[:, None], half_pi - half_pi * _FAR_END_FRACTIONS, half_pi)
    edges = np.concatenate(
        (np.zeros((y.size, 1)), peak[:, None] * _PEAK_MULTIPLES, peak[:, None] * levels,
         far, np.full((y.size, 1), half_pi)),
        axis=1,
    )
    np.minimum(edges, half_pi, out=edges)
    edges.sort(axis=1)

    # the quadrature runs over d = u - u*, so that the nodes near the peak
    # are not rounded to the spacing of floats near u*; within u*/2 of the
    # peak, where d is exact, log g - log g(u*) is formed factor by factor
    # from sin(x* + b d) / sin(x*) = 1 + cot(x*) sin(b d) - 2 sin(b d / 2)^2,
    # as log g itself carries the rounding of its logarithms times 1/|2s - 1|
    edges -= peak[:, None]

    def log_g_near(d, rows):
        bd = b[:, rows] * d
        sines = np.sin(bd * _HALVES)
        ratio = np.log1p(cot_peak[:, rows] * sines[0] - 2.0 * sines[1] ** 2)
        return log_g_peak[rows] + ratio[0] / (alpha - 1.0) - ex * ratio[1] + ratio[2]

    def integrand(d, owner):
        # a panel wholly within u*/2 of the peak takes the offset form
        half = 0.5 * peak[owner]
        near = (np.abs(d[:, 0]) <= half) & (np.abs(d[:, -1]) <= half)
        log_gu = np.empty(d.shape)
        i, j = owner[near, None], owner[~near, None]
        log_gu[near] = log_g_near(d[near], i)
        x = a[:, j] + b[:, j] * (peak[j] + d[~near])
        log_gu[~near] = _zolotarev_log_g(x, log_scale[j], alpha)
        # e^700 is finite, and e^-g is 0 well before g reaches it
        log_gu = np.minimum(log_gu, 700.0)
        g = np.exp(log_gu)
        if density:
            return np.exp(log_gu - g)
        return np.exp(-g) if alpha > 1.0 else -np.expm1(-g)

    what = "density" if density else "tail mass"
    total, _ = integrate_panels(
        integrand, edges, ZOLOTAREV_REL_TOL,
        lambda i: f"Zolotarev integral of the {what} at y={y[i]}",
    )
    if density:
        return alpha / (math.pi * abs(alpha - 1.0)) * total / y
    return total / math.pi


def _rescaled(s: float, t: float, x, density: bool):
    """``p(t, x)``, or ``S(t^(-1/(2s)) x)``, through the self-similar map to
    t = 1. A scalar gives a float, an array an array of the same shape.

    A non-finite ``t`` and a NaN ``x`` raise at every order, before any
    route; ``x = +-inf`` takes the limits."""
    _check_order(s)
    if not 0.0 < t < math.inf:
        raise ValueError(f"reference oracles require a finite t > 0, got t = {t}")
    x = np.asarray(x, dtype=float)
    # NaN survives a minimum, so one pass finds any
    if math.isnan(np.minimum.reduce(x, axis=None, initial=0.0)):
        raise ValueError("reference oracles take no NaN x")
    scale = t ** (-1.0 / (2.0 * s))
    out = _standardized(s, scale * x, density)
    if density:
        out = scale * out
    return float(out) if x.ndim == 0 else out


def fractional_heat_kernel(s: float, t: float, x):
    """Heat kernel of the order-2s fractional Laplacian at time t, points x.

    Each point takes a closed form, a series or Zolotarev's integral after
    rescaling to t = 1 (see the module docstring). Accepts scalar or
    array x: a scalar gives a float, an array an array of the same shape.
    """
    return _rescaled(s, t, x, density=True)


def reference_solution(s: float, a: float, b: float, t: float, x):
    """Exact solution from the plateau datum ``a`` on ``(-inf, b]``.

    Returns ``a * int_{x-b}^inf p_s(t, y) dy``. Monotone decreasing in x,
    equal to a/2 at x = b, with limits a and 0 at the two infinities.
    Accepts scalar or array x.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"plateau height must be finite and nonnegative, got a = {a}")
    if not math.isfinite(b):
        raise ValueError(f"plateau edge must be finite, got b = {b}")
    return a * _rescaled(s, t, np.asarray(x, dtype=float) - b, density=False)
