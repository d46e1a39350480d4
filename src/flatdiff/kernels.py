"""Symmetric jump kernels with heavy algebraic tails.

A kernel ``J`` assigns a jump intensity to each displacement ``z != 0``. The
solver admits kernels that are even, nonnegative, have a finite second moment
near the origin, and are sandwiched between two algebraic envelopes away from
the origin:

    J0 / |z|^(1+2s)  >=  J(z)            for |z| > 1,
    J(z)             >=  (1/J0) / |z|^(1+2s)   for |z| >= R0,

with constants ``J0 >= 1``-like tightness declared by the caller, together
with the near-field moment bound ``int_{|z|<=1} z^2 J(z) dz <= 2 J1``. Every
family is ``A |z|^(-1-2s)`` on ``1 < |z| <= hi`` and 0 beyond ``hi``, so the
envelopes are decided in closed form here: the worst slacks, in units of
``|z|^(-1-2s)``, are ``J0 - A`` (``J0`` when ``hi <= 1``) and ``A - 1/J0``
(``-1/J0`` when ``hi`` is finite). Certificates produced by
:func:`validate_hypothesis` gate the construction of discrete operators.

All shipped families have closed-form antiderivatives, so interval masses,
tail masses, the interval moments of ``z^2 J`` and ``z^3 J`` behind the
operator's hat weights, near-field moments and the tail response to an
algebraic extension are evaluated exactly; adaptive quadrature is kept as a
cross-check route in the test suite. Every mass and moment is a sum of
pieces ``int A z^(q-1) dz``, which one primitive evaluates from the finite,
nonzero end (``lo`` for masses, ``hi`` for moments) to relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import exprel, hyp2f1

__all__ = [
    "KernelSpec",
    "HypothesisCertificate",
    "HypothesisViolationError",
    "pure_fractional",
    "truncated_fractional",
    "compact_plus_tail",
    "eval_kernel",
    "interval_mass",
    "exterior_mass",
    "exterior_tail_response",
    "interval_moments",
    "restricted_second_moment",
    "validate_hypothesis",
]

_FAMILIES = ("pure_fractional", "truncated_fractional", "compact_plus_tail")
# slope of each near profile ``near_scale * (1 - slope * r)`` on ``0 < r <= 1``
_NEAR_SLOPES = {"flat": 0.0, "triangle": 1.0}


class HypothesisViolationError(ValueError):
    """The kernel violates a structural requirement (for example a divergent
    near-field second moment), so the quantity asked for does not exist."""


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a jump kernel and its declared constants.

    Parameters
    ----------
    family:
        One of ``pure_fractional`` (``A |z|^(-1-2s)`` everywhere),
        ``truncated_fractional`` (the same, cut to zero beyond ``cutoff``) or
        ``compact_plus_tail`` (a bounded near-field profile on ``|z| <= 1``
        glued to an algebraic tail ``A |z|^(-1-2s)`` beyond 1).
    s:
        Tail order; the far field decays like ``|z|^(-1-2s)``.
    amplitude:
        Tail amplitude ``A``.
    declared_j0, declared_j1, declared_r0:
        Envelope constants the caller claims; checked, never derived.
    cutoff:
        Truncation radius of ``truncated_fractional``; no other family takes one.
    near_profile, near_scale:
        Shape (``flat`` or ``triangle``) and height of the near-field part of
        ``compact_plus_tail``; no other family takes them.

    The family fixes the kernel's shape, which is derived once and stored as
    data that every closed form reads: ``tail_support = (lo, hi)`` is the
    range of ``|z|`` where ``A |z|^(-1-2s)`` holds (``J = 0`` beyond ``hi``),
    and on ``0 < |z| <= lo`` the kernel is the near profile
    ``near_scale * (1 - near_slope * |z|)``. ``lo`` is 0 and ``near_slope``
    None exactly when there is no near profile.
    """

    family: str
    s: float
    amplitude: float
    declared_j0: float
    declared_j1: float
    declared_r0: float
    cutoff: float | None = None
    near_profile: str | None = None
    near_scale: float = 1.0
    tail_support: tuple[float, float] = field(init=False, repr=False, compare=False)
    near_slope: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.s > 0:
            raise ValueError("tail order s must be positive")
        if not self.amplitude >= 0:
            raise ValueError("tail amplitude must be nonnegative")
        if not self.declared_j0 > 0:
            raise ValueError("declared envelope constant must be positive")
        if not self.declared_j1 > 0:
            raise ValueError("declared near-field moment bound must be positive")
        if not self.declared_r0 > 1:
            raise ValueError("declared lower-envelope onset radius must exceed 1")
        lo, hi, slope = 0.0, math.inf, None
        if self.family == "truncated_fractional":
            if self.cutoff is None or not self.cutoff > 0:
                raise ValueError("truncated family requires a positive cutoff")
            hi = float(self.cutoff)
        elif self.cutoff is not None:
            raise ValueError(f"family {self.family} takes no cutoff")
        if self.family == "compact_plus_tail":
            if self.near_profile not in _NEAR_SLOPES:
                raise ValueError(
                    f"near profile must be one of {tuple(_NEAR_SLOPES)}, "
                    f"got {self.near_profile!r}"
                )
            if not self.near_scale >= 0:
                raise ValueError("near-field scale must be nonnegative")
            lo, slope = 1.0, _NEAR_SLOPES[self.near_profile]
        elif self.near_profile is not None or self.near_scale != 1.0:
            raise ValueError(f"family {self.family} takes no near profile")
        object.__setattr__(self, "tail_support", (lo, hi))
        object.__setattr__(self, "near_slope", slope)

    def describe(self) -> str:
        parts = [f"{self.family}(s={self.s:g}, A={self.amplitude:g}"]
        if self.cutoff is not None:
            parts.append(f", cutoff={self.cutoff:g}")
        if self.near_profile is not None:
            parts.append(f", near={self.near_profile}:{self.near_scale:g}")
        parts.append(")")
        return "".join(parts)


def pure_fractional(
    s: float, amplitude: float = 1.0, *, j0: float, j1: float, r0: float
) -> KernelSpec:
    """Kernel ``A |z|^(-1-2s)`` on all of ``z != 0``."""
    return KernelSpec("pure_fractional", s, amplitude, j0, j1, r0)


def truncated_fractional(
    s: float, amplitude: float, cutoff: float, *, j0: float, j1: float, r0: float
) -> KernelSpec:
    """Kernel ``A |z|^(-1-2s)`` for ``|z| <= cutoff``, zero beyond."""
    return KernelSpec("truncated_fractional", s, amplitude, j0, j1, r0, cutoff=cutoff)


def compact_plus_tail(
    s: float,
    amplitude: float,
    near_profile: str = "flat",
    near_scale: float = 1.0,
    *,
    j0: float,
    j1: float,
    r0: float,
) -> KernelSpec:
    """Bounded near-field profile on ``|z| <= 1`` plus an algebraic tail."""
    return KernelSpec(
        "compact_plus_tail", s, amplitude, j0, j1, r0,
        near_profile=near_profile, near_scale=near_scale,
    )


def _power_law(spec: KernelSpec, r):
    """``A r^(-1-2s)`` at ``r > 0``; overflows to ``inf`` as numpy does."""
    return spec.amplitude * np.power(r, -1.0 - 2.0 * spec.s)


def _near_profile(spec: KernelSpec, r):
    """Near profile ``near_scale * (1 - near_slope * r)`` at ``0 < r <= lo``."""
    return spec.near_scale * (1.0 - spec.near_slope * r)


def eval_kernel(spec: KernelSpec, z) -> np.ndarray | float:
    """Evaluate ``J(z)``; accepts scalars or arrays, rejects ``z = 0``.

    A scalar gives a ``float``, through the same 0-d array path as an array
    element, so both give the same bits.
    """
    lo, hi = spec.tail_support
    z_arr = np.asarray(z, dtype=float)
    if not z_arr.all():
        raise ValueError("kernel is undefined at z = 0")
    r = np.abs(z_arr)
    if spec.near_slope is None:
        out = _power_law(spec, r)
    else:
        # the power law only beyond lo, so a tiny near-field r cannot overflow
        far = r > lo
        power = _power_law(spec, np.where(far, r, lo))
        out = np.where(far, power, _near_profile(spec, r))
    if hi < math.inf:
        out = np.where(r > hi, 0.0, out)
    if z_arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# closed-form primitives
# ---------------------------------------------------------------------------


def _in_place(ufunc, x):
    """``ufunc(x)``, written over ``x`` when it is an array; a scalar cannot be."""
    return ufunc(x, out=x if isinstance(x, np.ndarray) else None)


def _power_integrals(amplitude: float, q: float, count: int, base, end) -> list:
    """``int_base^end A z^(p-1) dz`` for ``p = q, ..., q + count - 1`` (vectorized).

    Each is ``A base^p expm1(p L) / p``, or ``A L`` at ``p = 0``, with
    ``L = log1p((end - base) / base)``, sharing ``L`` and ``base^q``.
    ``base`` is the finite, nonzero end; ``end`` may be ``inf`` or 0.
    """
    # fresh arrays transformed in place, since the operator calls this on
    # every grid interval
    log_gap = end - base
    log_gap /= base
    log_gap = _in_place(np.log1p, log_gap)
    base_p = base**q
    out = []
    for j in range(count):
        p = q + j
        if j:
            base_p *= base
        if p == 0.0:
            term = amplitude * log_gap
        else:
            term = _in_place(np.expm1, log_gap * p)
            term *= base_p
            term *= amplitude / p
        out.append(term)
    return out


def _tail_part(spec: KernelSpec, lo, hi):
    """``[lo, hi]`` clipped to the tail support; an unbounded side is left as is."""
    a, b = spec.tail_support
    if a > 0.0:
        lo, hi = np.maximum(lo, a), np.maximum(hi, a)
    if b < math.inf:
        lo, hi = np.minimum(lo, b), np.minimum(hi, b)
    return lo, hi


def _near_part(spec: KernelSpec, lo, hi):
    """``[lo, hi]`` clipped to the near profile's range ``[0, tail_support[0]]``."""
    a = spec.tail_support[0]
    return np.minimum(lo, a), np.minimum(hi, a)


def _near_profile_moments(spec: KernelSpec, power: int, count: int, lo, hi) -> list:
    """``int_lo^hi z^p profile(z) dz`` for ``p = power, ..., power + count - 1``.

    For ``0 <= lo <= hi <= tail_support[0]``, ``hi > 0``: based at ``hi``, and
    ``-near_scale`` turns ``int_hi^lo`` into ``int_lo^hi``.
    """
    pieces = _power_integrals(-spec.near_scale, power + 1.0, count + 1, hi, lo)
    return [a - spec.near_slope * b for a, b in zip(pieces, pieces[1:])]


def interval_mass(spec: KernelSpec, lo, hi):
    """One-sided mass ``int_lo^hi J(z) dz`` with ``0 < lo <= hi`` (vectorized).

    A scalar gives a ``float``, with the bits of the same element of an array
    call.
    """
    # a scalar as a numpy scalar, not a 0-d array: each ufunc on a 0-d array
    # costs about 0.6 us against 0.1 us on a scalar
    lo = np.asarray(lo, dtype=float)[()]
    hi = np.asarray(hi, dtype=float)[()]
    # one reduction: operator set-up calls this, through exterior_mass
    if ((lo <= 0) | (hi < lo)).any():
        raise ValueError("interval must satisfy 0 < lo <= hi")
    # based at lo, since hi may be inf
    (out,) = _power_integrals(spec.amplitude, -2.0 * spec.s, 1, *_tail_part(spec, lo, hi))
    if spec.near_slope is not None:
        (near,) = _near_profile_moments(spec, 0, 1, *_near_part(spec, lo, hi))
        out = near + out
    if out.ndim == 0:
        return float(out)
    return out


def exterior_mass(spec: KernelSpec, radius: float) -> float:
    """One-sided tail mass ``int_radius^inf J(z) dz`` for any ``radius > 0``."""
    if radius <= 0:
        raise ValueError("exterior mass requires a positive radius")
    return interval_mass(spec, radius, np.inf)


def _power_tail_response(amplitude: float, a: float, c: float, x: np.ndarray):
    """``int_c^inf (x + z)^(-a) A z^(-1-a) dz`` for ``x > -c``.

    With ``z = c / t`` this is the Euler integral (DLMF 15.6.1)
    ``A c^(-2a) int_0^1 t^(2a-1) (1 + t x / c)^(-a) dt``.
    """
    shape = hyp2f1(a, 2.0 * a, 2.0 * a + 1.0, -x / c)
    return amplitude * c ** (-2.0 * a) / (2.0 * a) * shape


def _near_profile_response(spec: KernelSpec, a: float, c: float, x: np.ndarray):
    """``int_c^lo (x + z)^(-a) profile(z) dz`` for ``0 < c < lo`` and ``x > -c``."""
    base = x + c
    log_ratio = np.log1p((spec.tail_support[0] - c) / base)

    def power_integral(b: float) -> np.ndarray:
        # int_c^lo (x + z)^(-b) dz; exprel carries the logarithmic case b = 1
        return base ** (1.0 - b) * log_ratio * exprel((1.0 - b) * log_ratio)

    # 1 - slope z = (1 + slope x) - slope (x + z)
    slope = spec.near_slope
    return spec.near_scale * (
        (1.0 + slope * x) * power_integral(a) - slope * power_integral(a - 1.0)
    )


def exterior_tail_response(spec: KernelSpec, radius: float, x) -> np.ndarray:
    """``int_radius^inf (x + z)^(-2s) J(z) dz`` at every ``x > -radius`` (vectorized).

    This is the one-sided exterior mass weighted by the extension ``y^(-2s)``
    seen from ``x``. The power tail is a Gauss hypergeometric function,
    ``A c^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x / c)`` for the tail beyond ``c``;
    a tail support bounded above is the difference of two, and the near
    profile on ``[radius, lo]`` is elementary. Adaptive quadrature of the
    same integral is kept as a cross-check in the tests.
    """
    if radius <= 0:
        raise ValueError("exterior tail response requires a positive radius")
    x = np.asarray(x, dtype=float)
    if np.any(x <= -radius):
        raise ValueError("exterior tail response requires x > -radius")
    a, amp = 2.0 * spec.s, spec.amplitude
    lo, hi = spec.tail_support
    start = max(radius, lo)
    if start >= hi:
        return np.zeros_like(x)
    out = _power_tail_response(amp, a, start, x)
    if hi < math.inf:
        out = out - _power_tail_response(amp, a, hi, x)
    if radius < lo:
        out = _near_profile_response(spec, a, radius, x) + out
    return out


def interval_moments(spec: KernelSpec, lo: np.ndarray, hi: np.ndarray):
    """``int_lo^hi z^2 J(z) dz`` and ``int_lo^hi z^3 J(z) dz`` per interval.

    ``lo`` and ``hi`` are 1-d arrays of one length with
    ``0 <= lo <= hi < inf`` and ``hi > 0``. A hat function is linear on each
    half, so ``int phi z^2 J`` over a half is a combination of these two
    moments. Intervals are split at the ends of the tail support (the
    truncation cutoff, the near-profile edge at 1).
    Raises :class:`HypothesisViolationError` when an interval starting at 0
    meets a divergent second moment, as for the unbounded families once
    ``s >= 1``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or hi.shape != lo.shape:
        raise ValueError("lo and hi must be 1-d arrays of one length")
    if ((lo < 0.0) | (hi < lo) | ~np.isfinite(hi) | (hi <= 0.0)).any():
        raise ValueError("intervals must satisfy 0 <= lo <= hi < inf, 0 < hi")
    lo_t, hi_t = _tail_part(spec, lo, hi)
    q = 2.0 - 2.0 * spec.s
    if q <= 0.0 and lo_t.min() == 0.0:
        raise HypothesisViolationError(
            "near-field second moment diverges for an unbounded "
            f"kernel with s = {spec.s:g} >= 1"
        )
    # based at hi, since lo may be 0, where log1p(-1) = -inf; -A turns
    # int_hi^lo into int_lo^hi
    with np.errstate(divide="ignore"):
        tail = _power_integrals(-spec.amplitude, q, 2, hi_t, lo_t)
        if spec.near_slope is None:
            return tuple(tail)
        near = _near_profile_moments(spec, 2, 2, *_near_part(spec, lo, hi))
    return tuple(a + b for a, b in zip(near, tail))


def restricted_second_moment(spec: KernelSpec, radius: float) -> float:
    """``int_{|z| <= radius} z^2 J(z) dz`` in closed form.

    Raises :class:`HypothesisViolationError` when the integral diverges at the
    origin, which happens for the unbounded families once ``s >= 1``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    s, amp = spec.s, spec.amplitude

    def power_part(lo: float, hi: float) -> float:
        # int_lo^hi z^2 * A z^(-1-2s) dz, 0 <= lo < hi; lo = 0 needs s < 1
        if hi <= lo:
            return 0.0
        if lo == 0.0:
            if s >= 1.0:
                raise HypothesisViolationError(
                    "near-field second moment diverges for an unbounded "
                    f"kernel with s = {s:g} >= 1"
                )
            return amp * hi ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        # based at lo, A lo^q expm1(q log(hi/lo)) / q: no difference of two
        # close powers as s -> 1
        log_ratio = math.log1p((hi - lo) / lo)
        if s == 1.0:
            return amp * log_ratio
        q = 2.0 - 2.0 * s
        return amp * lo**q * math.expm1(q * log_ratio) / q

    lo, hi = spec.tail_support
    power = power_part(lo, min(max(radius, lo), hi))
    if spec.near_slope is None:
        return 2.0 * power
    with np.errstate(divide="ignore"):
        (near,) = _near_profile_moments(spec, 2, 1, 0.0, min(radius, lo))
    return 2.0 * (float(near) + power)


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCertificate:
    """Outcome of deciding the kernel admissibility conditions.

    Both margins are the worst slack of an envelope in units of
    ``|z|^(-1-2s)``: ``upper_margin = inf_{|z|>1} (J0 - |z|^(1+2s) J(z))`` and
    ``lower_margin = inf_{|z|>=R0} (|z|^(1+2s) J(z) - 1/J0)``. ``verified``
    is true exactly when both margins are nonnegative and
    ``near_moment <= 2 * J1``; it holds for ``spec`` only.
    """

    spec: KernelSpec
    upper_margin: float
    lower_margin: float
    near_moment: float

    @property
    def verified(self) -> bool:
        return bool(
            self.upper_margin >= 0.0
            and self.lower_margin >= 0.0
            and self.near_moment <= 2.0 * self.spec.declared_j1
        )


def validate_hypothesis(spec: KernelSpec) -> HypothesisCertificate:
    """Decide the declared envelopes in closed form and the moment bound exactly.

    On ``|z| > 1`` every family is ``A |z|^(-1-2s)`` up to
    ``hi = tail_support[1]`` and 0 beyond, so, in units of ``|z|^(-1-2s)``,
    ``upper_margin`` is ``J0 - A`` when ``hi > 1`` and ``J0`` otherwise, and
    ``lower_margin`` is ``A - 1/J0`` when ``hi = inf`` and ``-1/J0``
    otherwise: a finite support fails the lower envelope however far out it
    ends. A failing kernel yields ``verified=False``; this routine does not
    raise on failure.

    ``lower_margin`` is the float ``A - 1/J0``, so a tight ``J0 = 1/A`` passes or
    fails on rounding: the fractional Laplacian declared so is refused at s = 0.25,
    0.32 and 0.33. Exact rationals would refuse 47 of s = 0.05, 0.06, ..., 0.99,
    s = 0.75 among them (``A J0 - 1 = -2.3e-17``), so the float rule stays.
    """
    j0, amp = spec.declared_j0, spec.amplitude
    hi = spec.tail_support[1]
    try:
        near = restricted_second_moment(spec, 1.0)
    except HypothesisViolationError:
        near = float("inf")
    return HypothesisCertificate(
        spec=spec,
        upper_margin=j0 - amp if hi > 1.0 else j0,
        lower_margin=amp - 1.0 / j0 if hi == math.inf else -1.0 / j0,
        near_moment=near,
    )
