"""Symmetric jump kernels with heavy algebraic tails.

A kernel ``J`` assigns a jump intensity to each displacement ``z != 0``. The
solver admits kernels that are even, nonnegative, have a finite second moment
near the origin, and are sandwiched between two algebraic envelopes away from
the origin:

    J0 / |z|^(1+2s)  >=  J(z)            for |z| > 1,
    J(z)             >=  (1/J0) / |z|^(1+2s)   for |z| >= R0,

with constants ``J0 >= 1``-like tightness declared by the caller and checked
numerically here, together with the near-field moment bound
``int_{|z|<=1} z^2 J(z) dz <= 2 J1``. Certificates produced by
:func:`validate_hypothesis` gate the construction of discrete operators.

All shipped families have closed-form antiderivatives, so cell masses, tail
masses, near-field moments and the tail response to an algebraic extension
are evaluated exactly; adaptive quadrature is kept as a cross-check route in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "restricted_second_moment",
    "validate_hypothesis",
]

_FAMILIES = ("pure_fractional", "truncated_fractional", "compact_plus_tail")
_NEAR_PROFILES = ("flat", "triangle")

# floor on log-uniform sampling density used by validate_hypothesis
SAMPLES_PER_DECADE = 100
# sampled envelope span: (1, TAIL_SPAN_FACTOR * R0]
TAIL_SPAN_FACTOR = 100.0


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
    near_profile, near_scale:
        Shape and height of the near-field part of ``compact_plus_tail``.
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

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.s > 0:
            raise ValueError("tail order s must be positive")
        if self.amplitude < 0:
            raise ValueError("tail amplitude must be nonnegative")
        if not self.declared_j0 > 0:
            raise ValueError("declared envelope constant must be positive")
        if not self.declared_j1 > 0:
            raise ValueError("declared near-field moment bound must be positive")
        if not self.declared_r0 > 1:
            raise ValueError("declared lower-envelope onset radius must exceed 1")
        if self.family == "truncated_fractional":
            if self.cutoff is None or self.cutoff <= 0:
                raise ValueError("truncated family requires a positive cutoff")
        if self.family == "compact_plus_tail":
            if self.near_profile not in _NEAR_PROFILES:
                raise ValueError(
                    f"near profile must be one of {_NEAR_PROFILES}, "
                    f"got {self.near_profile!r}"
                )
            if self.near_scale < 0:
                raise ValueError("near-field scale must be nonnegative")

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
    return KernelSpec(
        family="pure_fractional",
        s=s,
        amplitude=amplitude,
        declared_j0=j0,
        declared_j1=j1,
        declared_r0=r0,
    )


def truncated_fractional(
    s: float, amplitude: float, cutoff: float, *, j0: float, j1: float, r0: float
) -> KernelSpec:
    """Kernel ``A |z|^(-1-2s)`` for ``|z| <= cutoff``, zero beyond."""
    return KernelSpec(
        family="truncated_fractional",
        s=s,
        amplitude=amplitude,
        cutoff=cutoff,
        declared_j0=j0,
        declared_j1=j1,
        declared_r0=r0,
    )


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
        family="compact_plus_tail",
        s=s,
        amplitude=amplitude,
        near_profile=near_profile,
        near_scale=near_scale,
        declared_j0=j0,
        declared_j1=j1,
        declared_r0=r0,
    )


def _power_law(spec: KernelSpec, r):
    """``A r^(-1-2s)`` at ``r > 0``, for a float or an array.

    ``np.power`` takes a float through the same loop as an array element, so
    both give the same bits. Bare ``**`` on a float calls the C library's
    ``pow``, which differs from numpy's vectorized power in the last bit on
    some hosts, and raises ``OverflowError`` where numpy returns ``inf``.
    """
    return spec.amplitude * np.power(r, -1.0 - 2.0 * spec.s)


def _near_profile(spec: KernelSpec, r):
    """Near-field profile of ``compact_plus_tail`` at ``0 < r <= 1``."""
    if spec.near_profile == "flat":
        return spec.near_scale
    # triangle: c * (1 - r) on [0, 1]
    return spec.near_scale * (1.0 - r)


def eval_kernel(spec: KernelSpec, z) -> np.ndarray | float:
    """Evaluate ``J(z)``; accepts scalars or arrays, rejects ``z = 0``.

    A ``float`` in (``np.float64`` included) gives a ``float`` out, computed
    without building an array and with the same bits as the array path;
    quadrature integrands call it once per node.
    """
    if isinstance(z, float):
        if z == 0.0:
            raise ValueError("kernel is undefined at z = 0")
        r = abs(z)
        if spec.family == "truncated_fractional" and not r <= spec.cutoff:
            return 0.0
        if spec.family == "compact_plus_tail" and not r > 1.0:
            return float(_near_profile(spec, r))
        return float(_power_law(spec, r))
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr == 0.0):
        raise ValueError("kernel is undefined at z = 0")
    r = np.abs(z_arr)
    if spec.family == "pure_fractional":
        out = _power_law(spec, r)
    elif spec.family == "truncated_fractional":
        out = np.where(r <= spec.cutoff, _power_law(spec, r), 0.0)
    else:
        # the power law only at r > 1, so a tiny near-field r cannot overflow
        far = r > 1.0
        power = _power_law(spec, np.where(far, r, 1.0))
        out = np.where(far, power, _near_profile(spec, r))
    if z_arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# closed-form primitives
# ---------------------------------------------------------------------------


def _power_interval(amplitude: float, s: float, lo, hi):
    """``int_lo^hi A z^(-1-2s) dz`` for ``0 < lo <= hi`` (vectorized)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return amplitude * (lo ** (-2.0 * s) - hi ** (-2.0 * s)) / (2.0 * s)


def _near_profile_interval(spec: KernelSpec, lo, hi):
    """``int_lo^hi profile(z) dz`` on ``0 <= lo <= hi <= 1``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = spec.near_scale
    if spec.near_profile == "flat":
        return c * (hi - lo)
    return c * ((hi - lo) - 0.5 * (hi * hi - lo * lo))


def interval_mass(spec: KernelSpec, lo, hi):
    """One-sided mass ``int_lo^hi J(z) dz`` with ``0 < lo <= hi`` (vectorized)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo <= 0) or np.any(hi < lo):
        raise ValueError("interval must satisfy 0 < lo <= hi")
    if spec.family == "pure_fractional":
        out = _power_interval(spec.amplitude, spec.s, lo, hi)
    elif spec.family == "truncated_fractional":
        lo_c = np.minimum(lo, spec.cutoff)
        hi_c = np.minimum(hi, spec.cutoff)
        out = _power_interval(spec.amplitude, spec.s, lo_c, hi_c)
    else:
        lo_n = np.minimum(lo, 1.0)
        hi_n = np.minimum(hi, 1.0)
        near = _near_profile_interval(spec, lo_n, hi_n)
        lo_t = np.maximum(lo, 1.0)
        hi_t = np.maximum(hi, 1.0)
        out = near + _power_interval(spec.amplitude, spec.s, lo_t, hi_t)
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
    """``int_c^1 (x + z)^(-a) profile(z) dz`` for ``0 < c < 1`` and ``x > -c``."""
    base = x + c
    log_ratio = np.log1p((1.0 - c) / base)

    def power_integral(b: float) -> np.ndarray:
        # int_c^1 (x + z)^(-b) dz; exprel carries the logarithmic case b = 1
        return base ** (1.0 - b) * log_ratio * exprel((1.0 - b) * log_ratio)

    if spec.near_profile == "flat":
        return spec.near_scale * power_integral(a)
    # triangle: 1 - z = (1 + x) - (x + z)
    return spec.near_scale * ((1.0 + x) * power_integral(a) - power_integral(a - 1.0))


def exterior_tail_response(spec: KernelSpec, radius: float, x) -> np.ndarray:
    """``int_radius^inf (x + z)^(-2s) J(z) dz`` at every ``x > -radius`` (vectorized).

    This is the one-sided exterior mass weighted by the extension ``y^(-2s)``
    seen from ``x``. The power tail is a Gauss hypergeometric function,
    ``A c^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x / c)`` for the tail beyond ``c``;
    a truncated tail is the difference of two, and the near profile of
    ``compact_plus_tail`` on ``[radius, 1]`` is elementary. Adaptive
    quadrature of the same integral is kept as a cross-check in the tests.
    """
    if radius <= 0:
        raise ValueError("exterior tail response requires a positive radius")
    x = np.asarray(x, dtype=float)
    if np.any(x <= -radius):
        raise ValueError("exterior tail response requires x > -radius")
    a, amp = 2.0 * spec.s, spec.amplitude
    if spec.family == "pure_fractional":
        return _power_tail_response(amp, a, radius, x)
    if spec.family == "truncated_fractional":
        if radius >= spec.cutoff:
            return np.zeros_like(x)
        return _power_tail_response(amp, a, radius, x) - _power_tail_response(
            amp, a, spec.cutoff, x
        )
    if radius >= 1.0:
        return _power_tail_response(amp, a, radius, x)
    return _near_profile_response(spec, a, radius, x) + _power_tail_response(
        amp, a, 1.0, x
    )


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
        if s == 1.0:
            return amp * np.log(hi / lo)
        return amp * (hi ** (2.0 - 2.0 * s) - lo ** (2.0 - 2.0 * s)) / (2.0 - 2.0 * s)

    if spec.family == "pure_fractional":
        return 2.0 * power_part(0.0, radius)
    if spec.family == "truncated_fractional":
        return 2.0 * power_part(0.0, min(radius, spec.cutoff))
    r_n = min(radius, 1.0)
    c = spec.near_scale
    if spec.near_profile == "flat":
        near = c * r_n**3 / 3.0
    else:
        near = c * (r_n**3 / 3.0 - r_n**4 / 4.0)
    return 2.0 * (near + power_part(1.0, max(radius, 1.0)))


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCertificate:
    """Outcome of numerically checking the kernel admissibility conditions.

    ``upper_margin`` is the worst slack of the upper envelope over sampled
    ``|z| > 1``; ``lower_margin`` the worst slack of the lower envelope over
    sampled ``|z| >= R0``. ``verified`` is true exactly when both margins are
    nonnegative and ``near_moment <= 2 * J1``.
    """

    spec_id: str
    verified: bool
    upper_margin: float
    lower_margin: float
    near_moment: float
    sample_count: int


def _sample_radii(spec: KernelSpec, sample_count: int) -> np.ndarray:
    hi = TAIL_SPAN_FACTOR * spec.declared_r0
    decades = np.log10(hi)
    count = max(int(sample_count), int(np.ceil(SAMPLES_PER_DECADE * decades)) + 1)
    base = np.geomspace(np.nextafter(1.0, 2.0), hi, count)
    extra = [spec.declared_r0]
    if spec.cutoff is not None and 1.0 < spec.cutoff < hi:
        # straddle the truncation radius so a vanishing tail cannot hide
        extra += [np.nextafter(spec.cutoff, np.inf)]
    return np.unique(np.concatenate([base, np.asarray(extra)]))


def validate_hypothesis(spec: KernelSpec, sample_count: int = 1000) -> HypothesisCertificate:
    """Check the declared envelopes and moment bound on a log-uniform grid.

    Sampling covers ``(1, 100 * R0]`` with at least ``sample_count`` points
    and never fewer than 100 per decade. A failing kernel yields
    ``verified=False``; this routine does not raise on failure.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    radii = _sample_radii(spec, sample_count)
    j0 = spec.declared_j0
    values = np.asarray(eval_kernel(spec, radii))
    envelope = radii ** (-1.0 - 2.0 * spec.s)
    upper_margin = float(np.min(j0 * envelope - values))
    mask = radii >= spec.declared_r0
    lower_margin = float(np.min(values[mask] - (1.0 / j0) * envelope[mask]))
    try:
        near = restricted_second_moment(spec, 1.0)
    except HypothesisViolationError:
        near = float("inf")
    verified = (
        upper_margin >= 0.0
        and lower_margin >= 0.0
        and near <= 2.0 * spec.declared_j1
    )
    return HypothesisCertificate(
        spec_id=spec.describe(),
        verified=verified,
        upper_margin=upper_margin,
        lower_margin=lower_margin,
        near_moment=near,
        sample_count=int(radii.size),
    )
