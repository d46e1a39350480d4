"""A third route for ``D w``: tanh-sinh quadrature in 30 to 60 digits.

The residual certificate trusts the Gauss-Kronrod error estimate through its
budget ``10 quad_tol |D w|``, and such estimates can miss the error by
orders of magnitude (Gonnet, ACM Comput. Surv. 44(4), 2012). This module
checks ``nonlocal_apply_to_barrier`` against ``mpmath.quad`` (the tanh-sinh
rule of Takahasi and Mori, 1974) on the plain integrand

    D w(x) = int_0^inf (w(x + z) + w(x - z) - 2 w(x)) J(z) dz,

evaluated in ``mpmath`` arithmetic with its own barrier and kernel. It
shares no map or breakpoint rule with the library, and its one closed form,
the moments below ``z0``, covers ``(0, 1e-6 x)`` where the library's covers
``(0, x/2)``:

* below ``z0 = 1e-6 x`` the increment is replaced by its Taylor form
  ``w'' z^2 + w'''' z^4 / 12``, whose error is ``(z/x)^4`` below the
  leading term; ``w''`` and ``w''''`` come from ``mpmath.taylor`` and the
  moments ``int_0^z0 z^k J dz`` are elementary;
* above ``z0`` the plain sum of three barrier values is integrated, with
  breakpoints at ``1000^j z0`` below ``x/2``, at ``x - 1000^j 4 c`` above
  it (``c = (2 kappa t)^(1/(2s))``, the core width), at ``x``, ``2x`` and
  ``10x``, and at the kernel's jump radii. For ``x < 0`` the integrand
  vanishes below ``|x|``, and the breakpoints are ``|x| + 1000^j 4 c``,
  ``2|x|`` and ``10|x|``.

The integrand is evaluated in 60 digits for ``s >= 0.9`` and in 30
otherwise; the tanh-sinh rule converges to 30 digits on each piece.
"""

import math

import mpmath
import pytest
from scipy import special

import flatdiff as fd


def kernel(spec, z):
    """``J(z)`` for ``z > 0``, from the kernel's public parameters."""
    if spec.cutoff is not None and z > spec.cutoff:
        return mpmath.mpf(0)
    if spec.near_profile == "flat" and z <= 1:
        return mpmath.mpf(spec.near_scale)
    return spec.amplitude * z ** (-1 - 2 * mpmath.mpf(spec.s))


def moment(spec, k, h):
    """``int_0^h z^k J(z) dz``, piece by piece of ``J``."""
    total = start = mpmath.mpf(0)
    if spec.near_profile == "flat":
        start = mpmath.mpf(1)
        total += spec.near_scale * min(h, start) ** (k + 1) / (k + 1)
    upper = h if spec.cutoff is None else min(h, mpmath.mpf(spec.cutoff))
    if upper > start:
        q = k - 2 * mpmath.mpf(spec.s)
        if q == 0:
            total += spec.amplitude * mpmath.log(upper / start)
        else:
            total += spec.amplitude * (upper**q - start**q) / q
    return total


def ladder(first, ratio, stop):
    """``first, first ratio, first ratio^2, ...`` below ``stop``."""
    out = []
    while first < stop:
        out.append(first)
        first *= ratio
    return out


def reference_dw(spec, params, t, x):
    """``D w(t, x)`` in the module's own arithmetic."""
    digits = 60 if spec.s >= 0.9 else 30
    with mpmath.workdps(digits):
        a = 2 * mpmath.mpf(spec.s)
        kt = mpmath.mpf(params.kappa) * mpmath.mpf(t)
        x = mpmath.mpf(x)

        def w(y):
            return kt / (y**a + 2 * kt) if y > 0 else mpmath.mpf(1) / 2

        w_x = w(x)

        def integrand(z):
            with mpmath.workdps(digits):
                return (w(x + z) + w(x - z) - 2 * w_x) * kernel(spec, z)

        core = 4 * (2 * kt) ** (1 / a)
        jumps = [mpmath.mpf(r) for r in (spec.cutoff, spec.near_profile and 1) if r]
        end = mpmath.inf if spec.cutoff is None else mpmath.mpf(spec.cutoff)
        if x > 0:
            first = x / 10**6
            # c_k = w^(k)(x) x^k / k!, taken in u = z / x so that the
            # difference steps scale with x: Delta = 2 (c2 u^2 + c4 u^4)
            c = mpmath.taylor(lambda u: w(x * (1 + u)), 0, 4)
            value = 2 * (
                c[2] * moment(spec, 2, first) / x**2 + c[4] * moment(spec, 4, first) / x**4
            )
            breaks = ladder(first, 1000, x / 2) + [x / 2, x, 2 * x, 10 * x]
            breaks += [x - y for y in ladder(core, 1000, x / 2)]
        else:
            # w(x - z) = w(x) = 1/2, and w(x + z) = 1/2 until z = |x|
            value, first = mpmath.mpf(0), -x
            breaks = [first + y for y in ladder(core, 1000, 10 * first)]
            breaks += [first, 2 * first, 10 * first]
        breaks = sorted({b for b in breaks + jumps if first <= b < end}) + [end]
        for lo, hi in zip(breaks, breaks[1:]):
            # mpmath.quad stops once its error estimate falls below 10^-30
            # in absolute terms, so each piece is scaled to order 1
            mid = 2 * lo if hi == mpmath.inf else (lo + hi) / 2
            scale = abs(integrand(mid)) * (mid - lo) or 1

            def scaled(z):
                return integrand(z) / scale

            with mpmath.workdps(30):
                value += scale * mpmath.quad(scaled, [lo, hi])
        return value


def fractional_laplacian(s):
    amp = 4.0**s * special.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(special.gamma(-s)))
    return fd.pure_fractional(s, amp, j0=1.0 / amp, j1=2.0 * amp, r0=2.0)


def unit(s):
    return fd.pure_fractional(s, 1.0, j0=1.0, j1=1.0, r0=2.0)


# each family: its kernel and the bounds on the relative gap for x > 0 and
# for x < 0, about 10 times the largest gap measured on its samples there.
# For x < 0 the end z = |x| of the plateau side, where w(x + z) leaves the
# plateau as (z - |x|)^(2s), is smooth in sigma = sqrt(z - |x|) when 4s is an
# integer; bisected in the far map instead, it was off by up to 5.2e-12.
FAMILIES = {
    "unit_s05": (unit(0.5), 2e-15, 1e-15),
    "unit_s06": (unit(0.6), 4e-12, 7e-12),
    "laplacian_s075": (fractional_laplacian(0.75), 4e-15, 3e-15),
    "unit_s09": (unit(0.9), 4e-13, 1e-13),
    "compact_flat_s1": (
        fd.compact_plus_tail(1.0, 1.0, near_profile="flat", j0=1.0, j1=1.0, r0=2.0),
        4e-15,
        2e-15,
    ),
    "truncated_s075": (
        fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0),
        3e-15,
        3e-15,
    ),
}
# (fraction of t_star, x), where "onset" is the validity onset r0 + r_star;
# 1/21 and 5/21 are times of the certify layout
SAMPLES = [(0.5, -5.0), (1 / 21, "onset"), (5 / 21, "onset"), (0.9, "onset"),
           (0.9, 1e3), (0.1, 1e6), (0.5, 1e12), (0.99, 1e12)]
# |x| on both sides of the cutoff at 30, for x < 0 and x > 0
TRUNCATED_SAMPLES = [(0.5, -20.0), (0.5, -50.0), (0.1, "onset"), (0.9, 20.0),
                     (0.5, 45.0), (0.9, 1e3), (0.1, 1e6), (0.5, 1e12)]


def samples(family):
    spec = FAMILIES[family][0]
    params = fd.SubsolutionParams(spec, 2.0)
    where = {"onset": params.onset}
    layout = TRUNCATED_SAMPLES if family == "truncated_s075" else SAMPLES
    return params, [(f * params.t_star, where.get(x, x)) for f, x in layout]


def gaps(family):
    """Relative gap of the library's ``D w`` to the reference at each sample;
    where the reference is 0 (``x < -cutoff``), the library's value."""
    spec = FAMILIES[family][0]
    params, points = samples(family)
    out = []
    for t, x in points:
        ref = reference_dw(spec, params, t, x)
        ours = fd.nonlocal_apply_to_barrier(spec, params, t, x)
        out.append(float(abs(ours - ref) / abs(ref)) if ref else abs(ours))
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dw_matches_the_tanh_sinh_route(family):
    _, right, left = FAMILIES[family]
    for (t, x), gap in zip(samples(family)[1], gaps(family)):
        assert gap <= (right if x > 0 else left), f"t={t}, x={x}: {gap:.2e}"
