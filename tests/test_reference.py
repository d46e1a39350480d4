"""Closed-form, series and Zolotarev-integral oracles for the fractional heat kernel."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import flatdiff as fd
from flatdiff import reference
from flatdiff.reference import _bergstrom, _taylor, _zolotarev


# -- kernel point values -----------------------------------------------------


def test_kernel_center_values():
    assert fd.fractional_heat_kernel(0.5, 1.0, 0.0) == pytest.approx(
        1.0 / math.pi, rel=1e-15
    )
    assert fd.fractional_heat_kernel(0.5, 2.0, 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-15
    )
    assert fd.fractional_heat_kernel(1.0, 1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-15
    )
    # generic order center value: Gamma(1 + 1/(2s)) / pi, the first term of
    # the Taylor series, also where that series is only asymptotic (s < 1/2)
    for s in (0.05, 0.3, 0.75):
        assert fd.fractional_heat_kernel(s, 1.0, 0.0) == pytest.approx(
            special.gamma(1.0 + 1.0 / (2.0 * s)) / math.pi, rel=1e-12
        )
        assert fd.reference_solution(s, 1.0, 0.0, 1.0, 0.0) == 0.5


@pytest.mark.parametrize("y", [0.3, 2.0, 17.0])
def test_zolotarev_route_at_order_one_is_craigs_formula(y):
    # at s = 1 the route is Craig's formula for the Gaussian tail; from
    # y = 2 on, g >= y^2/4 >= 1 and the integrand has no interior peak
    tail = _zolotarev(1.0, np.array([y]), False)[0]
    assert tail == pytest.approx(0.5 * special.erfc(y / 2.0), rel=1e-13)
    density = _zolotarev(1.0, np.array([y]), True)[0]
    gauss = math.exp(-y * y / 4.0) / math.sqrt(4.0 * math.pi)
    assert density == pytest.approx(gauss, rel=1e-13)


def test_kernel_self_similarity_closed_forms():
    for s in (0.5, 1.0):
        for t in (0.25, 4.0):
            scale = t ** (-1.0 / (2.0 * s))
            for x in (0.3, 2.0, 40.0):
                assert fd.fractional_heat_kernel(s, t, x) == pytest.approx(
                    scale * fd.fractional_heat_kernel(s, 1.0, scale * x), rel=1e-13
                )


def test_kernel_validation():
    with pytest.raises(ValueError):
        fd.fractional_heat_kernel(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        fd.fractional_heat_kernel(1.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        fd.fractional_heat_kernel(0.5, 0.0, 0.0)


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_oracles_take_scalars_and_arrays(s):
    assert type(fd.fractional_heat_kernel(s, 0.7, 2.0)) is float
    x = np.array([[-7.0, -2.0, -0.5, 0.0], [7.0, 2.0, 0.5, 0.0]])
    p = fd.fractional_heat_kernel(s, 0.7, x)
    assert p.shape == x.shape
    pointwise = [fd.fractional_heat_kernel(s, 0.7, float(v)) for v in x.ravel()]
    assert np.array_equal(p.ravel(), pointwise)
    assert np.all(p > 0)
    assert np.array_equal(p[0], p[1])
    assert fd.fractional_heat_kernel(s, 0.7, np.array([])).shape == (0,)
    assert fd.reference_solution(s, 1.0, 0.0, 1.0, np.array([])).shape == (0,)


def test_unit_mass_closed_forms():
    for s in (0.5, 1.0):
        mass, err = quad(
            lambda y: fd.fractional_heat_kernel(s, 1.0, y), -np.inf, np.inf
        )
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_generic_survival_matches_tail_series():
    # two-term asymptotic series for the upper tail mass at order s = 3/4
    s, big = 0.75, 100.0
    series = sum(
        (-1.0) ** (k + 1)
        * special.gamma(2.0 * s * k + 1.0)
        / (math.factorial(k) * 2.0 * s * k)
        * math.sin(k * math.pi * s)
        * big ** (-2.0 * s * k)
        for k in (1, 2)
    ) / math.pi
    assert _zolotarev(s, np.array([big]), False)[0] == pytest.approx(series, abs=5e-9)


def test_generic_survival_differentiates_to_kernel():
    # d/dx of the plateau solution is minus the kernel; checks the tail mass
    # integrand e^-g against the density integrand g e^-g independently of
    # closed forms
    s, d = 0.75, 1e-4
    for x in (0.5, 2.0):
        tails = _zolotarev(s, np.array([x - d, x + d]), False)
        assert (tails[0] - tails[1]) / (2.0 * d) == pytest.approx(
            fd.fractional_heat_kernel(s, 1.0, x), rel=1e-8
        )


def test_survival_symmetry_and_center():
    for s in (0.5, 0.75, 1.0):
        def tail(z):
            return fd.reference_solution(s, 1.0, 0.0, 1.0, z)

        assert tail(0.0) == 0.5
        # at s = 3/4, z = 2 takes quadrature and z = 8 the series
        for z in (2.0, 8.0):
            assert tail(-z) == pytest.approx(1.0 - tail(z), rel=1e-12)


# -- Bergström tail series ---------------------------------------------------


def two_term_density(s, y):
    """First two terms of the density's tail series, summed on the test side."""
    return sum(
        (-1.0) ** (k + 1)
        * special.gamma(2.0 * s * k + 1.0)
        / math.factorial(k)
        * math.sin(k * math.pi * s)
        * y ** (-2.0 * s * k - 1.0)
        for k in (1, 2)
    ) / math.pi


@pytest.mark.parametrize("s", [0.3, 0.45, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("density", [False, True])
def test_series_matches_quadrature_beyond_switch_on(s, density):
    y = np.geomspace(0.1, 30.0, 120)
    series, accepted = _bergstrom(s, y, density)
    # the accepted points are one interval [switch-on, inf)
    on = int(np.argmax(accepted))
    assert accepted[on] and np.all(accepted[on:])
    assert y[on] < 12.0
    quad_value = _zolotarev(s, y[on:], density)
    np.testing.assert_allclose(series[on:], quad_value, rtol=1e-13, atol=0)


def test_series_at_half_order_sums_the_cauchy_closed_forms():
    y = np.geomspace(2.0, 1e6, 200)
    survival, ok_s = _bergstrom(0.5, y, False)
    density, ok_p = _bergstrom(0.5, y, True)
    assert ok_s.all() and ok_p.all()
    cauchy_survival = np.arctan(1.0 / y) / math.pi
    cauchy_density = 1.0 / (math.pi * (1.0 + y * y))
    np.testing.assert_allclose(survival, cauchy_survival, rtol=1e-14, atol=0)
    np.testing.assert_allclose(density, cauchy_density, rtol=1e-14, atol=0)


# -- Taylor series at the origin ----------------------------------------------


def plain_inversion(s, y, density):
    """``p(1, y)`` or ``S(y)`` by plain (non-oscillatory) QUADPACK on [0, inf)."""
    if density:
        def f(xi):
            return math.exp(-(xi ** (2.0 * s))) * math.cos(y * xi)
    else:
        def f(xi):
            return math.exp(-(xi ** (2.0 * s))) * math.sin(y * xi) / xi if xi else y
    val, err = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    assert err <= 1e-13 * abs(val)
    return val / math.pi if density else 0.5 - val / math.pi


@pytest.mark.parametrize("s", [0.55, 0.75, 0.99])
@pytest.mark.parametrize("density", [True, False])
def test_oracles_near_the_origin_match_plain_quadrature(s, density):
    # these points take the Taylor series; plain QUADPACK on the Fourier
    # integral is an independent check where y is small
    y = np.geomspace(1e-5, 0.1, 41)
    if density:
        got = fd.fractional_heat_kernel(s, 1.0, y)
    else:
        got = fd.reference_solution(s, 1.0, 0.0, 1.0, y)
    exact = np.array([plain_inversion(s, float(v), density) for v in y])
    np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", [0.45, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("density", [False, True])
def test_taylor_series_matches_quadrature_below_switch_off(s, density):
    y = np.geomspace(0.05, 30.0, 120)
    series, accepted = _taylor(s, y, density)
    # the accepted points are one interval (0, switch-off)
    off = int(np.argmin(accepted))
    assert off > 0 and not np.any(accepted[off:])
    assert y[off] < 3.0
    quad_value = _zolotarev(s, y[:off], density)
    np.testing.assert_allclose(series[:off], quad_value, rtol=1e-13, atol=0)


@pytest.mark.parametrize("s", [0.55, 0.75, 0.9, 0.99])
@pytest.mark.parametrize("y", [1e-12, 1e-15, 1e-100, 1e-300])
def test_density_at_tiny_y_is_the_center_value(s, y):
    # the Taylor route takes these points, and its first term is the center
    # value Gamma(1/alpha) / (pi alpha). The integral alone reads them wrong,
    # with no error raised: by 1.1e-6 relative at s = 0.75 from y = 1e-12
    # down, 2e-4 at s = 0.9 from 1e-15, 9.8e-4 at s = 0.99 from 1e-25, and
    # 100 % at s = 0.05 from 1e-25; at y = 1e-300 it raises. That is why
    # the Taylor route stays.
    alpha = 2.0 * s
    center = math.gamma(1.0 / alpha) / (math.pi * alpha)
    assert _taylor(s, np.array([y]), True)[1][0]
    assert fd.fractional_heat_kernel(s, 1.0, y) == pytest.approx(center, rel=1e-14)


def test_rejected_points_take_the_quadrature_route():
    # at s = 0.9, y = 2 takes the Taylor series of the tail mass; y = 4
    # takes neither series
    s, y = 0.9, 4.0
    for density in (False, True):
        assert not _bergstrom(s, np.array([y]), density)[1][0]
        assert not _taylor(s, np.array([y]), density)[1][0]
    tail = _zolotarev(s, np.array([y]), False)[0]
    assert fd.reference_solution(s, 1.0, 0.0, 1.0, y) == tail
    # the reflection S(-y) = 1 - S(y) is applied after the quadrature
    assert fd.reference_solution(s, 1.0, 0.0, 1.0, -y) == 1.0 - tail
    density = _zolotarev(s, np.array([y]), True)[0]
    assert fd.fractional_heat_kernel(s, 1.0, y) == density


def test_far_tail_density_keeps_relative_accuracy():
    # these points take the Bergström series; the Zolotarev route agrees
    for s, y in ((0.99, 1e4), (0.95, 8249.0)):
        density = fd.fractional_heat_kernel(s, 1.0, y)
        assert density == pytest.approx(two_term_density(s, y), rel=1e-6)
        assert _zolotarev(s, np.array([y]), True)[0] == pytest.approx(
            density, rel=1e-13
        )


def test_zolotarev_route_raises_naming_the_point(monkeypatch):
    # a tolerance below the rule's round-off floor of 50 eps cannot be met,
    # so every point reaches the panel cap
    monkeypatch.setattr(reference, "ZOLOTAREV_REL_TOL", 1e-16)
    with pytest.raises(fd.QuadratureError, match=r"density at y=4\.0 did not"):
        fd.fractional_heat_kernel(0.9, 1.0, np.array([0.5, -4.0]))
    with pytest.raises(fd.QuadratureError, match=r"tail mass at y=4\.0 did not"):
        fd.reference_solution(0.9, 1.0, 0.0, 1.0, 4.0)
    # the peak of y = 1e-305 lies at theta = y / (2s), below the search range
    with pytest.raises(fd.QuadratureError, match=r"y=1e-305: the peak lies below"):
        _zolotarev(0.3, np.array([1.0, 1e-305]), True)


# a point of the density's core at each small order
SMALL_ORDER_CORE_POINT = {0.05: 0.01, 0.1: 0.01, 0.15: 1e-3}


@pytest.mark.parametrize("s", [0.05, 0.1, 0.15])
def test_small_order_core_density_is_accurate(s):
    y = SMALL_ORDER_CORE_POINT[s]
    # the density takes neither series there
    assert not _bergstrom(s, np.array([y]), True)[1][0]
    assert not _taylor(s, np.array([y]), True)[1][0]
    p = fd.fractional_heat_kernel(s, 1.0, y)
    assert p == _zolotarev(s, np.array([y]), True)[0]
    assert fd.fractional_heat_kernel(s, 1.0, np.array([5.0, y]))[1] == p
    # -dS/dy against p: the tail mass comes from the Bergström series at
    # s = 0.05 and 0.1, and from the integrand e^-g, not g e^-g, at 0.15
    d = 1e-4 * y
    tails = fd.reference_solution(s, 1.0, 0.0, 1.0, np.array([y - d, y + d]))
    assert (tails[0] - tails[1]) / (2.0 * d) == pytest.approx(p, rel=1e-8)
    # self-similarity through the public rescale, at times whose scale is
    # not a power of 2, so the route sees a y a few ulps away
    for t in (0.3, 3.0):
        scale = t ** (1.0 / (2.0 * s))
        assert scale * fd.fractional_heat_kernel(s, t, scale * y) == pytest.approx(
            p, rel=1e-12
        )


@pytest.mark.parametrize(
    "s, rel_to_cauchy",
    [(0.49999, 1e-4), (0.50001, 1e-4), (0.5 - 1e-7, 1e-6), (0.5 + 1e-12, 1e-11)],
)
def test_zolotarev_route_near_half_order(s, rel_to_cauchy):
    # g = 1 is crossed over a width of about |2s - 1| u* in u, and the
    # density's prefactor is 1/|2s - 1|; the core lies near y = 1 here
    y = np.array([0.9, 1.0, 1.2])
    p = _zolotarev(s, y, True)
    # each point's peak search and panels are its own: the batch gives the
    # bits of one point at a time
    assert np.array_equal(p, [_zolotarev(s, y[i : i + 1], True)[0] for i in range(3)])
    d = 1e-4 * y
    tails = _zolotarev(s, np.concatenate((y - d, y + d)), False)
    np.testing.assert_allclose((tails[:3] - tails[3:]) / (2.0 * d), p, rtol=1e-7)
    # the kernel moves from the Cauchy kernel by about 2 |s - 1/2|
    np.testing.assert_allclose(p, 1.0 / (math.pi * (1.0 + y * y)), rtol=rel_to_cauchy)
    cauchy_tail = 0.5 - np.arctan(y + d) / math.pi
    np.testing.assert_allclose(tails[3:], cauchy_tail, rtol=rel_to_cauchy)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.15, 0.3, 0.45, 0.55, 0.6, 0.75, 0.9, 0.99])
def test_zolotarev_route_matches_every_series_point(s):
    # every point of a log-spaced grid where the Bergström or the Taylor
    # series accepts, density and tail mass
    grid = np.geomspace(1e-5, 100.0, 57)
    for density in (False, True):
        route = _zolotarev(s, grid, density)
        for series, accepted in (
            _bergstrom(s, grid, density), _taylor(s, grid, density)
        ):
            np.testing.assert_allclose(
                route[accepted], series[accepted], rtol=1e-13, atol=0
            )


def zolotarev_reference(s, y, density):
    """Zolotarev's integral of ``p(1, y)`` or ``S(y)`` over ``theta`` in
    ``(0, pi/2)``, in 30-digit ``mpmath`` arithmetic, split where ``g = 1``."""
    with mpmath.workdps(30):
        alpha = 2 * mpmath.mpf(s)
        ex = alpha / (alpha - 1)
        log_y = mpmath.log(y)

        def log_g(theta):
            return (
                ex * log_y
                + mpmath.log(mpmath.cos(theta)) / (alpha - 1)
                - ex * mpmath.log(mpmath.sin(alpha * theta))
                + mpmath.log(mpmath.cos((alpha - 1) * theta))
            )

        def integrand(theta):
            g = mpmath.exp(log_g(theta))
            if density:
                return g * mpmath.exp(-g)
            return mpmath.exp(-g) if alpha > 1 else -mpmath.expm1(-g)

        # log g runs monotonically from one infinity to the other
        ends = (mpmath.mpf(10) ** -25, mpmath.pi / 2 - mpmath.mpf(10) ** -25)
        peak = mpmath.findroot(log_g, ends, solver="anderson")
        total = mpmath.quad(integrand, [0, peak, mpmath.pi / 2])
        if density:
            return alpha / (mpmath.pi * abs(alpha - 1) * y) * total
        return total / mpmath.pi


@pytest.mark.parametrize("s", [0.3, 0.75, 0.9, 0.99])
def test_zolotarev_route_matches_a_30_digit_quadrature(s):
    # the first, middle and last of the grid points that neither series
    # accepts, which the router sends to the integral; density and tail mass
    grid = np.geomspace(1e-3, 30.0, 400)
    for density in (False, True):
        core = grid[~(_bergstrom(s, grid, density)[1] | _taylor(s, grid, density)[1])]
        points = core[[0, core.size // 2, -1]]
        for y, value in zip(points, _zolotarev(s, points, density)):
            exact = zolotarev_reference(s, y, density)
            assert abs(value - exact) <= 1e-12 * abs(exact), (y, density)


# -- series routes against term-by-term loops ---------------------------------


def bergstrom_by_term(s, y, density):
    """The Bergström route as a loop over terms on whole arrays, the form
    the batched route must reproduce bit for bit."""
    alpha = 2.0 * s
    shift = 1.0 if density else 0.0
    total = np.zeros_like(y)
    spread = np.zeros_like(y)
    active = np.ones(y.shape, dtype=bool)
    with np.errstate(over="ignore"):
        z = y**-alpha
        power = z.copy()
        size = math.gamma(alpha + shift) * power
        pending = math.sin(0.5 * math.pi * alpha) * size
        for k in range(2, reference.SERIES_TERMS + 1):
            power *= z
            nxt = (math.gamma(alpha * k + shift) / math.factorial(k)) * power
            active &= nxt < size
            if not active.any():
                break
            total += np.where(active, pending, 0.0)
            spread += np.where(active, size, 0.0)
            sine = math.sin(0.5 * math.pi * alpha * k)
            pending = np.where(active, (sine if k % 2 else -sine) * nxt, pending)
            size = np.where(active, nxt, size)
    accepted = size + np.finfo(float).eps * spread <= reference.SERIES_REL_TOL * np.abs(total)
    if density:
        total /= y
    return total / math.pi, accepted


def taylor_by_term(s, y, density):
    """The Taylor route as a loop over terms on whole arrays."""
    alpha = 2.0 * s
    shift = 0 if density else 1
    with np.errstate(divide="ignore"):
        log_y = np.log(y)

    def size_of(k):
        m = 2 * k + shift
        log_coef = math.lgamma((2 * k + 1) / alpha) - math.lgamma(m + 1)
        if m == 0:
            return np.full(y.shape, math.exp(log_coef))
        with np.errstate(over="ignore"):
            return np.exp(log_coef + m * log_y)

    total = np.zeros_like(y)
    spread = np.zeros_like(y)
    active = np.ones(y.shape, dtype=bool)
    size = size_of(0)
    pending = size
    for k in range(1, reference.SERIES_TERMS + 1):
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
    return value, error <= reference.SERIES_REL_TOL * np.abs(value)


# from below the smallest normal float to far beyond every switch-on point,
# so that powers overflow and underflow and every stopping index occurs
SERIES_SWEEP = np.concatenate(
    ([5e-324, 1e-310], np.geomspace(1e-300, 1e3, 1500), np.geomspace(0.05, 40.0, 301))
)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.45, 0.55, 0.75, 0.9, 0.99])
@pytest.mark.parametrize("density", [False, True])
def test_series_routes_keep_the_bits_of_a_term_by_term_loop(s, density, monkeypatch):
    y = SERIES_SWEEP
    assert y.size > 3 * reference.SERIES_BLOCK
    for route, by_term, points in (
        (_bergstrom, bergstrom_by_term, y),
        (_taylor, taylor_by_term, np.concatenate(([0.0], y))),
    ):
        value, accepted = route(s, points, density)
        want_value, want_accepted = by_term(s, points, density)
        assert np.array_equal(value, want_value)
        assert np.array_equal(accepted, want_accepted)
        # a lone point, and blocks of a few points, give the same bits
        for i in (0, 1, 700, points.size - 1):
            lone = route(s, points[i : i + 1], density)
            assert lone[0][0] == value[i] and lone[1][0] == accepted[i]
        with monkeypatch.context() as patch:
            patch.setattr(reference, "SERIES_BLOCK", 7)
            small_blocks = route(s, points[:100], density)
        assert np.array_equal(small_blocks[0], value[:100])
        assert np.array_equal(small_blocks[1], accepted[:100])


def test_router_takes_each_distinct_magnitude_once(monkeypatch):
    # at s = 0.9, 4 takes the integral and 40 the Bergström series; the
    # router sends each |y| once and reflects the tail mass afterwards
    seen = {}
    for name in ("_bergstrom", "_taylor", "_zolotarev"):
        route = getattr(reference, name)

        def spy(s, y, density, route=route, name=name):
            seen[name] = y.copy()
            return route(s, y, density)

        monkeypatch.setattr(reference, name, spy)
    x = np.array([[4.0, -4.0, 40.0], [-40.0, 4.0, -4.0]])
    tail = fd.reference_solution(0.9, 1.0, 0.0, 1.0, x)
    assert np.array_equal(seen["_bergstrom"], [4.0, 40.0])
    assert np.array_equal(seen["_taylor"], [4.0])
    assert np.array_equal(seen["_zolotarev"], [4.0])
    assert tail[0, 0] == tail[1, 1] == fd.reference_solution(0.9, 1.0, 0.0, 1.0, 4.0)
    assert tail[0, 1] == tail[1, 2] == 1.0 - tail[0, 0]
    assert tail[1, 0] == 1.0 - tail[0, 2]


# -- plateau reference solution ----------------------------------------------


def test_reference_solution_spot_values():
    assert fd.reference_solution(0.5, 1.0, 0.0, 1.0, 1.0) == pytest.approx(
        0.25, rel=1e-14
    )
    assert fd.reference_solution(0.5, 1.0, 0.0, 1.0, -1.0) == pytest.approx(
        0.75, rel=1e-14
    )
    for s in (0.5, 0.75, 1.0):
        assert fd.reference_solution(s, 2.0, 1.5, 3.0, 1.5) == pytest.approx(
            1.0, rel=1e-12
        )


def test_reference_solution_limits_and_monotonicity():
    x = np.linspace(-30.0, 30.0, 301)
    for s in (0.5, 1.0):
        u = fd.reference_solution(s, 1.0, 0.0, 1.0, x)
        assert u.shape == x.shape
        # the Gaussian branch saturates to exactly 1.0 in double precision
        # far left of the edge, so only the middle window decreases strictly
        assert np.all(np.diff(u) <= 0)
        mid = np.abs(x) <= 5.0
        assert np.all(np.diff(u[mid]) < 0)
        assert fd.reference_solution(s, 1.0, 0.0, 1.0, -1e6) == pytest.approx(
            1.0, abs=1e-5
        )
        assert fd.reference_solution(s, 1.0, 0.0, 1.0, 1e6) == pytest.approx(
            0.0, abs=1e-5
        )


def test_reference_solution_scalar_vs_array():
    out = fd.reference_solution(0.5, 1.0, 0.0, 1.0, np.array([1.0]))
    scalar = fd.reference_solution(0.5, 1.0, 0.0, 1.0, 1.0)
    assert isinstance(scalar, float)
    assert out[0] == scalar


@pytest.mark.parametrize("s", [0.3, 0.75, 0.9])
def test_reference_solution_scalar_bits_on_both_routes(s):
    x = np.array([-40.0, -9.0, -2.0, 0.0, 0.5, 2.0, 9.0, 40.0, 1e4])
    out = fd.reference_solution(s, 1.0, 0.0, 1.0, x)
    pointwise = [fd.reference_solution(s, 1.0, 0.0, 1.0, float(v)) for v in x]
    assert np.array_equal(out, pointwise)
    assert np.all(np.diff(out) < 0)


def test_reference_solution_validation():
    with pytest.raises(ValueError):
        fd.reference_solution(0.5, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fd.reference_solution(0.5, -1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fd.reference_solution(1.2, 1.0, 0.0, 1.0, 1.0)


# -- algebraic tails ---------------------------------------------------------


def test_tail_constants_closed_forms():
    assert fd.heat_kernel_tail_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert fd.heat_kernel_tail_constant(1.0) == pytest.approx(0.0, abs=1e-15)
    k25 = special.gamma(1.5) * math.sin(math.pi / 4.0) / math.pi
    assert fd.heat_kernel_tail_constant(0.25) == pytest.approx(k25, rel=1e-14)


def test_kernel_tail_approaches_constant():
    y = 1e4
    assert y**2 * fd.fractional_heat_kernel(0.5, 1.0, y) == pytest.approx(
        1.0 / math.pi, rel=1e-6
    )
    y = 200.0
    assert y**2.5 * fd.fractional_heat_kernel(0.75, 1.0, y) == pytest.approx(
        fd.heat_kernel_tail_constant(0.75), rel=1e-2
    )
