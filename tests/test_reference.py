"""Closed-form, series and Fourier-inversion oracles for the fractional heat kernel."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import flatdiff as fd
from flatdiff import reference
from flatdiff.reference import _bergstrom, _inversion


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
    # generic order center value: Gamma(1 + 1/(2s)) / pi
    assert fd.fractional_heat_kernel(0.75, 1.0, 0.0) == pytest.approx(
        special.gamma(1.0 + 2.0 / 3.0) / math.pi, rel=1e-12
    )


@pytest.mark.parametrize("y", [0.3, 2.0, 17.0])
def test_inversion_profile_matches_cauchy_closed_form(y):
    val, err = _inversion(0.5, y, True)
    assert val == pytest.approx(1.0 / (math.pi * (1.0 + y * y)), abs=1e-10)
    assert err < 1e-10


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
    assert _inversion(s, big, False)[0] == pytest.approx(series, abs=5e-9)


def test_generic_survival_differentiates_to_kernel():
    # d/dx of the plateau solution is minus the kernel; checks the sine
    # transform against the cosine transform independently of closed forms
    s, d = 0.75, 1e-4
    for x in (0.5, 2.0):
        fdiff = (
            _inversion(s, x - d, False)[0] - _inversion(s, x + d, False)[0]
        ) / (2.0 * d)
        assert fdiff == pytest.approx(
            fd.fractional_heat_kernel(s, 1.0, x), rel=1e-5
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
    for v, value in zip(y[on:], series[on:]):
        quad_value = _inversion(s, float(v), density)[0]
        assert abs(value - quad_value) <= 1e-11 * quad_value


def test_series_at_half_order_sums_the_cauchy_closed_forms():
    y = np.geomspace(2.0, 1e6, 200)
    survival, ok_s = _bergstrom(0.5, y, False)
    density, ok_p = _bergstrom(0.5, y, True)
    assert ok_s.all() and ok_p.all()
    cauchy_survival = np.arctan(1.0 / y) / math.pi
    cauchy_density = 1.0 / (math.pi * (1.0 + y * y))
    np.testing.assert_allclose(survival, cauchy_survival, rtol=1e-14, atol=0)
    np.testing.assert_allclose(density, cauchy_density, rtol=1e-14, atol=0)


def test_rejected_points_take_the_quadrature_route():
    s, y = 0.9, 2.0
    for density in (False, True):
        assert not _bergstrom(s, np.array([y]), density)[1][0]
    assert fd.reference_solution(s, 1.0, 0.0, 1.0, y) == _inversion(s, y, False)[0]
    # the reflection S(-y) = 1 - S(y) is applied after the inversion
    reflected = 1.0 - _inversion(s, y, False)[0]
    assert fd.reference_solution(s, 1.0, 0.0, 1.0, -y) == reflected
    assert fd.fractional_heat_kernel(s, 1.0, y) == _inversion(s, y, True)[0]


def test_far_tail_density_keeps_relative_accuracy():
    # the quadrature route misses these by -9.8 % and +2e-3 (abs_tol 1e-12)
    for s, y in ((0.99, 1e4), (0.95, 8249.0)):
        assert fd.fractional_heat_kernel(s, 1.0, y) == pytest.approx(
            two_term_density(s, y), rel=1e-6
        )


def test_quadrature_routes_raise_on_a_negative_result(monkeypatch):
    def inversion_gives(val, err):
        monkeypatch.setattr(
            reference, "fourier_oscillatory_tail", lambda *args, **kw: (val, err)
        )

    # the sine transform carries a minus sign: S = -val / pi
    inversion_gives(-1e-3, 1e-9)
    with pytest.raises(fd.QuadratureError):
        _inversion(0.75, 2.0, True)
    inversion_gives(1e-3, 1e-9)
    with pytest.raises(fd.QuadratureError):
        _inversion(0.75, 2.0, False)
    # a value within its error of zero reads as zero
    inversion_gives(-1e-10, 1e-9)
    assert _inversion(0.75, 2.0, True)[0] == 0.0
    inversion_gives(1e-10, 1e-9)
    assert _inversion(0.75, 2.0, False)[0] == 0.0


@pytest.mark.parametrize("s", [0.05, 0.1])
def test_small_order_core_density_raises_instead_of_guessing(s):
    # a stated limit: the core density at s <= 0.1 near y = 0 is out of
    # reach of QAWF, and the density series does not accept the point, so
    # the oracle raises; the survival series still covers the same point
    with pytest.raises(fd.QuadratureError):
        fd.fractional_heat_kernel(s, 1.0, 0.01)
    with pytest.raises(fd.QuadratureError):
        fd.fractional_heat_kernel(s, 1.0, np.array([5.0, 0.01]))
    assert 0.0 < fd.reference_solution(s, 1.0, 0.0, 1.0, 0.01) < 0.5
    assert fd.fractional_heat_kernel(0.15, 1.0, 0.01) > 0.0


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
    assert fd.solution_tail_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert fd.heat_kernel_tail_constant(1.0) == pytest.approx(0.0, abs=1e-15)
    k25 = special.gamma(1.5) * math.sin(math.pi / 4.0) / math.pi
    assert fd.heat_kernel_tail_constant(0.25) == pytest.approx(k25, rel=1e-14)
    assert fd.solution_tail_constant(0.25) == pytest.approx(2.0 * k25, rel=1e-14)


def test_kernel_tail_approaches_constant():
    y = 1e4
    assert y**2 * fd.fractional_heat_kernel(0.5, 1.0, y) == pytest.approx(
        1.0 / math.pi, rel=1e-6
    )
    y = 200.0
    assert y**2.5 * fd.fractional_heat_kernel(0.75, 1.0, y) == pytest.approx(
        fd.heat_kernel_tail_constant(0.75), rel=1e-2
    )


# -- two-sided envelope fit --------------------------------------------------


def test_bounds_fit_recovers_pi_for_cauchy():
    fit = fd.heat_kernel_bounds_fit(
        0.5, [1.0, 4.0], np.logspace(-1.0, 3.0, 25)
    )
    assert fit.c1 == pytest.approx(math.pi, rel=1e-12)
    assert fit.limit_ok
    assert fit.limit_floor == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert fit.limit_value == pytest.approx(1.0 / math.pi, rel=1e-5)
    assert fit.tail_constant == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert fit.sample_count == 50
    assert fit.decade_span > 100.0


def test_bounds_fit_limit_needs_finite_sample_slack():
    # the limit is approached from below, so zero slack must flag it
    xs = np.logspace(-1.0, 3.0, 25)
    assert not fd.heat_kernel_bounds_fit(0.5, [1.0], xs, rel_slack=0.0).limit_ok
    assert fd.heat_kernel_bounds_fit(0.5, [1.0], xs, rel_slack=0.01).limit_ok


def test_bounds_fit_scaling_collapse():
    xs = np.logspace(-1.0, 2.0, 15)
    fit1 = fd.heat_kernel_bounds_fit(0.5, [1.0], xs)
    fit4 = fd.heat_kernel_bounds_fit(0.5, [4.0], 4.0 * xs)
    assert fit1.c1 == pytest.approx(fit4.c1, rel=1e-12)
    assert fit1.decade_span == pytest.approx(fit4.decade_span, rel=1e-12)


def test_bounds_fit_rejects_bad_samples():
    with pytest.raises(ValueError):
        fd.heat_kernel_bounds_fit(0.5, [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fd.heat_kernel_bounds_fit(0.5, [], [1.0, 200.0])
    with pytest.raises(ValueError):
        fd.heat_kernel_bounds_fit(0.5, [-1.0], [1.0, 200.0])
    with pytest.raises(ValueError):
        fd.heat_kernel_bounds_fit(0.5, [1.0], [0.0])
