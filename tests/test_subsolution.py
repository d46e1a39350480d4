"""Barrier profile, its constants, and the quadrature residual certificate."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import flatdiff as fd
from flatdiff import subsolution
from flatdiff.kernels import HypothesisViolationError
from flatdiff.quadrature import QuadratureError

# flat near profile: J = 1 on |z| <= 1 and z^-3 beyond, a jump at z = 1
COMPACT_FLAT_1 = fd.compact_plus_tail(
    1.0, 1.0, near_profile="flat", near_scale=1.0, j0=1.0, j1=1.0, r0=2.0
)


@pytest.fixture(scope="module")
def unit_params(unit_spec):
    return fd.SubsolutionParams.from_kernel(unit_spec, c=2.0)


# -- constants ---------------------------------------------------------------


def test_kappa_examples(unit_spec, cauchy_spec):
    assert fd.kappa(unit_spec) == 0.25
    assert fd.kappa(cauchy_spec) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-15)
    quarter = fd.pure_fractional(0.25, 1.0, j0=1.0, j1=1.0, r0=2.0)
    assert fd.kappa(quarter) == 0.5


def test_scaling_constants_examples(unit_spec):
    def scales(spec, c):
        params = fd.SubsolutionParams.from_kernel(spec, c)
        return params.t_star, params.r_star

    assert scales(unit_spec, 2.0) == (16.0, 16.0)
    assert scales(unit_spec, 0.5) == (4.0, 4.0)
    quarter = fd.pure_fractional(0.25, 1.0, j0=1.0, j1=1.0, r0=2.0)
    assert scales(quarter, 2.0) == (8.0, 256.0)
    with pytest.raises(ValueError):
        scales(unit_spec, 0.0)


def test_params_from_kernel(unit_spec, unit_params):
    p = unit_params
    assert (p.spec, p.c, p.a, p.b) == (unit_spec, 2.0, 1.0, 0.0)
    assert p == fd.SubsolutionParams(unit_spec, 2.0)
    assert (p.spec.s, p.spec.declared_j0, p.r0) == (0.5, 1.0, 2.0)
    assert p.kappa == 0.25
    assert p.t_star == 16.0
    assert p.r_star == 16.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": 0.0, "j0": 1.0, "c": 1.0},
        {"s": 0.5, "j0": -1.0, "c": 1.0},
        {"s": 0.5, "j0": 1.0, "c": 0.0},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "a": 0.0},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "r0": 1.0},
        {"s": 0.5, "j0": 1.0, "c": float("nan")},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "a": float("nan")},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "b": float("nan")},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "b": float("inf")},
        {"s": 0.5, "j0": 1.0, "c": float("inf")},
        {"s": 0.5, "j0": 1.0, "c": 1.0, "a": float("inf")},
    ],
)
def test_params_validation(kwargs):
    # s, j0 and r0 are the kernel's, so the kernel rejects them
    k = dict(kwargs)
    with pytest.raises(ValueError):
        spec = fd.pure_fractional(
            k.pop("s"), 1.0, j0=k.pop("j0"), j1=1.0, r0=k.pop("r0", 2.0)
        )
        fd.SubsolutionParams(spec, **k)


@given(
    s=st.floats(0.05, 1.0),
    j0=st.floats(0.1, 10.0),
    c=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_scaling_identities_hold(s, j0, c):
    p = fd.SubsolutionParams(fd.pure_fractional(s, j0=j0, j1=1.0, r0=2.0), c)
    assert p.t_star * p.kappa == pytest.approx(2.0 * c, rel=1e-12)
    assert p.r_star ** (2.0 * s) == pytest.approx(8.0 * c * j0**2, rel=1e-12)


# -- profile -----------------------------------------------------------------


def test_profile_values(unit_params):
    p = unit_params
    assert fd.w_eval(p, 1.0, -3.0) == 0.5
    assert fd.w_eval(p, 1.0, 0.0) == 0.5
    assert fd.w_eval(p, 1.0, 2.0) == pytest.approx(0.1, rel=1e-14)
    # continuity across the junction
    assert fd.w_eval(p, 1.0, 1e-12) == pytest.approx(0.5, rel=1e-11)


def test_profile_tail_scales_like_kappa_t(unit_params):
    p = unit_params
    for t in (0.5, 1.0, 8.0):
        x = 1e8
        assert x ** (2.0 * p.spec.s) * fd.w_eval(p, t, x) == pytest.approx(
            p.kappa * t, rel=1e-7
        )


def test_profile_monotonicity(unit_params):
    p = unit_params
    xs = np.linspace(0.1, 50.0, 200)
    vals = fd.w_eval(p, 1.0, xs)
    assert np.all(np.diff(vals) < 0)
    earlier = fd.w_eval(p, 0.5, xs)
    assert np.all(earlier <= vals)


def test_profile_vectorization_matches_scalar(unit_params):
    """A float gives the same bits as the array path, for 2s = 1, 1.5, 2."""
    xs = np.concatenate(
        [[-5.0, -1.0, -0.0, 0.0, 0.5, 2.0, 100.0], np.logspace(-300, 300, 1201)]
    )
    for s in (0.5, 0.75, 1.0):
        spec = fd.pure_fractional(s, j0=unit_params.spec.declared_j0, j1=1.0, r0=2.0)
        p = fd.SubsolutionParams(spec, c=unit_params.c)
        with np.errstate(over="ignore"):
            vec = fd.w_eval(p, 3.0, xs)
            assert vec.shape == xs.shape
            for xi, vi in zip(xs.tolist(), vec):
                scalar = fd.w_eval(p, 3.0, xi)
                assert type(scalar) is float
                assert scalar == fd.w_eval(p, 3.0, np.array([xi]))[0] == vi
                assert fd.w_eval(p, 3.0, np.float64(xi)) == scalar


def test_profile_scalar_input_overflows_like_numpy():
    p = fd.SubsolutionParams(fd.pure_fractional(0.75, j0=1.0, j1=1.0, r0=2.0), c=2.0)
    for x in (1e300, np.array([1e300])):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert fd.w_eval(p, 3.0, x) == 0.0


def test_profile_is_nan_at_nan(unit_params):
    # x <= 0 is false for NaN as x > 0 is, so NaN must not take the plateau
    xs = np.array([np.nan, -1.0, 2.0])
    vec = fd.w_eval(unit_params, 1.0, xs)
    assert np.isnan(vec[0]) and vec[1] == 0.5
    assert vec[2] == fd.w_eval(unit_params, 1.0, 2.0)
    assert np.isnan(fd.w_eval(unit_params, 1.0, float("nan")))
    assert np.isnan(fd.w_eval(unit_params, 1.0, np.float64("nan")))
    assert np.isnan(fd.w_eval(unit_params, 1.0, np.array(np.nan)))
    assert np.isnan(fd.shifted_subsolution(unit_params, 8.0, float("nan")))


def test_profile_requires_positive_time(unit_params):
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            fd.w_eval(unit_params, t, 1.0)
        with pytest.raises(ValueError):
            fd.w_time_derivative(unit_params, t, 1.0)


def test_time_derivative_values(unit_params):
    p = unit_params
    assert fd.w_time_derivative(p, 1.0, -2.0) == 0.0
    assert fd.w_time_derivative(p, 1.0, 2.0) == pytest.approx(0.08, rel=1e-14)
    # zero-time limit is kappa / x^(2s)
    assert fd.w_time_derivative(p, 1e-12, 2.0) == pytest.approx(0.125, rel=1e-9)


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_time_derivative_is_finite_at_every_finite_x(s):
    # float ** raised OverflowError once (x^(2s) + 2 kappa t)^2 passed the
    # largest float, past x = 1.3e154 at s = 1/2, and x = +inf gave NaN
    p = fd.SubsolutionParams(fd.pure_fractional(s, 1.0, j0=1.0, j1=1.0, r0=2.0), c=2.0)
    kappa, t, a = p.kappa, 8.0, 2.0 * s
    x = np.geomspace(1e-3, 1.7e308, 2000)
    values = np.array([fd.w_time_derivative(p, t, xi) for xi in x])
    assert np.isfinite(values).all()
    assert np.all(np.diff(values[x > 1e3]) <= 0.0)
    assert fd.w_time_derivative(p, t, math.inf) == 0.0
    # every value the plain expression gets finite keeps its bits, and the
    # far form takes over with no step: kappa / x^(2s) to rounding there
    kept = 0
    for xi, value in zip(x.tolist(), values.tolist()):
        try:
            xs = xi**a
            plain = kappa * xs / (xs + 2.0 * kappa * t) ** 2
        except OverflowError:
            assert value == pytest.approx(kappa * xi**-a, rel=1e-15, abs=1e-320)
        else:
            assert value == plain
            kept += 1
    assert 0 < kept < x.size
    # a vast t squares past the largest float at small x as well
    for xi in (1e-200, 0.5, 2.0):
        assert 0.0 <= fd.w_time_derivative(p, 1e300, xi) < math.inf


def test_time_derivative_matches_finite_difference(unit_params):
    p = unit_params
    t, x, d = 1.0, 2.0, 1e-5
    fdiff = (fd.w_eval(p, t + d, x) - fd.w_eval(p, t - d, x)) / (2.0 * d)
    assert fd.w_time_derivative(p, t, x) == pytest.approx(fdiff, rel=1e-6)


@given(
    x=st.floats(18.0, 200.0),
    z=st.floats(1e-6, 16.0),
    t=st.floats(0.01, 16.0),
)
@settings(max_examples=200, deadline=None)
def test_symmetric_increment_nonnegative_on_convex_branch(unit_params, x, z, t):
    # both sample points stay on the convex branch x > 0 when z <= 16 < x
    assert fd.symmetric_increment(unit_params, t, x, z) >= -1e-15


def decimal_increment(params, t, x, z):
    """``w(x+z) + w(x-z) - 2 w(x)`` summed naively in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, kt = Decimal(2.0 * params.spec.s), Decimal(params.kappa * t)

        def w(y):
            return kt / (y**a + 2 * kt) if y > 0 else Decimal("0.5")

        x, z = Decimal(x), Decimal(z)
        return w(x + z) + w(x - z) - 2 * w(x)


@pytest.mark.parametrize("s", [0.5, 0.75, 0.95])
@pytest.mark.parametrize(
    "ratio", [1e-12, 1e-8, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12]
)
def test_symmetric_increment_matches_decimal_oracle(s, ratio):
    # the three barrier values agree to ~ratio^2 relative, so a float sum of
    # them keeps no digits at small ratios; the increment must keep them all.
    # Near ratio 1 the distance x - |z| to the plateau edge is exact while
    # 1 - |z|/x keeps few digits of it, none once it is below an ulp of x
    p = fd.SubsolutionParams(fd.pure_fractional(s, j0=1.0, j1=1.0, r0=2.0), c=2.0)
    for x, t in itertools.product((20.0, 1e11), (0.25 * p.t_star, 0.75 * p.t_star)):
        for z in (ratio * x, -ratio * x):
            got = fd.symmetric_increment(p, t, x, z)
            assert isinstance(got, float)
            exact = decimal_increment(p, t, x, z)
            assert abs((Decimal(got) - exact) / exact) <= Decimal("1e-13")


# -- operator on the barrier -------------------------------------------------


def dense_operator_oracle(params, t, x):
    """Independent (D w)(t, x) for the pure s=1/2, A=1 kernel, J(z) = z^-2.

    Single symmetrized adaptive quadrature out to Z, the right tail by the
    1/z substitution, and the closed-form left plateau term (0.5 - w) / Z.
    """
    big = 1000.0
    w_x = fd.w_eval(params, t, x)

    def sym(z):
        return (
            fd.w_eval(params, t, x + z) + fd.w_eval(params, t, x - z) - 2.0 * w_x
        ) / (z * z)

    # start just above 0: the integrand is finite there and the omitted mass
    # is bounded by sup|w''| * 1e-7, far below the comparison tolerance
    inner, _ = quad(sym, 1e-7, big, points=[x], limit=400, epsabs=1e-12, epsrel=1e-10)
    right_tail, _ = quad(
        lambda v: fd.w_eval(params, t, x + 1.0 / v) - w_x, 0.0, 1.0 / big, limit=200
    )
    left_tail = (0.5 - w_x) / big
    return inner + right_tail + left_tail


@pytest.mark.parametrize("t,x", [(8.0, 30.0), (4.0, 50.0)])
def test_operator_matches_dense_oracle(unit_spec, unit_params, t, x):
    ours = fd.nonlocal_apply_to_barrier(unit_spec, unit_params, t, x, quad_tol=1e-10)
    assert ours == pytest.approx(dense_operator_oracle(unit_params, t, x), rel=1e-6)


def test_operator_left_of_plateau_edge(unit_spec, unit_params):
    # w attains its maximum on x <= 0, so D w must be nonpositive there
    val = fd.nonlocal_apply_to_barrier(unit_spec, unit_params, 1.0, -5.0)
    assert val < 0.0
    # independent check: substitute z = 1/v in int_{z>5} (w(-5+z) - 1/2) z^-2 dz
    oracle, _ = quad(lambda v: fd.w_eval(unit_params, 1.0, -5.0 + 1.0 / v) - 0.5,
                     0.0, 1.0 / 5.0, limit=300)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_operator_singular_at_kink(unit_spec, unit_params):
    with pytest.raises(ValueError):
        fd.nonlocal_apply_to_barrier(unit_spec, unit_params, 1.0, 0.0)


def test_operator_quadrature_tolerance_refinement(unit_spec, fractional_laplacian):
    # the s = 0.75 and compact s = 1 kernels are where the square-root maps
    # of the near piece and the tail change the integrands most
    for spec in (unit_spec, fractional_laplacian(0.75), COMPACT_FLAT_1):
        params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
        t = params.t_star / 2.0
        loose = fd.nonlocal_apply_to_barrier(spec, params, t, 30.0, 1e-8)
        tight = fd.nonlocal_apply_to_barrier(spec, params, t, 30.0, 1e-11)
        assert abs(loose - tight) <= 10.0 * 1e-8 * abs(tight)


@pytest.mark.parametrize("x", [-3.0, 0.5, 6.0, 50.0])
def test_operator_matches_split_oracle_for_kernel_with_jump(x):
    spec = COMPACT_FLAT_1  # J = 1 on |z| <= 1 and z^-3 beyond
    p = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    t = 8.0
    w_x = fd.w_eval(p, t, x)

    def integrand(z):
        sym = fd.w_eval(p, t, x + z) + fd.w_eval(p, t, x - z) - 2.0 * w_x
        return sym * (1.0 if z <= 1.0 else z**-3)

    lo, hi = sorted((1.0, abs(x)))
    pieces = [(0.0, lo), (lo, hi), (hi, np.inf)]
    oracle = sum(
        quad(integrand, a, b, limit=400, epsabs=1e-14, epsrel=1e-12)[0]
        for a, b in pieces
    )
    ours = fd.nonlocal_apply_to_barrier(spec, p, t, x, quad_tol=1e-10)
    assert ours == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99])
def test_operator_matches_quadpack_across_orders(s):
    # with the square-root maps the ends behave as tau^(3-4s) and tau^(4s-1),
    # which bisection alone resolves slowly unless 4s is an integer: the near
    # piece subtracts its z^2 term in closed form and the far map turns
    # to z = tau^(-1/s). QUADPACK's extrapolation needs neither.
    spec = fd.pure_fractional(s, 1.0, j0=1.0, j1=1.0, r0=2.0)
    p = fd.SubsolutionParams(spec, 2.0)
    t, x = 0.5 * p.t_star, 1.5 * p.onset

    def integrand(z):
        return fd.symmetric_increment(p, t, x, z) * z ** (-1.0 - 2.0 * s)

    oracle = sum(
        quad(integrand, a, b, limit=400, epsabs=0.0, epsrel=1e-12)[0]
        for a, b in ((0.0, 0.5 * x), (0.5 * x, x), (x, np.inf))
    )
    ours = fd.nonlocal_apply_to_barrier(spec, p, t, x, quad_tol=1e-10)
    assert ours == pytest.approx(oracle, rel=1e-8, abs=0.0)
    assert fd.residual_certificate(spec, p, t, x).resolved


def test_far_piece_is_split_at_the_cutoff():
    # |x| < cutoff, so J jumps to 0 inside the far piece; integrated unsplit,
    # D w was off by 1.2e-5 relative here while QUADPACK reported 1.8e-10
    spec = fd.truncated_fractional(0.6, 1.0, 5.0, j0=1.0, j1=1.0, r0=2.0)
    p = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    t, x = 0.9 * p.t_star, 4.75**0.375
    assert t == pytest.approx(17.28, rel=1e-14)

    def integrand(z):
        return fd.symmetric_increment(p, t, x, z) * z**-2.2

    oracle = sum(
        quad(integrand, a, b, limit=400, epsabs=1e-14, epsrel=1e-12)[0]
        for a, b in ((0.0, x), (x, 5.0))
    )
    ours = fd.nonlocal_apply_to_barrier(spec, p, t, x)
    assert ours == pytest.approx(oracle, rel=10.0 * subsolution.DEFAULT_QUAD_TOL)


def test_tiny_operator_values_keep_their_relative_accuracy():
    # far beyond a truncation cutoff D w is about 1e-14; an absolute floor of
    # 1e-14 on the quadrature let it stop 3.9 % off here
    spec = fd.truncated_fractional(0.9, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0)
    p = fd.SubsolutionParams(spec, 2.0)
    t, x = 0.1 * p.t_star, 1e4

    def integrand(z):
        return fd.symmetric_increment(p, t, x, z) * z**-2.8

    oracle = quad(integrand, 0.0, 30.0, limit=400, epsabs=0.0, epsrel=1e-12)[0]
    assert 1e-15 < oracle < 1e-13
    ours = fd.nonlocal_apply_to_barrier(spec, p, t, x)
    assert ours == pytest.approx(oracle, rel=10.0 * subsolution.DEFAULT_QUAD_TOL, abs=0.0)


# -- residual certificate ----------------------------------------------------


def test_residual_is_negative_inside_validity_set(unit_spec, unit_params):
    res = fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0).residual
    assert -0.02 < res < -0.005


def test_residual_certificate_fields(unit_spec, unit_params):
    cert = fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0)
    assert cert.passed and cert.resolved
    assert cert.residual <= cert.budget
    dw = fd.nonlocal_apply_to_barrier(unit_spec, unit_params, 8.0, 30.0)
    assert cert.budget == 10.0 * subsolution.DEFAULT_QUAD_TOL * abs(dw)
    row = cert.as_row()
    assert set(row) == {"t", "x", "residual", "budget", "pass"}
    assert row["pass"] is True


@pytest.mark.parametrize("t,x", [(15.9, 18.0), (0.1, 18.0), (8.0, 200.0)])
def test_residual_certified_at_validity_corners(unit_spec, unit_params, t, x):
    assert fd.residual_certificate(unit_spec, unit_params, t, x).passed


def test_residual_grid_covers_validity_rectangle(unit_spec, unit_params):
    samples = fd.residual_grid(unit_spec, unit_params, nt=3, nx=3, x_max=60.0)
    assert len(samples) == 9
    assert all(s.passed for s in samples)
    assert {s.t for s in samples} == {4.0, 8.0, 12.0}
    xs = sorted({s.x for s in samples})
    assert xs[0] == 18.0 and xs[-1] == 60.0


@pytest.mark.parametrize("s", [0.75, 0.95])
def test_residual_grid_certified_for_steep_fractional_laplacian(fractional_laplacian, s):
    # the kernel singularity z^(-1-2s) amplifies any noise in the increment
    spec = fractional_laplacian(s)
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    samples = fd.residual_grid(spec, params, nt=3, nx=3, x_max=200.0)
    assert len(samples) == 9
    assert all(sample.passed for sample in samples)


@pytest.mark.parametrize("s", [0.75, 1.0])
def test_residual_grid_certified_on_the_full_certify_layout(fractional_laplacian, s):
    # the c = 2, 20 x 20 layout with x up to 200: every sample evaluates
    # (none raises QuadratureError) and every one passes
    spec = COMPACT_FLAT_1 if s == 1.0 else fractional_laplacian(s)
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    samples = fd.residual_grid(spec, params, nt=20, nx=20, x_max=200.0)
    assert len(samples) == 400
    assert all(sample.passed for sample in samples)


@pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
def test_residual_certificate_evaluates_far_beyond_the_layout(fractional_laplacian, s):
    # where w(x - z) climbs through the barrier's core the near integrand has
    # a layer that is narrow against sqrt(x); on an interval not split there
    # QUADPACK raised at x = 1.6e5 for s = 0.75, and from x ~ 1e3 on for
    # other kernels and times
    spec = COMPACT_FLAT_1 if s == 1.0 else fractional_laplacian(s)
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    for t in params.t_star * np.array([0.01, 0.5, 0.99]):
        for x in np.logspace(3.0, 12.0, 19):
            assert fd.residual_certificate(spec, params, float(t), float(x)).passed
    assert fd.residual_certificate(spec, params, params.t_star / 2.0, 1.6e5).passed


def test_residual_certificate_evaluates_where_z_rounds_to_x():
    # at x = 4.6e11 the plateau side of the near piece has nodes whose
    # distance x - z lies below an ulp of x, where 1 - z/x is 0: the
    # increment must come from the distance itself
    spec = fd.pure_fractional(0.3, 1.0, j0=1.0, j1=1.0, r0=2.0)
    params = fd.SubsolutionParams(spec, 2.0)
    sample = fd.residual_certificate(
        spec, params, params.t_star / 100.0, 463081239815.19165
    )
    assert sample.passed and sample.resolved


def test_residual_certificate_integrand_calls_on_the_certify_layout(
    monkeypatch, fractional_laplacian
):
    """Both ends of the near piece are square-root maps, so the quadrature need
    not bisect towards the plateau edge, where ``w(x - z)`` reaches 1/2 as
    ``(x - z)^(2s)`` and ``sigma = sqrt(x - z)`` makes it smooth."""
    spec = fractional_laplacian(0.75)
    params = fd.SubsolutionParams(spec, 2.0)
    nodes = 0
    kernel_values = subsolution.eval_kernel

    def counted(spec, z):
        nonlocal nodes
        nodes += np.size(z)
        return kernel_values(spec, z)

    monkeypatch.setattr(subsolution, "eval_kernel", counted)
    # every fourth time and position of the 20 x 20 layout, x up to 200
    times = params.t_star * np.arange(1, 21)[::4] / 21.0
    positions = np.linspace(params.onset, 200.0, 20)[::4]
    for t in times:
        for x in positions:
            assert fd.residual_certificate(spec, params, float(t), float(x)).passed
    # 21 Gauss-Kronrod nodes a panel: 108.36 measured on these 25 samples
    # (5.16 panels each, in one pass on the graded panels); QUADPACK took
    # 131.0 integrand calls, and 385.6 with the plateau end in tau = sqrt(z)
    assert nodes % 21 == 0
    assert nodes / (len(times) * len(positions)) < 160.0


@pytest.mark.parametrize("kernel", ["unit", "laplacian_075", "compact_1"])
def test_far_samples_take_at_most_two_passes(monkeypatch, unit_spec, fractional_laplacian, kernel):
    """The plateau side is graded geometrically from the core edge to
    ``sqrt(x/2)``, and the compact kernel's near piece from its profile edge,
    so the passes do not grow with ``log x``. Bisection from uniform panels
    took 1/6/11/16 passes (s = 1/2) and 4/9/14/19 (compact s = 1) at these
    positions; the graded panels take 1 (2 for the compact kernel)."""
    spec = {
        "unit": unit_spec,
        "laplacian_075": fractional_laplacian(0.75),
        "compact_1": COMPACT_FLAT_1,
    }[kernel]
    params = fd.SubsolutionParams(spec, 2.0)
    passes = 0
    kronrod21 = subsolution.quadrature._kronrod21

    def counted(*args):
        nonlocal passes
        passes += 1
        return kronrod21(*args)

    monkeypatch.setattr(subsolution.quadrature, "_kronrod21", counted)
    for x in (1e3, 1e6, 1e9, 1e12):
        passes = 0
        sample = fd.residual_certificate(spec, params, params.t_star / 2.0, x)
        assert sample.passed and sample.resolved
        assert passes <= 2, f"x = {x:g} took {passes} passes"


def test_sample_at_the_panel_cap_raises_naming_t_and_x(monkeypatch, unit_spec, unit_params):
    # a kernel value that swings with every node keeps every panel's error
    # estimate large, so the rows bisect until they reach 400 panels
    kernel_values = subsolution.eval_kernel

    def rough(spec, z):
        return kernel_values(spec, z) * (1.0 + np.sin(1e6 * z))

    monkeypatch.setattr(subsolution, "eval_kernel", rough)
    with pytest.raises(QuadratureError, match=r"at t=8\.0, x=30\.0 did not converge in 400 panels"):
        fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0)
    # in a batch, the message names the sample whose row reached the cap
    with pytest.raises(QuadratureError, match=r"x=(18|60)\.0 did not converge"):
        fd.residual_grid(unit_spec, unit_params, nt=1, nx=2, x_max=60.0)


@pytest.mark.parametrize("x", [1e6, 1e12], ids=["1e6", "1e12"])
def test_far_sample_is_resolved_by_its_relative_budget(fractional_laplacian, x):
    # far out D w decays like x^(-2s); the budget scales with it, as the
    # quadrature's stopping rule does, so the sign of the residual shows
    spec = fractional_laplacian(0.75)
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    t = params.t_star / 2.0
    sample = fd.residual_certificate(spec, params, t, x)
    dw = fd.nonlocal_apply_to_barrier(spec, params, t, x)
    assert sample.budget == 10.0 * subsolution.DEFAULT_QUAD_TOL * abs(dw)
    assert sample.passed and sample.resolved


def test_divergent_near_moment_raises_hypothesis_violation():
    # an unbounded kernel with s > 1 has no second moment at the origin, so
    # D w diverges; the near piece's closed-form term says so
    spec = fd.pure_fractional(1.2, 1.0, j0=1.0, j1=1.0, r0=2.0)
    params = fd.SubsolutionParams(spec, 2.0)
    with pytest.raises(HypothesisViolationError, match="diverges"):
        fd.residual_certificate(spec, params, params.t_star / 2.0, 30.0)


def test_residual_grid_default_span_and_guards(unit_spec, unit_params):
    samples = fd.residual_grid(unit_spec, unit_params, nt=1, nx=2)
    assert samples[-1].x == 180.0
    with pytest.raises(ValueError):
        fd.residual_grid(unit_spec, unit_params, nt=0, nx=2)
    with pytest.raises(ValueError):
        fd.residual_grid(unit_spec, unit_params, nt=2, nx=2, x_max=10.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# each takes (spec, params, value); t = 8 and x = 30 lie in the validity set
NON_FINITE_CALLS = {
    "certificate_t": lambda spec, p, v: fd.residual_certificate(spec, p, v, 30.0),
    "certificate_x": lambda spec, p, v: fd.residual_certificate(spec, p, 8.0, v),
    "grid_x_max": lambda spec, p, v: fd.residual_grid(spec, p, nt=2, nx=2, x_max=v),
    "w_eval_t": lambda spec, p, v: fd.w_eval(p, v, 30.0),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_time_or_position_raises_value_error(
    unit_spec, unit_params, call, value
):
    # NaN passes a one-sided ordering check, and at x = -inf every barrier
    # value is 1/2, so D w and the residual would read 0
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](unit_spec, unit_params, value)


QUAD_TOL_CALLS = {
    "apply": lambda spec, p, tol: fd.nonlocal_apply_to_barrier(spec, p, 8.0, 30.0, tol),
    "certificate": lambda spec, p, tol: fd.residual_certificate(spec, p, 8.0, 30.0, tol),
    "grid": lambda spec, p, tol: fd.residual_grid(spec, p, nt=2, nx=2, quad_tol=tol),
}


@pytest.mark.parametrize("quad_tol", [0.0, -1.0, 1.0, float("nan"), float("inf")], ids=str)
@pytest.mark.parametrize("call", sorted(QUAD_TOL_CALLS))
def test_quad_tol_outside_the_unit_interval_raises_before_quadrature(
    unit_spec, unit_params, monkeypatch, call, quad_tol
):
    # 0 and -1 ran the rows to the panel cap and raised QuadratureError; a
    # NaN gave NaN budgets, so every sample failed silently
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(fd.quadrature, "integrate_panels", no_quadrature)
    with pytest.raises(ValueError, match=r"quad_tol must lie in \(0, 1\)"):
        QUAD_TOL_CALLS[call](unit_spec, unit_params, quad_tol)


def test_barrier_constants_must_be_the_kernels(unit_spec, cauchy_spec, unit_params):
    # the barrier takes s, j0 and r0 from its own kernel and the integrand
    # from spec, so a barrier on another kernel certifies neither; that holds
    # also for one sharing (s, j0, r0), here with amplitude 2
    for other in (
        cauchy_spec,
        fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=3.0),
        COMPACT_FLAT_1,
        fd.pure_fractional(0.5, 2.0, j0=1.0, j1=1.0, r0=2.0),
    ):
        params = fd.SubsolutionParams.from_kernel(other, c=2.0)
        with pytest.raises(ValueError, match="are not those of kernel"):
            fd.residual_certificate(unit_spec, params, 8.0, 30.0)
        with pytest.raises(ValueError, match="are not those of kernel"):
            fd.nonlocal_apply_to_barrier(unit_spec, params, 8.0, 30.0)
        with pytest.raises(ValueError, match="are not those of kernel"):
            fd.residual_grid(unit_spec, params, nt=1, nx=1)
    # plateau height and edge are the datum's, not the kernel's
    shifted = fd.SubsolutionParams.from_kernel(unit_spec, c=2.0, a=0.5, b=3.0)
    assert fd.residual_certificate(unit_spec, shifted, 8.0, 30.0).passed
    assert fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0).passed


@pytest.mark.parametrize("kernel", ["unit", "laplacian_075", "compact_1", "truncated_075"])
def test_residual_grid_batch_gives_the_per_sample_bits(
    unit_spec, fractional_laplacian, kernel
):
    """One batched ``residual_grid`` call gives every sample the residual and
    budget bits of its own ``residual_certificate`` call: the quadrature sums
    each row apart from the others."""
    spec = {
        "unit": unit_spec,
        "laplacian_075": fractional_laplacian(0.75),
        "compact_1": COMPACT_FLAT_1,
        "truncated_075": fd.truncated_fractional(
            0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0
        ),
    }[kernel]
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    # far out the batch takes more graded steps than a sample near the onset
    for x_max in (200.0, 1e12):
        batch = fd.residual_grid(spec, params, nt=3, nx=3, x_max=x_max)
        single = [fd.residual_certificate(spec, params, s.t, s.x) for s in batch]
        assert batch == single


# -- shifted lower bound -----------------------------------------------------


def test_shifted_subsolution_values(unit_params):
    p = unit_params
    assert fd.shifted_subsolution(p, 8.0, -18.0) == 0.5
    assert fd.shifted_subsolution(p, 8.0, 1000.0) == pytest.approx(
        2.0 / 1022.0, rel=1e-14
    )
    # far field approaches a * c / x^(2s) at t_star / 2
    x = 1e9
    assert x ** (2.0 * p.spec.s) * fd.shifted_subsolution(p, 8.0, x) == pytest.approx(
        p.a * p.c, rel=1e-7
    )


def test_shifted_subsolution_scales_with_plateau(unit_spec):
    p = fd.SubsolutionParams.from_kernel(unit_spec, c=2.0, a=0.5, b=3.0)
    assert fd.shifted_subsolution(p, 8.0, -21.0) == 0.25
    assert fd.shifted_subsolution(p, 8.0, 979.0) == pytest.approx(
        0.5 * 2.0 / 1004.0, rel=1e-14
    )
