"""Barrier profile, its constants, and the quadrature residual certificate."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import flatdiff as fd
from flatdiff import subsolution
from flatdiff.subsolution import RESIDUAL_BUDGET_FLOOR

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
    assert (p.s, p.j0, p.c, p.a, p.b, p.r0) == (0.5, 1.0, 2.0, 1.0, 0.0, 2.0)
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
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        fd.SubsolutionParams(**kwargs)


@given(
    s=st.floats(0.05, 1.0),
    j0=st.floats(0.1, 10.0),
    c=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_scaling_identities_hold(s, j0, c):
    p = fd.SubsolutionParams(s=s, j0=j0, c=c)
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
        assert x ** (2.0 * p.s) * fd.w_eval(p, t, x) == pytest.approx(
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
        p = fd.SubsolutionParams(s=s, j0=unit_params.j0, c=unit_params.c)
        with np.errstate(over="ignore"):
            vec = fd.w_eval(p, 3.0, xs)
            assert vec.shape == xs.shape
            for xi, vi in zip(xs.tolist(), vec):
                scalar = fd.w_eval(p, 3.0, xi)
                assert type(scalar) is float
                assert scalar == fd.w_eval(p, 3.0, np.array([xi]))[0] == vi
                assert fd.w_eval(p, 3.0, np.float64(xi)) == scalar


def test_profile_scalar_input_overflows_like_numpy():
    p = fd.SubsolutionParams(s=0.75, j0=1.0, c=2.0)
    for x in (1e300, np.array([1e300])):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert fd.w_eval(p, 3.0, x) == 0.0


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
        a, kt = Decimal(2.0 * params.s), Decimal(params.kappa * t)

        def w(y):
            return kt / (y**a + 2 * kt) if y > 0 else Decimal("0.5")

        x, z = Decimal(x), Decimal(z)
        return w(x + z) + w(x - z) - 2 * w(x)


@pytest.mark.parametrize("s", [0.5, 0.75, 0.95])
@pytest.mark.parametrize("ratio", [1e-12, 1e-8, 1e-5, 1e-3, 0.1, 0.9])
def test_symmetric_increment_matches_decimal_oracle(s, ratio):
    # the three barrier values agree to ~ratio^2 relative, so a float sum of
    # them keeps no digits at small ratios; the increment must keep them all
    p = fd.SubsolutionParams(s=s, j0=1.0, c=2.0)
    x = 20.0
    for t in (0.25 * p.t_star, 0.75 * p.t_star):
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


# -- residual certificate ----------------------------------------------------


def test_residual_is_negative_inside_validity_set(unit_spec, unit_params):
    res = fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0).residual
    assert -0.02 < res < -0.005


def test_residual_certificate_fields(unit_spec, unit_params):
    cert = fd.residual_certificate(unit_spec, unit_params, 8.0, 30.0)
    assert cert.passed and cert.resolved
    assert cert.residual <= cert.budget
    assert cert.budget >= RESIDUAL_BUDGET_FLOOR == 1e-10
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


def test_far_sample_passes_only_through_the_budget_floor(fractional_laplacian):
    # far out the residual decays like x^(-2s) below the absolute budget
    # floor: the sample passes although its sign is not resolved
    spec = fractional_laplacian(0.75)
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    sample = fd.residual_certificate(spec, params, params.t_star / 2.0, 1e6)
    assert sample.budget == RESIDUAL_BUDGET_FLOOR
    assert -RESIDUAL_BUDGET_FLOOR < sample.residual < 0.0
    assert sample.passed and not sample.resolved


def test_residual_grid_default_span_and_guards(unit_spec, unit_params):
    samples = fd.residual_grid(unit_spec, unit_params, nt=1, nx=2)
    assert samples[-1].x == 180.0
    with pytest.raises(ValueError):
        fd.residual_grid(unit_spec, unit_params, nt=0, nx=2)
    with pytest.raises(ValueError):
        fd.residual_grid(unit_spec, unit_params, nt=2, nx=2, x_max=10.0)


@pytest.mark.parametrize("kernel", ["unit", "laplacian_075", "compact_1", "truncated_075"])
def test_residual_certificate_same_through_array_path(
    monkeypatch, unit_spec, fractional_laplacian, kernel
):
    """The scalar branches of ``eval_kernel`` and ``w_eval`` change no residual
    bit: routing every integrand call through the array path gives the same
    residuals."""
    spec = {
        "unit": unit_spec,
        "laplacian_075": fractional_laplacian(0.75),
        "compact_1": COMPACT_FLAT_1,
        "truncated_075": fd.truncated_fractional(
            0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0
        ),
    }[kernel]
    params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
    scalar = [r.residual for r in fd.residual_grid(spec, params, nt=3, nx=3)]

    used = set()
    kernel_values, barrier_values = subsolution.eval_kernel, subsolution.w_eval

    def eval_kernel_via_array(spec, z):
        used.add("eval_kernel")
        return float(kernel_values(spec, np.array([z]))[0])

    def w_eval_via_array(params, t, x):
        used.add("w_eval")
        return float(barrier_values(params, t, np.array([x]))[0])

    monkeypatch.setattr(subsolution, "eval_kernel", eval_kernel_via_array)
    monkeypatch.setattr(subsolution, "w_eval", w_eval_via_array)
    routed = [r.residual for r in fd.residual_grid(spec, params, nt=3, nx=3)]
    assert used == {"eval_kernel", "w_eval"}
    assert routed == scalar


# -- shifted lower bound -----------------------------------------------------


def test_shifted_subsolution_values(unit_params):
    p = unit_params
    assert fd.shifted_subsolution(p, 8.0, -18.0) == 0.5
    assert fd.shifted_subsolution(p, 8.0, 1000.0) == pytest.approx(
        2.0 / 1022.0, rel=1e-14
    )
    # far field approaches a * c / x^(2s) at t_star / 2
    x = 1e9
    assert x ** (2.0 * p.s) * fd.shifted_subsolution(p, 8.0, x) == pytest.approx(
        p.a * p.c, rel=1e-7
    )


def test_shifted_subsolution_scales_with_plateau(unit_spec):
    p = fd.SubsolutionParams.from_kernel(unit_spec, c=2.0, a=0.5, b=3.0)
    assert fd.shifted_subsolution(p, 8.0, -21.0) == 0.25
    assert fd.shifted_subsolution(p, 8.0, 979.0) == pytest.approx(
        0.5 * 2.0 / 1004.0, rel=1e-14
    )
