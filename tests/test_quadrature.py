"""Batched Gauss-Kronrod quadrature: closed-form oracles and failure reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatdiff.quadrature import QuadratureError, integrate_panels
from flatdiff.subsolution import _far_map


def integrate(f, edges, rel_tol=1e-10):
    """One integral of ``f(x)`` over the breakpoints ``edges``."""
    values, errors = integrate_panels(
        lambda x, owner: f(x), np.array([edges], dtype=float), rel_tol, str
    )
    return values[0], errors[0]


def integrate_tail(f, a, k=2.0, rel_tol=1e-10):
    """``int_a^inf f`` over the residual certificate's far map ``z = tau^(-k)``."""

    def g(tau, owner):
        z, dz = _far_map(tau, k)
        return dz * f(z)

    values, _ = integrate_panels(g, np.array([[0.0, a ** (-1.0 / k)]]), rel_tol, str)
    return values[0]


def test_interval_polynomial_exact():
    val, err = integrate(lambda x: x * x, [0.0, 1.0])
    assert val == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert err < 1e-10


def test_interval_with_kink_breakpoint():
    # |x - 0.3| integrated on [0, 1]: 0.3^2/2 + 0.7^2/2
    val, _ = integrate(lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0])
    assert val == pytest.approx(0.5 * (0.09 + 0.49), rel=1e-12)


def test_interval_ignores_exterior_breakpoints():
    # breakpoints clipped to the ends make zero-width panels, which are dropped
    val, _ = integrate(lambda x: x, [0.0, 0.0, 1.0, 1.0])
    assert val == pytest.approx(0.5, rel=1e-12)


def test_interval_nonconvergent_raises():
    with pytest.raises(QuadratureError, match="did not converge in 400 panels"):
        integrate(lambda x: 1.0 / x, [0.0, 1.0])


def test_tail_inverse_square():
    assert integrate_tail(lambda z: z**-2, 1.0) == pytest.approx(1.0, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.5, max_value=50.0),
    p=st.floats(min_value=1.2, max_value=3.5),
    k=st.sampled_from([2.0, 1.0 / 0.3, 1.0 / 0.6]),
)
def test_tail_power_law_matches_closed_form(a, p, k):
    # z = tau^(-k) turns z^(-p) into k tau^(k (p - 1) - 1): tau^(2p - 3) for
    # the square-root map, singular at tau = 0 for p < 3/2
    val = integrate_tail(lambda z: z**-p, a, k)
    assert val == pytest.approx(a ** (1.0 - p) / (p - 1.0), rel=1e-8)


def test_panels_known_integrals_several_rows_per_call():
    # one call, four integrands: exp(-c x) on [0, 5] for c = 1 and 40 (the
    # second split at 0.1, with a repeated edge that makes a zero-width
    # panel), x^19, which the 10-point Gauss rule integrates exactly, and
    # sqrt(x), whose derivative is singular at 0
    edges = np.array([
        [0.0, 2.0, 2.0, 5.0],
        [0.0, 0.1, 0.1, 5.0],
        [0.0, 0.5, 0.5, 1.0],
        [0.0, 0.5, 0.5, 1.0],
    ])

    def f(x, owner):
        row = owner[:, None]
        decay = np.exp(-np.where(row == 1, 40.0, 1.0) * x)
        return np.select([row < 2, row == 2], [decay, x**19], np.sqrt(x))

    exact = np.array([
        -math.expm1(-5.0), -math.expm1(-200.0) / 40.0, 1.0 / 20.0, 2.0 / 3.0
    ])
    values, errors = integrate_panels(f, edges, 1e-12, lambda i: f"row {i}")
    np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0)
    assert np.all(errors <= 1e-12 * np.abs(values))


def test_panels_error_estimate_bounds_the_true_error():
    # 1/(x^2 + e^2) on [-1, 1] is peaked for small e, so each row needs
    # several passes of bisection; its integral is 2 atan(1/e)/e
    eps = np.array([1.0, 0.1, 1e-2, 1e-3])
    edges = np.tile([-1.0, 1.0], (eps.size, 1))
    for rel_tol in (1e-6, 1e-10):
        values, errors = integrate_panels(
            lambda x, owner: 1.0 / (x * x + eps[owner, None] ** 2),
            edges, rel_tol, lambda i: f"row {i}",
        )
        exact = 2.0 * np.arctan(1.0 / eps) / eps
        assert np.all(np.abs(values - exact) <= errors)
        assert np.all(errors <= rel_tol * values)


def test_panels_raise_at_the_cap_or_a_non_finite_value():
    # 1/x on [0, 1] diverges, so row 1 bisects until it reaches the cap
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(QuadratureError, match="row 1 did not converge in 400 panels"):
        integrate_panels(
            lambda x, owner: np.where(owner[:, None] == 1, 1.0 / x, x),
            edges, 1e-10, lambda i: f"row {i}",
        )
    # log of a negative number is NaN, without a RuntimeWarning
    with pytest.raises(QuadratureError, match="row 0 gave a non-finite value"):
        integrate_panels(
            lambda x, owner: np.log(x - 0.5), edges, 1e-10, lambda i: f"row {i}"
        )
