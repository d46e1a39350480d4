"""Grid, Field, and boundary-extension models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flatdiff as fd


def test_grid_spacing_and_endpoints():
    g = fd.Grid(-2.0, 3.0, 51)
    assert g.h == pytest.approx(0.1, rel=1e-14)
    x = g.points()
    assert x[0] == -2.0
    assert x[-1] == 3.0
    assert x.shape == (51,)


def test_grid_points_are_readonly():
    g = fd.Grid(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        g.points()[0] = 5.0


def test_grid_validation():
    with pytest.raises(ValueError):
        fd.Grid(1.0, 1.0, 32)
    with pytest.raises(ValueError):
        fd.Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="grid requires finite"):
        fd.Grid(-5.0, math.inf, 64)
    with pytest.raises(ValueError, match="grid requires finite"):
        fd.Grid(-math.inf, 5.0, 64)


def test_grid_node_count_must_be_an_integer():
    for n in (32.5, 32.0):
        with pytest.raises(ValueError, match="node count must be an integer"):
            fd.Grid(-1.0, 1.0, n)
    g = fd.Grid(-1.0, 1.0, np.int64(32))
    assert g.h == fd.Grid(-1.0, 1.0, 32).h
    assert g.points().shape == (32,)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=16, max_value=400))
def test_grid_points_strictly_increasing(n):
    g = fd.Grid(-1.5, 2.5, n)
    assert np.all(np.diff(g.points()) > 0)


def test_grid_symmetry_detection():
    assert fd.Grid(-3.0, 3.0, 31).is_symmetric_about(0.0)
    assert not fd.Grid(-3.0, 3.0, 31).is_symmetric_about(0.1)
    assert fd.Grid(1.0, 5.0, 17).is_symmetric_about(3.0)


def test_field_validation():
    g = fd.Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        fd.Field(g, 0.0, np.zeros(15))
    with pytest.raises(ValueError):
        fd.Field(g, -1.0, np.zeros(16))
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fd.Field(g, t, np.zeros(16))
    bad = np.zeros(16)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        fd.Field(g, 0.0, bad)


def test_field_with_values_updates_time():
    g = fd.Grid(0.0, 1.0, 16)
    f = fd.Field(g, 0.0, np.zeros(16))
    f2 = f.with_values(np.ones(16), t=0.5)
    assert f2.t == 0.5
    assert f2.grid is g
    assert np.all(f.values == 0.0)


def test_boundary_model_validation():
    fd.BoundaryModel(left_value=1.0)
    fd.BoundaryModel(left_value=0.0, right="constant", right_value=0.3)
    with pytest.raises(ValueError):
        fd.BoundaryModel(left_value=1.0, right="mirror")
    with pytest.raises(ValueError):
        fd.BoundaryModel(left_value=-0.5)
    # only the constant model takes a right_value; under another one the
    # operator would not read it
    for right in ("zero", "algebraic_tail"):
        fd.BoundaryModel(left_value=1.0, right=right, right_value=0.0)
        for value in (0.3, -0.3, float("nan")):
            with pytest.raises(ValueError, match=f"model {right} takes no right_value"):
                fd.BoundaryModel(left_value=1.0, right=right, right_value=value)


def test_tail_amplitude_recovers_power_law():
    g = fd.Grid(1.0, 100.0, 397)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    x = g.points()
    amp = bm.fit_tail_amplitude(g, 3.0 / x, 1.0)
    assert amp == pytest.approx(3.0, rel=1e-10)


def test_tail_amplitude_zero_for_nonpositive_values():
    g = fd.Grid(1.0, 100.0, 397)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    vals = np.zeros(g.n)
    assert bm.fit_tail_amplitude(g, vals, 1.0) == 0.0


def two_pass_fit(grid, values, exponent):
    """The fit as the mean of ``log u + exponent log x`` over the window,
    and the largest magnitude of those two log terms (at least 1)."""
    x = grid.points()
    window = x >= max(grid.x_max / 10.0, 10.0 * grid.h)
    log_u, log_x = np.log(values[window]), exponent * np.log(x[window])
    scale = max(np.abs(log_u).max(), np.abs(log_x).max(), 1.0)
    return np.exp(np.mean(log_u + log_x)), scale


def test_one_pass_tail_fit_agrees_with_the_two_pass_mean():
    # the two forms round their sums differently: each is within about
    # 1.6 ulp per unit of its largest log term of the exactly summed mean
    # (2000 random windows), so they agree to 4 ulp per unit of that term
    rng = np.random.default_rng(34)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    for _ in range(200):
        x_max = float(np.exp(rng.uniform(-1.0, 7.0)))
        g = fd.Grid(-rng.uniform(0.0, 1.0) * x_max, x_max, int(rng.integers(16, 9000)))
        exponent = float(rng.uniform(0.1, 2.0))
        low = rng.uniform(-30.0, 0.0)
        u = np.exp(rng.uniform(low, low + rng.uniform(0.0, 30.0), g.n))
        fit, _ = two_pass_fit(g, u, exponent)
        # lift the last value so that the cap does not bind
        u[-1] = max(u[-1], 10.0 * fit / x_max**exponent)
        fit, scale = two_pass_fit(g, u, exponent)
        amp = bm.fit_tail_amplitude(g, u, exponent)
        assert abs(amp - fit) <= 4.0 * scale * np.finfo(float).eps * fit


@pytest.mark.parametrize("bad", [0.0, -1e-300])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_tail_fit_refuses_a_nonpositive_value_anywhere_in_the_window(bad, where):
    # the pytest configuration raises RuntimeWarning, so log 0 and the log
    # of a negative value must not warn
    g = fd.Grid(1.0, 100.0, 397)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    u = 3.0 / g.points()
    first = int(np.argmax(g.points() >= max(g.x_max / 10.0, 10.0 * g.h)))
    u[{"first": first, "middle": (first + g.n) // 2, "last": g.n - 1}[where]] = bad
    assert bm.fit_tail_amplitude(g, u, 1.0) == 0.0
    # a value just before the window is not in the fit
    v = 3.0 / g.points()
    v[first - 1] = bad
    assert bm.fit_tail_amplitude(g, v, 1.0) == pytest.approx(3.0, rel=1e-10)


def test_tail_fit_propagates_nan():
    g = fd.Grid(1.0, 100.0, 397)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    u = 3.0 / g.points()
    u[-5] = np.nan
    assert math.isnan(bm.fit_tail_amplitude(g, u, 1.0))


def test_tail_fit_refuses_an_empty_window():
    # 10 h > x_max: no node lies in the window
    g = fd.Grid(-100.0, 1.0, 64)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    assert bm.fit_tail_amplitude(g, np.ones(g.n), 1.0) == 0.0


def test_tail_fit_cap_binds_on_a_nonincreasing_field():
    # a field falling faster than x^-1 has its fit above the last value's
    # x_max u(x_max), which caps it
    g = fd.Grid(1.0, 100.0, 397)
    bm = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    x = g.points()
    u = x**-2.0
    assert np.all(np.diff(u) <= 0)
    fit, _ = two_pass_fit(g, u, 1.0)
    cap = u[-1] * g.x_max
    assert fit > 2.0 * cap
    assert bm.fit_tail_amplitude(g, u, 1.0) == cap
