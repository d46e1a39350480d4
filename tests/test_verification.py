"""Initial data, measured claim checks, and the tail-exponent regression."""

import math

import numpy as np
import pytest

import flatdiff as fd
from flatdiff.evolution import worst_node
from flatdiff.verification import DEFAULT_MOLLIFIER_RADIUS


# -- initial data ------------------------------------------------------------


def test_step_datum_cell_averages(small_grid):
    datum = fd.InitialDatum.step(1.0, 0.0)
    u = datum.sample(small_grid)
    x = small_grid.points()
    assert u.t == 0.0
    assert u.values[x == 0.0] == pytest.approx(0.5, rel=1e-14)
    assert np.all(u.values[x <= -small_grid.h] == 1.0)
    assert np.all(u.values[x >= small_grid.h] == 0.0)
    assert datum.plateau_edge == 0.0


def test_mollified_datum_symmetry_and_support(small_grid):
    datum = fd.InitialDatum.mollified_step(1.0, 0.0, eps=0.5)
    assert datum.plateau_edge == -0.5
    u = datum.sample(small_grid).values
    x = small_grid.points()
    assert np.all(u[x <= -0.5] == 1.0)
    assert np.all(u[x >= 0.5] == 0.0)
    # grid nodes from linspace are sign-symmetric only to ~1e-14 relative,
    # which bounds how exactly the mirrored pair can sum to the plateau
    assert np.max(np.abs(u + u[::-1] - 1.0)) <= 1e-13
    inside = (np.abs(x) < 0.5) & (x != 0.0)
    assert np.all((u[inside] > 0.0) & (u[inside] < 1.0))
    assert DEFAULT_MOLLIFIER_RADIUS == 0.5


def test_custom_datum_round_trip(small_grid):
    x = small_grid.points()
    vals = np.where(x <= 0.0, 1.0, np.exp(-x))
    datum = fd.InitialDatum.custom(1.0, 0.0, small_grid, vals)
    out = datum.sample(small_grid)
    assert np.array_equal(out.values, vals)
    assert out.values is not datum.values
    assert datum.plateau_edge == 0.0


def test_custom_datum_enforces_plateau(small_grid):
    x = small_grid.points()
    vals = np.where(x <= 0.0, 1.0, 0.0)
    vals[50] = 0.9
    with pytest.raises(ValueError):
        fd.InitialDatum.custom(1.0, 0.0, small_grid, vals)
    with pytest.raises(ValueError):
        fd.InitialDatum.custom(1.0, 0.0, small_grid, np.ones(17))
    other = fd.Grid(-40.0, 40.0, 801)
    good = fd.InitialDatum.custom(1.0, 0.0, small_grid, np.where(x <= 0, 1.0, 0.0))
    with pytest.raises(ValueError):
        good.sample(other)


def test_datum_validation():
    with pytest.raises(ValueError):
        fd.InitialDatum(kind="ramp", a=1.0, b=0.0)
    with pytest.raises(ValueError):
        fd.InitialDatum.step(0.0, 0.0)
    with pytest.raises(ValueError):
        fd.InitialDatum.step(1.0, math.inf)
    with pytest.raises(ValueError):
        fd.InitialDatum.mollified_step(1.0, 0.0, eps=0.0)


# -- report container --------------------------------------------------------


def test_report_consistency_is_enforced():
    with pytest.raises(ValueError):
        fd.VerificationReport(
            check="demo", measured=0.9, bound=0.5, tolerance=0.01,
            relation="sideways", worst_t=1.0, worst_x=0.0,
        )
    ok = fd.VerificationReport(
        check="demo", measured=0.1, bound=0.5, tolerance=0.01,
        relation="lower_bound", worst_t=1.0, worst_x=0.0,
    )
    d = ok.as_dict()
    assert d["pass"] is False
    assert set(d) == {
        "check", "pass", "measured", "bound", "tolerance", "relation",
        "worst_t", "worst_x", "details",
    }


# -- half-line persistence ---------------------------------------------------


def test_halfline_bound_on_mini_run(mini_run):
    report = fd.halfline_bound_check(mini_run, a=1.0, b=0.0)
    assert report.passed
    assert report.relation == "lower_bound"
    assert report.bound == 0.5
    assert report.tolerance == pytest.approx(0.02, rel=1e-14)
    assert 0.5 < report.measured < 0.65
    assert report.worst_x == pytest.approx(-0.2, rel=1e-12)
    assert report.worst_t in (0.25, 0.5)


def test_report_pass_is_derived_from_its_numbers():
    cases = [
        ("lower_bound", 0.49, True), ("lower_bound", 0.48999, False),
        ("upper_bound", 0.51, True), ("upper_bound", 0.51001, False),
        ("lower_bound", math.nan, False), ("upper_bound", math.nan, False),
    ]
    for relation, measured, expected in cases:
        report = fd.VerificationReport(
            check="demo", measured=measured, bound=0.5, tolerance=0.01,
            relation=relation, worst_t=1.0, worst_x=0.0,
        )
        assert report.passed is expected
        assert report.as_dict()["pass"] is expected


def tied_trajectory(grid, low):
    """Three snapshots on ``grid`` where the rows at t = 0.5 and t = 1 both
    reach ``low`` at nodes 3 and 7 and nowhere else."""
    rows = []
    for t in (0.0, 0.5, 1.0):
        v = np.ones(grid.n)
        if t > 0:
            v[[3, 7]] = low
        rows.append(fd.Field(grid, t, v))
    return fd.Trajectory(grid, np.array([0.0, 0.5, 1.0]), tuple(rows))


def test_worst_location_ties_go_to_earliest_time_then_leftmost_node():
    grid = fd.Grid(-8.0, 8.0, 17)
    x = grid.points()
    report = fd.halfline_bound_check(tied_trajectory(grid, 0.6), a=1.0, b=5.0)
    assert (report.measured, report.worst_t, report.worst_x) == (0.6, 0.5, x[3])
    upper = fd.Trajectory(
        grid,
        np.array([0.0, 0.5, 1.0]),
        tuple(fd.Field(grid, t, np.ones(grid.n)) for t in (0.0, 0.5, 1.0)),
    )
    report = fd.discrete_comparison_check(upper, tied_trajectory(grid, 1.5))
    assert (report.margin, report.worst_t, report.worst_x) == (-0.5, 0.5, x[3])
    # the mirror check's scan: largest defect, same tie rule
    rows = [np.where(np.arange(grid.n) % 4 == 3, 0.25, 0.0)] * 3
    assert worst_node(np.array([0.0, 0.5, 1.0]), rows, x, largest=True) == (
        0.25, 0.0, x[3]
    )


def test_halfline_bound_custom_tolerance(mini_run):
    report = fd.halfline_bound_check(mini_run, a=1.0, b=0.0, tol=0.2)
    assert report.tolerance == 0.2


def test_halfline_bound_input_validation(mini_run, small_grid):
    with pytest.raises(ValueError):
        fd.halfline_bound_check(mini_run, a=1.0, b=-41.0)
    frozen = fd.Trajectory(
        small_grid, np.array([0.0]), (fd.Field(small_grid, 0.0, np.ones(small_grid.n)),)
    )
    with pytest.raises(ValueError):
        fd.halfline_bound_check(frozen, a=1.0, b=0.0)


# -- mirror identity ---------------------------------------------------------


def test_mirror_identity_holds_on_symmetric_grid(cauchy_spec):
    grid = fd.Grid(-20.0, 20.0, 201)
    report = fd.mirror_identity_check(
        cauchy_spec, a=1.0, b=0.0, eps=0.5, t_final=0.25, tol=0.02, grid=grid
    )
    assert report.passed
    assert report.measured <= 1e-12
    assert report.relation == "upper_bound"
    assert report.details["kernel"] == cauchy_spec.describe()


def test_mirror_defect_does_not_grow_under_refinement(cauchy_spec):
    defects = []
    for n in (201, 401):
        report = fd.mirror_identity_check(
            cauchy_spec, a=1.0, b=0.0, eps=0.5, t_final=0.25, tol=0.02,
            grid=fd.Grid(-20.0, 20.0, n),
        )
        defects.append(report.measured)
    assert defects[1] <= max(defects[0], 1e-10)


def test_mirror_identity_rejects_bad_setup(cauchy_spec):
    with pytest.raises(ValueError):
        fd.mirror_identity_check(
            cauchy_spec, a=1.0, b=0.0, eps=0.5, t_final=0.25, tol=0.02,
            grid=fd.Grid(-20.0, 24.0, 201),
        )
    with pytest.raises(ValueError):
        fd.mirror_identity_check(
            cauchy_spec, a=1.0, b=0.0, eps=0.5, t_final=0.0, tol=0.02,
            grid=fd.Grid(-20.0, 20.0, 201),
        )


# -- flattening --------------------------------------------------------------


def test_flattening_ratio_on_mini_run(mini_run, cauchy_spec):
    report = fd.flattening_ratio(mini_run, cauchy_spec, 0.5, (15.0, 32.0), a=1.0)
    assert report.passed
    assert report.bound == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert 0.29 < report.measured < 0.3184
    assert report.details["kappa"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)


def test_flattening_default_window(mini_run, cauchy_spec):
    report = fd.flattening_ratio(mini_run, cauchy_spec, 0.5, a=1.0)
    assert report.details["window"][0] == pytest.approx(25.0, rel=1e-12)
    assert report.details["window"][1] == pytest.approx(32.0, rel=1e-12)
    assert report.passed


def test_flattening_window_guards(mini_run, cauchy_spec):
    with pytest.raises(ValueError):
        fd.flattening_ratio(mini_run, cauchy_spec, 0.5, (4.0, 30.0), a=1.0)
    with pytest.raises(ValueError):
        fd.flattening_ratio(mini_run, cauchy_spec, 0.5, (15.0, 39.0), a=1.0)
    with pytest.raises(ValueError):
        fd.flattening_ratio(mini_run, cauchy_spec, 0.5, (30.0, 28.0), a=1.0)
    with pytest.raises(KeyError):
        fd.flattening_ratio(mini_run, cauchy_spec, 0.3, (15.0, 32.0), a=1.0)
    with pytest.raises(ValueError):
        fd.flattening_ratio(mini_run, cauchy_spec, 0.0, (15.0, 32.0), a=1.0)
    with pytest.raises(ValueError, match="positive times"):
        fd.flattening_ratio(mini_run, cauchy_spec, -0.3, (15.0, 32.0), a=1.0)


def test_flattening_ratio_exactly_at_the_threshold(unit_spec):
    # bound * (1 - tol_rel) rounds one ulp above bound - bound * tol_rel here
    grid = fd.Grid(0.0, 200.0, 201)
    ratio = 0.11281499999999998
    u = np.full(grid.n, ratio / 128.0)
    traj = fd.Trajectory(
        grid, np.array([0.0, 1.0]), (fd.Field(grid, 0.0, u), fd.Field(grid, 1.0, u))
    )
    report = fd.flattening_ratio(traj, unit_spec, 1.0, (127.5, 128.5), a=0.5014)
    assert (report.measured, report.worst_x) == (ratio, 128.0)
    assert report.passed == (report.measured >= report.bound - report.tolerance)
    assert report.passed


def test_flattening_on_exact_solution_is_time_stable(cauchy_spec):
    grid = fd.Grid(1.0, 5000.0, 2000)
    x = grid.points()
    measured = []
    for t in (1.0, 4.0):
        u = fd.reference_solution(0.5, 1.0, 0.0, t, x)
        traj = fd.Trajectory(grid, np.array([t]), (fd.Field(grid, t, u),))
        report = fd.flattening_ratio(traj, cauchy_spec, t, a=1.0)
        assert report.passed
        assert report.measured == pytest.approx(1.0 / math.pi, rel=2e-2)
        measured.append(report.measured)
    assert measured[0] == pytest.approx(measured[1], rel=1e-2)


def test_numerical_solution_stays_conservative(mini_run):
    # the grid solution should track the exact one to first order from above
    # and below on the interior; this guards the flattening measurements
    state = mini_run.state_at(0.5)
    x = mini_run.grid.points()
    exact = fd.reference_solution(0.5, 1.0, 0.0, 0.5, x)
    sel = np.abs(x) <= 30.0
    assert np.max(np.abs(state.values[sel] - exact[sel])) <= 2.5e-2


# -- tail exponent regression ------------------------------------------------


def test_tail_fit_exact_power_law():
    grid = fd.Grid(1.0, 400.0, 800)
    f = fd.Field(grid, 0.0, 1.0 / grid.points())
    fit = fd.tail_exponent_fit(f, (10.0, 100.0))
    assert fit.slope == pytest.approx(-1.0, rel=1e-12)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points > 100


def test_tail_fit_validation():
    grid = fd.Grid(1.0, 400.0, 800)
    f = fd.Field(grid, 0.0, 1.0 / grid.points())
    with pytest.raises(ValueError):
        fd.tail_exponent_fit(f, (-1.0, 100.0))
    with pytest.raises(ValueError):
        fd.tail_exponent_fit(f, (10.0, 50.0))
    zeros = fd.Field(grid, 0.0, np.zeros(grid.n))
    with pytest.raises(ValueError):
        fd.tail_exponent_fit(zeros, (10.0, 100.0))
    coarse = fd.Grid(0.5, 10.5, 21)
    g = fd.Field(coarse, 0.0, 1.0 / coarse.points())
    with pytest.raises(ValueError):
        fd.tail_exponent_fit(g, (10.4, 105.0))


def test_tail_fit_on_closed_form_solution_and_kernel():
    grid = fd.Grid(1.0, 5000.0, 4000)
    x = grid.points()
    solution = fd.Field(grid, 1.0, fd.reference_solution(0.5, 1.0, 0.0, 1.0, x))
    kernel = fd.Field(grid, 1.0, fd.heat_kernel_profile(0.5, 1.0, x).p)
    window = (100.0, 1000.0)
    assert fd.tail_exponent_fit(solution, window).slope == pytest.approx(-1.0, abs=0.01)
    assert fd.tail_exponent_fit(kernel, window).slope == pytest.approx(-2.0, abs=0.01)
