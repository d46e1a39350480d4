"""Time stepping: stability bound, structure preservation, comparison checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flatdiff as fd


@pytest.fixture()
def small_op(unit_spec, unit_cert):
    grid = fd.Grid(-5.0, 5.0, 64)
    return fd.discretize(
        unit_spec,
        grid,
        fd.BoundaryModel(left_value=0.5, right="constant", right_value=0.5),
        certificate=unit_cert,
    )


def decreasing_datum(grid):
    x = grid.points()
    return fd.Field(grid, 0.0, 0.5 * (1.0 - np.tanh(2.0 * x)))


# -- stability bound ---------------------------------------------------------


def test_stable_dt_examples(small_op):
    small_op.row_sum = 40.0
    assert fd.stable_dt(small_op, 0.9) == pytest.approx(0.0225, rel=1e-14)
    assert fd.stable_dt(small_op, 1.0) == pytest.approx(0.025, rel=1e-14)


@pytest.mark.parametrize("safety", [0.0, -0.1, 1.5])
def test_stable_dt_safety_validation(small_op, safety):
    with pytest.raises(ValueError):
        fd.stable_dt(small_op, safety)


def test_stable_dt_degenerate_operator(small_op):
    small_op.row_sum = 0.0
    with pytest.raises(ValueError):
        fd.stable_dt(small_op, 0.5)


def test_step_refuses_unstable_dt(small_op):
    u = decreasing_datum(small_op.grid)
    with pytest.raises(ValueError):
        fd.step(small_op, u, 1.01 / small_op.row_sum)
    with pytest.raises(ValueError):
        fd.step(small_op, u, -0.1)
    small_op.row_sum = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        fd.step(small_op, u, 0.1)


def test_step_advances_time_and_leaves_input_alone(small_op):
    u = decreasing_datum(small_op.grid)
    before = u.values.copy()
    dt = fd.stable_dt(small_op, 0.45)
    v = fd.step(small_op, u, dt)
    assert v.t == pytest.approx(u.t + dt, rel=1e-15)
    assert u.t == 0.0
    assert np.array_equal(u.values, before)
    assert not np.array_equal(v.values, before)


# -- structure preservation --------------------------------------------------


def test_equilibrium_constant_state(small_op):
    grid = small_op.grid
    u0 = fd.Field(grid, 0.0, np.full(grid.n, 0.5))
    traj = fd.evolve(small_op, u0, 1.0)
    drift = np.max(np.abs(traj.states[-1].values - 0.5))
    assert drift <= 1e-12


def test_positivity_is_exact(small_op, rng):
    grid = small_op.grid
    u0 = fd.Field(grid, 0.0, rng.uniform(0.0, 1.0, grid.n))
    traj = fd.evolve(small_op, u0, 0.5, output_times=(0.1, 0.3))
    for state in traj.states:
        assert np.all(state.values >= 0.0)


def test_supremum_never_increases(small_op, rng):
    grid = small_op.grid
    u0 = fd.Field(grid, 0.0, rng.uniform(0.5, 1.0, grid.n))
    traj = fd.evolve(small_op, u0, 0.5, output_times=(0.1, 0.3))
    sups = [float(np.max(s.values)) for s in traj.states]
    for prev, cur in zip(sups, sups[1:]):
        assert cur <= prev * (1.0 + 1e-12)


def test_monotone_datum_stays_monotone(unit_spec, unit_cert):
    grid = fd.Grid(-10.0, 10.0, 201)
    op = fd.discretize(
        unit_spec, grid, fd.BoundaryModel(left_value=1.0), certificate=unit_cert
    )
    u0 = fd.Field(grid, 0.0, np.clip(0.5 - grid.points(), 0.0, 1.0))
    traj = fd.evolve(op, u0, 0.5, output_times=(0.25,))
    for state in traj.states:
        assert np.max(np.diff(state.values)) <= 1e-12


# -- snapshots and restarts --------------------------------------------------


def test_snapshot_times_are_exact(small_op):
    u0 = decreasing_datum(small_op.grid)
    traj = fd.evolve(small_op, u0, 0.5, output_times=(0.125, 0.25))
    assert list(traj.times) == [0.0, 0.125, 0.25, 0.5]
    for t, state in zip(traj.times, traj.states):
        assert state.t == t


def test_zero_length_evolution_returns_initial_state(small_op):
    u0 = decreasing_datum(small_op.grid)
    traj = fd.evolve(small_op, u0, 0.0)
    assert len(traj.states) == 1
    assert traj.states[0] is u0


def test_restart_from_snapshot_is_bitwise_identical(small_op):
    u0 = decreasing_datum(small_op.grid)
    full = fd.evolve(small_op, u0, 0.5, output_times=(0.25,))
    resumed = fd.evolve(small_op, full.state_at(0.25), 0.5)
    assert np.array_equal(resumed.states[-1].values, full.state_at(0.5).values)


def test_evolve_rejects_past_targets(small_op):
    u0 = fd.Field(small_op.grid, 1.0, np.zeros(small_op.grid.n))
    with pytest.raises(ValueError):
        fd.evolve(small_op, u0, 0.5)
    with pytest.raises(ValueError):
        fd.evolve(small_op, u0, 2.0, output_times=(0.5,))


def test_divergence_is_detected(unit_spec, unit_cert):
    grid = fd.Grid(-5.0, 5.0, 64)
    op = fd.discretize(
        unit_spec, grid, fd.BoundaryModel(left_value=0.5), certificate=unit_cert
    )
    # lie about the stability constant so forward Euler amplifies roundoff
    op.row_sum *= 0.01
    u0 = decreasing_datum(grid)
    with pytest.raises(fd.SimulationDivergedError):
        fd.evolve(op, u0, 400.0, startup_ramp=False)
    dt, u = fd.stable_dt(op, 0.45), u0
    with pytest.raises(fd.SimulationDivergedError):
        for _ in range(1000):
            u = fd.step(op, u, dt)


@pytest.mark.parametrize("n", [128, 1024])
def test_one_step_evolve_is_step(unit_spec, unit_cert, n):
    # both sides of the size rule that picks the direct or the FFT apply
    grid = fd.Grid(-5.0, 5.0, n)
    op = fd.discretize(
        unit_spec, grid, fd.BoundaryModel(left_value=0.5), certificate=unit_cert
    )
    u0 = decreasing_datum(op.grid)
    dt = fd.stable_dt(op, 0.45)
    traj = fd.evolve(op, u0, dt, startup_ramp=False)
    assert traj.times.tolist() == [0.0, dt]
    assert np.array_equal(traj.states[-1].values, fd.step(op, u0, dt).values)


# -- trajectory container ----------------------------------------------------


def test_trajectory_validation(small_op):
    grid = small_op.grid
    f = fd.Field(grid, 0.0, np.zeros(grid.n))
    with pytest.raises(ValueError):
        fd.Trajectory(grid, np.array([0.0, 1.0]), (f,))
    with pytest.raises(ValueError):
        fd.Trajectory(grid, np.array([]), ())
    with pytest.raises(ValueError):
        fd.Trajectory(grid, np.array([0.0, 0.0]), (f, f))


def test_state_at_unknown_time(small_op):
    u0 = decreasing_datum(small_op.grid)
    traj = fd.evolve(small_op, u0, 0.5)
    assert traj.state_at(0.5).t == 0.5
    with pytest.raises(KeyError):
        traj.state_at(0.33)


# -- discrete comparison principle -------------------------------------------


def test_comparison_equal_trajectories(small_op):
    u0 = decreasing_datum(small_op.grid)
    traj = fd.evolve(small_op, u0, 0.5, output_times=(0.25,))
    report = fd.discrete_comparison_check(traj, traj)
    assert report.passed
    assert report.margin == 0.0


def test_comparison_ordered_pair_stays_ordered(small_op, rng):
    grid = small_op.grid
    lower0 = rng.uniform(0.0, 0.4, grid.n)
    upper0 = lower0 + rng.uniform(0.0, 0.3, grid.n)
    times = (0.1, 0.25)
    lower = fd.evolve(small_op, fd.Field(grid, 0.0, lower0), 0.5, times)
    upper = fd.evolve(small_op, fd.Field(grid, 0.0, upper0), 0.5, times)
    report = fd.discrete_comparison_check(upper, lower)
    assert report.passed
    assert report.margin >= -1e-12


def test_comparison_rejects_mismatched_inputs(small_op, unit_spec, unit_cert):
    grid = small_op.grid
    u0 = decreasing_datum(grid)
    traj = fd.evolve(small_op, u0, 0.5)
    other_grid = fd.Grid(-5.0, 5.0, 128)
    other_op = fd.discretize(
        unit_spec, other_grid, fd.BoundaryModel(left_value=0.5), certificate=unit_cert
    )
    other = fd.evolve(other_op, decreasing_datum(other_grid), 0.5)
    with pytest.raises(ValueError):
        fd.discrete_comparison_check(traj, other)
    shifted = fd.evolve(small_op, u0, 0.7)
    with pytest.raises(ValueError):
        fd.discrete_comparison_check(traj, shifted)


def test_comparison_rejects_unordered_initial_data(small_op):
    grid = small_op.grid
    hi = fd.Field(grid, 0.0, np.full(grid.n, 1.0))
    lo = fd.Field(grid, 0.0, np.full(grid.n, 0.5))
    upper = fd.Trajectory(grid, np.array([0.0]), (lo,))
    lower = fd.Trajectory(grid, np.array([0.0]), (hi,))
    with pytest.raises(ValueError):
        fd.discrete_comparison_check(upper, lower)


def test_comparison_flags_a_crossing(small_op):
    grid = small_op.grid
    ones = np.ones(grid.n)
    crossing = ones.copy()
    crossing[10] = 1.5
    upper = fd.Trajectory(
        grid,
        np.array([0.0, 1.0]),
        (fd.Field(grid, 0.0, 1.2 * ones), fd.Field(grid, 1.0, ones)),
    )
    lower = fd.Trajectory(
        grid,
        np.array([0.0, 1.0]),
        (fd.Field(grid, 0.0, ones), fd.Field(grid, 1.0, crossing)),
    )
    report = fd.discrete_comparison_check(upper, lower)
    assert not report.passed
    assert report.margin == pytest.approx(-0.5, rel=1e-12)
    assert report.worst_t == 1.0
    assert report.worst_x == pytest.approx(grid.points()[10], rel=1e-12)


# -- invariants on the FFT path ----------------------------------------------


KERNEL_FAMILIES = {
    "pure": (fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0), False),
    "truncated": (
        fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0),
        True,
    ),
    "compact": (
        fd.compact_plus_tail(
            1.0, 1.0, near_profile="flat", near_scale=1.0, j0=1.0, j1=1.0, r0=2.0
        ),
        False,
    ),
}


def check_fft_order_and_bounds(rng, n, family, right):
    """Evolve a random ordered pair for 60 stable FFT-path steps on [-10, 10];
    assert it stays ordered, nonnegative and below the data and boundary
    values. Returns the operator and the final time."""
    spec, force = KERNEL_FAMILIES[family]
    grid = fd.Grid(-10.0, 10.0, n)
    bm = fd.BoundaryModel(left_value=0.5, right=right, right_value=0.25)
    op = fd.discretize(spec, grid, bm, force=force)
    lower0 = rng.uniform(0.05, 0.5, n)
    upper0 = lower0 + rng.uniform(0.0, 0.5, n)
    t_final = 60 * fd.stable_dt(op, 0.45)
    upper, lower = (
        fd.evolve(op, fd.Field(grid, 0.0, v), t_final, (t_final / 2,))
        for v in (upper0, lower0)
    )
    assert fd.discrete_comparison_check(upper, lower, tol=1e-12).passed
    for traj, datum in ((upper, upper0), (lower, lower0)):
        ceiling = max(datum.max(), bm.left_value, bm.right_value)
        for state in traj.states:
            assert state.values.min() >= 0.0
            assert state.values.max() <= ceiling + 1e-12
    return op, t_final


def check_fft_keeps_monotone(rng, op, t_final):
    """A nonincreasing datum between the right and left extensions stays
    nonincreasing on the FFT path."""
    grid, bm = op.grid, op.boundary
    floor = bm.right_value if bm.right == "constant" else 0.0
    mono0 = np.clip(np.sort(rng.uniform(0.0, 0.6, grid.n))[::-1], floor, bm.left_value)
    mono = fd.evolve(op, fd.Field(grid, 0.0, mono0), t_final, (t_final / 2,))
    for state in mono.states:
        assert np.all(np.diff(state.values) <= 1e-12)


@pytest.mark.parametrize("right", ["zero", "constant", "algebraic_tail"])
@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@pytest.mark.parametrize("n", [512, 2048])
def test_fft_path_keeps_order_and_bounds(rng, n, family, right):
    op, t_final = check_fft_order_and_bounds(rng, n, family, right)
    check_fft_keeps_monotone(rng, op, t_final)


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=512, max_value=8192),
    family=st.sampled_from(sorted(KERNEL_FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_path_keeps_order_and_bounds_algebraic_tail_any_n(n, family, seed):
    rng = np.random.default_rng(seed)
    op, t_final = check_fft_order_and_bounds(rng, n, family, "algebraic_tail")
    check_fft_keeps_monotone(rng, op, t_final)
