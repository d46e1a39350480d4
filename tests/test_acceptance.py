"""Acceptance suite: one test per quantitative criterion, at its stated
tolerance. Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.

The large production run marches the half-Laplacian kernel (so the exact
plateau solution is available in closed form) on an asymmetric window biased
far to the right, where the tail-flattening claim lives.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import flatdiff as fd
from flatdiff.cli import run_bench


@pytest.fixture(scope="module")
def base_run(cauchy_spec, cauchy_cert):
    grid = fd.Grid(-200.0, 4000.0, 84001)
    op = fd.discretize(
        cauchy_spec, grid, fd.BoundaryModel(left_value=1.0), certificate=cauchy_cert
    )
    u0 = fd.InitialDatum.step(1.0, 0.0).sample(grid)
    return fd.evolve(op, u0, 1.0, output_times=(0.25, 0.5))


@pytest.fixture(scope="module")
def refined_run(cauchy_spec, cauchy_cert):
    grid = fd.Grid(-400.0, 8000.0, 336001)
    op = fd.discretize(
        cauchy_spec, grid, fd.BoundaryModel(left_value=1.0), certificate=cauchy_cert
    )
    u0 = fd.InitialDatum.step(1.0, 0.0).sample(grid)
    return fd.evolve(op, u0, 1.0)


def interior_error(traj, t, window):
    x = traj.grid.points()
    sel = (x >= window[0]) & (x <= window[1])
    exact = fd.reference_solution(0.5, 1.0, 0.0, t, x[sel])
    return float(np.max(np.abs(traj.state_at(t).values[sel] - exact)))


def comparison_kernels():
    pure = fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)
    truncated = fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0)
    compact = fd.compact_plus_tail(
        1.0, 1.0, near_profile="flat", near_scale=1.0, j0=1.0, j1=1.0, r0=2.0
    )
    return [(pure, False), (truncated, True), (compact, False)]


def test_criterion_01_tail_flattening_lower_bound(base_run, cauchy_spec):
    assert base_run.grid.n >= 20001
    report = fd.flattening_ratio(
        base_run, cauchy_spec, 1.0, (100.0, 3000.0), a=1.0, tol_rel=0.1
    )
    assert report.passed
    # bound is kappa a = 1/(4 pi); criterion requires at least 90% of it
    assert report.measured >= 0.0716
    # and the exact limit of the renormalized tail is 1/pi from above
    assert 0.29 < report.measured < 0.3184


def test_criterion_02_interior_accuracy_under_refinement(base_run, refined_run):
    window = (-150.0, 3200.0)
    base_err = interior_error(base_run, 1.0, window)
    fine_err = interior_error(refined_run, 1.0, window)
    assert base_err <= 5e-3
    assert fine_err <= base_err / 1.5


def test_base_run_apply_budget(base_run):
    # SSPRK(k,2) steps that grow with t: 42 applies where forward Euler at
    # half the stage bound took 84
    assert base_run.applies <= 45


def test_base_run_error_with_hat_weights(base_run):
    # hat weights with steps of 0.75 t read 6.5e-4; steps of t read 1.22e-3,
    # and cell masses with steps of t read 1.06e-3
    assert interior_error(base_run, 1.0, (-150.0, 3200.0)) <= 8e-4
    assert base_run.steps < base_run.applies


def test_tail_run_at_s075_interior_error_and_flattening(fractional_laplacian):
    # the benchmark's tail configuration: s = 0.75 fractional Laplacian,
    # algebraic-tail right boundary, step datum marched to t = 1
    spec = fractional_laplacian(0.75)
    grid = fd.Grid(-50.0, 350.0, 8001)
    boundary = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
    op = fd.discretize(spec, grid, boundary)
    traj = fd.evolve(op, fd.InitialDatum.step(1.0, 0.0).sample(grid), 1.0)
    x = grid.points()
    sel = (x > -20.0) & (x < 100.0)
    exact = fd.reference_solution(0.75, 1.0, 0.0, 1.0, x[sel])
    # measured 1.09e-4 on all 2399 nodes (1.02e-4 on every sixth, as the
    # benchmark samples); 1.5e-4 leaves 38 % slack
    assert np.max(np.abs(traj.state_at(1.0).values[sel] - exact)) <= 1.5e-4
    report = fd.flattening_ratio(traj, spec, 1.0, a=1.0, tol_rel=0.1)
    # measured 0.1995 on the default window (50, 280) against kappa a = 0.0499,
    # and 1.0003 times the exact limit a A / (2s): the bound itself holds with
    # a factor of 4 to spare, and an overshoot of 1 % past the limit fails
    assert report.passed
    assert report.measured >= fd.kappa(spec) * 1.0
    assert abs(report.details["measured_over_limit"] - 1.0) <= 0.01


def test_criterion_03_halfline_persistence(base_run):
    report = fd.halfline_bound_check(base_run, a=1.0, b=0.0, tol=0.02)
    assert report.passed
    assert report.measured >= 0.48
    assert set(base_run.times) == {0.0, 0.25, 0.5, 1.0}
    assert fd.reference_solution(0.5, 1.0, 0.0, 1.0, -1.0) == pytest.approx(
        0.75, rel=1e-12
    )


def test_criterion_04_mirror_identity_with_refinement(cauchy_spec):
    defects = []
    for n in (201, 401):
        report = fd.mirror_identity_check(
            cauchy_spec, a=1.0, b=0.0, eps=0.5, t_final=1.0, tol=0.02,
            grid=fd.Grid(-20.0, 20.0, n),
        )
        assert report.passed
        defects.append(report.measured)
    assert defects[0] <= 0.02
    assert defects[1] <= max(defects[0], 1e-10)


def test_criterion_05_subsolution_residual_certificate(unit_spec):
    params = fd.SubsolutionParams.from_kernel(unit_spec, c=2.0)
    assert params.kappa == 0.25
    assert params.t_star == 16.0
    assert params.r_star == 16.0
    samples = fd.residual_grid(unit_spec, params, nt=20, nx=20, x_max=200.0)
    assert len(samples) == 400
    failed = [s for s in samples if not s.passed]
    assert failed == []
    assert max(s.residual for s in samples) <= 0.0


def test_criterion_06_discrete_comparison_principle(rng):
    grid = fd.Grid(-10.0, 10.0, 128)
    for spec, force in comparison_kernels():
        op = fd.discretize(
            spec, grid, fd.BoundaryModel(left_value=0.5), force=force
        )
        for _ in range(20):
            lower0 = rng.uniform(0.0, 1.0, grid.n)
            upper0 = lower0 + rng.uniform(0.0, 1.0, grid.n)
            lower = fd.evolve(op, fd.Field(grid, 0.0, lower0), 0.2, (0.1,))
            upper = fd.evolve(op, fd.Field(grid, 0.0, upper0), 0.2, (0.1,))
            report = fd.discrete_comparison_check(upper, lower, tol=1e-12)
            assert report.passed
            assert report.margin >= -1e-12


def test_criterion_07_monotone_profile_preservation():
    grid = fd.Grid(-10.0, 10.0, 128)
    datum = fd.InitialDatum.step(1.0, 0.0)
    for spec, force in comparison_kernels():
        op = fd.discretize(
            spec, grid, fd.BoundaryModel(left_value=1.0), force=force
        )
        traj = fd.evolve(op, datum.sample(grid), 0.5, output_times=(0.25,))
        for state in traj.states:
            assert np.max(np.diff(state.values)) <= 1e-12


def test_criterion_08_reference_kernel_self_consistency():
    # unit mass at closed-form orders
    for s in (0.5, 1.0):
        mass, _ = quad(
            lambda y: fd.fractional_heat_kernel(s, 1.0, y),
            -np.inf,
            np.inf,
            epsabs=1e-12,
        )
        assert abs(mass - 1.0) <= 1e-8
    # unit mass at a generic order: numeric core plus two-term tail series
    s, big = 0.75, 100.0
    core, _ = quad(
        lambda y: fd.fractional_heat_kernel(s, 1.0, y),
        0.0,
        big,
        epsabs=1e-10,
        limit=200,
    )
    tail = sum(
        (-1.0) ** (k + 1)
        * special.gamma(2.0 * s * k + 1.0)
        / (math.factorial(k) * 2.0 * s * k)
        * math.sin(k * math.pi * s)
        * big ** (-2.0 * s * k)
        for k in (1, 2)
    ) / math.pi
    assert abs(2.0 * core + 2.0 * tail - 1.0) <= 1e-8

    # self-similar rescaling
    for s in (0.5, 0.75, 1.0):
        scale = 4.0 ** (-1.0 / (2.0 * s))
        for x in (0.5, 3.0):
            direct = fd.fractional_heat_kernel(s, 4.0, x)
            rescaled = scale * fd.fractional_heat_kernel(s, 1.0, scale * x)
            assert abs(direct - rescaled) <= 1e-8

    # kernel tail decays like |x|^-(1+2s) at s = 1/2
    grid = fd.Grid(1.0, 5000.0, 4000)
    f = fd.Field(grid, 1.0, fd.fractional_heat_kernel(0.5, 1.0, grid.points()))
    fit = fd.tail_exponent_fit(f, (100.0, 1000.0))
    assert fit.slope == pytest.approx(-2.0, rel=0.05)


@pytest.mark.xfail(
    strict=True,
    reason="the Gaussian kernel at t = 1 underflows double precision on "
    "[100, 1000] (values near exp(-2500)), so no finite-precision tail "
    "regression can resolve the s = 1 decay exponent there",
)
def test_criterion_08_gaussian_tail_slope_unresolvable():
    grid = fd.Grid(1.0, 5000.0, 4000)
    f = fd.Field(grid, 1.0, fd.fractional_heat_kernel(1.0, 1.0, grid.points()))
    fit = fd.tail_exponent_fit(f, (100.0, 1000.0))
    assert fit.slope == pytest.approx(-3.0, rel=0.05)


def test_criterion_09_fft_direct_equivalence_and_speed(unit_spec, unit_cert, rng):
    for n in (256, 1024, 4096):
        grid = fd.Grid(-10.0, 10.0, n)
        op = fd.discretize(
            unit_spec, grid, fd.BoundaryModel(left_value=0.8), certificate=unit_cert
        )
        u = fd.Field(grid, 0.0, rng.uniform(0.0, 1.0, n))
        direct = op.apply(u).values
        fast = op.apply_fft(u).values
        assert np.max(np.abs(direct - fast)) <= 1e-10 * np.max(np.abs(direct))
    rows = run_bench(unit_spec, [4096], reps=3, domain=(-10.0, 10.0), seed=0)
    assert rows[0]["speedup"] > 1.0


def test_criterion_10_hypothesis_validator_flags():
    tight = fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)
    assert fd.validate_hypothesis(tight).verified is True
    understated = fd.pure_fractional(0.5, 1.0, j0=0.5, j1=1.0, r0=2.0)
    cert = fd.validate_hypothesis(understated)
    assert cert.verified is False
    assert cert.upper_margin < 0
    half_laplacian = fd.pure_fractional(
        0.5, 1.0 / math.pi, j0=math.pi, j1=1.0, r0=2.0
    )
    assert fd.validate_hypothesis(half_laplacian).verified is True
