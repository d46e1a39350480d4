"""Shared fixtures: reference kernels and a small reusable simulation."""

import math

import numpy as np
import pytest
from scipy import special

import flatdiff as fd

CAUCHY_AMPLITUDE = 1.0 / math.pi


@pytest.fixture(scope="session")
def unit_spec():
    """|z|^-2 kernel with tight declared constants (J0=1, J1=1, R0=2)."""
    return fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)


@pytest.fixture(scope="session")
def unit_cert(unit_spec):
    return fd.validate_hypothesis(unit_spec)


@pytest.fixture(scope="session")
def cauchy_spec():
    """Kernel of the half Laplacian: A = 1/pi, declared (J0=pi, J1=1, R0=2)."""
    return fd.pure_fractional(0.5, CAUCHY_AMPLITUDE, j0=math.pi, j1=1.0, r0=2.0)


@pytest.fixture(scope="session")
def cauchy_cert(cauchy_spec):
    return fd.validate_hypothesis(cauchy_spec)


@pytest.fixture(scope="session")
def fractional_laplacian():
    """Factory for the kernel of (-Laplacian)^s, declared (J0=1/A, J1=2A, R0=2)."""

    def make(s):
        amp = 4.0**s * special.gamma(0.5 + s)
        amp /= math.sqrt(math.pi) * abs(special.gamma(-s))
        return fd.pure_fractional(s, amp, j0=1.0 / amp, j1=2.0 * amp, r0=2.0)

    return make


@pytest.fixture(scope="session")
def small_grid():
    return fd.Grid(-40.0, 40.0, 401)


@pytest.fixture(scope="session")
def mini_run(cauchy_spec, cauchy_cert, small_grid):
    """Step datum marched to t = 0.5 on a small symmetric window."""
    op = fd.discretize(
        cauchy_spec,
        small_grid,
        fd.BoundaryModel(left_value=1.0),
        certificate=cauchy_cert,
    )
    datum = fd.InitialDatum.step(1.0, 0.0).sample(small_grid)
    return fd.evolve(op, datum, 0.5, output_times=(0.25,))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
