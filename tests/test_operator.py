"""Discretized nonlocal operator: weights, evaluation, and the fast path."""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import flatdiff as fd
from flatdiff.operator import (
    _FFT_THRESHOLD,
    _TORUS_MIN_N,
    _TORUS_P,
    _Torus,
    _crt_index,
    _torus_shape,
)


def make_op(spec, cert, grid, left=0.0, right="zero", right_value=0.0):
    return fd.discretize(
        spec,
        grid,
        fd.BoundaryModel(left_value=left, right=right, right_value=right_value),
        certificate=cert,
    )


@pytest.fixture(scope="module")
def h01_grid():
    return fd.Grid(-20.0, 20.0, 401)


# -- weights -----------------------------------------------------------------


def test_hat_weight_offset_ten(unit_spec, unit_cert, h01_grid):
    op = make_op(unit_spec, unit_cert, h01_grid)
    assert h01_grid.h == pytest.approx(0.1, rel=1e-14)
    # z^2 J = 1 for |z|^-2, so the hat at k h has moment h and w_k = 1 / (k^2 h);
    # offset k=10 is the hat around z = 1, and k = 1 carries the folded half hat
    assert op.near_weights[9] == pytest.approx(0.1, rel=1e-12)
    assert op.near_weights[0] == pytest.approx(1.5 / 0.1, rel=1e-12)


def test_weights_nonnegative(unit_spec, unit_cert, h01_grid):
    op = make_op(unit_spec, unit_cert, h01_grid)
    assert np.all(op.near_weights >= 0)
    assert all(c >= 0 for c in op.far_tail_coefficients)


HAT_KERNELS = {
    **{
        f"pure-{s}": fd.pure_fractional(s, 1.3, j0=1.0, j1=1.0, r0=2.0)
        for s in (0.25, 0.5, 0.75)
    },
    # cutoff 5 lies inside the hats at 16 h and 17 h for h = 0.3
    "truncated-5": fd.truncated_fractional(0.75, 1.0, 5.0, j0=1.0, j1=1.0, r0=2.0),
    # the profile edge at 1 lies inside the hats at 3 h and 4 h; s = 1 makes
    # int z^2 J logarithmic beyond 1, and s = 1.5 makes int z^3 J logarithmic
    **{
        f"{profile}-{s}": fd.compact_plus_tail(
            s, 0.8, profile, 2.0, j0=1.0, j1=1.0, r0=2.0
        )
        for profile in ("flat", "triangle")
        for s in (0.5, 1.0, 1.5)
    },
}


def quadrature_hat_weight(spec, h, k):
    """``(k h)^-2 int phi_k(z) z^2 J(z) dz`` by adaptive quadrature, one call
    per smooth piece (hat halves, the truncation cutoff, the profile edge);
    for ``k = 1`` the half hat at 0 is added."""
    jumps = {"truncated_fractional": [spec.cutoff], "compact_plus_tail": [1.0]}.get(
        spec.family, []
    )

    def moment(lo, hi, phi):
        cuts = sorted({lo, hi, *(j for j in jumps if lo < j < hi)})
        return sum(
            quad(lambda z: phi(z) * z * z * fd.eval_kernel(spec, z), a, b,
                 epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
        )

    c = k * h
    total = moment(c - h, c, lambda z: (z - c + h) / h)
    total += moment(c, c + h, lambda z: (c + h - z) / h)
    if k == 1:
        total += moment(0.0, h, lambda z: (h - z) / h)
    return total / (c * c)


@pytest.mark.parametrize("kernel", sorted(HAT_KERNELS))
def test_hat_weights_match_quadrature(kernel):
    spec = HAT_KERNELS[kernel]
    g = fd.Grid(-6.0, 6.0, 41)
    assert g.h == pytest.approx(0.3, rel=1e-14)
    op = fd.discretize(spec, g, fd.BoundaryModel(left_value=0.0), force=True)
    ref = np.array([quadrature_hat_weight(spec, g.h, k) for k in range(1, g.n)])
    assert np.all(op.near_weights >= 0.0)
    assert np.all(np.abs(op.near_weights - ref) <= 1e-10 * ref)


@pytest.mark.parametrize("s", [0.25, 0.75, 0.99])
def test_pure_hat_weights_match_closed_form_at_large_offsets(s):
    # A h^-2s F_k / k^2 with F_k the second difference of k^beta / ((beta-1) beta),
    # beta = 3 - 2s, written with expm1 so that it keeps relative accuracy up
    # to the last offset of a 84 001-node grid
    g = fd.Grid(-2100.0, 2100.0, 84001)
    spec = fd.pure_fractional(s, 1.3, j0=1.0, j1=1.0, r0=2.0)
    op = fd.discretize(spec, g, fd.BoundaryModel(left_value=0.0), force=True)
    k = np.arange(2, g.n, dtype=float)
    beta = 3.0 - 2.0 * s
    steps = np.expm1(beta * np.log1p(1.0 / k)) + np.expm1(beta * np.log1p(-1.0 / k))
    f = np.concatenate([[2.0**beta - 1.0], k**beta * steps]) / ((beta - 1.0) * beta)
    closed = 1.3 * g.h ** (-2.0 * s) * f / np.arange(1, g.n) ** 2
    assert np.all(np.abs(op.near_weights - closed) <= 1e-8 * closed)


@pytest.mark.parametrize(
    "s, grid",
    [(0.5, fd.Grid(-200.0, 4000.0, 84001)), (0.75, fd.Grid(-50.0, 350.0, 8001))],
    ids=["front", "tail"],
)
def test_hat_weights_match_a_40_digit_closed_form(fractional_laplacian, s, grid):
    # A h^-2s F_k / k^2 as above, in 40 digits, at offsets spread up to
    # k = n - 1 on the grids of the front and tail runs. The hat's rising
    # and falling halves combine the moments into a second difference, which
    # cancels about log10(k) digits (3.2e-11 at front's k = 84 000), so the
    # bound is that of the combination, not the moments' 1e-14
    spec = fractional_laplacian(s)
    op = fd.discretize(spec, grid, fd.BoundaryModel(left_value=0.0))
    offsets = np.unique(np.geomspace(1, grid.n - 1, 300).round()).astype(int)
    with mpmath.workdps(40):
        beta = 3 - 2 * mpmath.mpf(s)
        scale = mpmath.mpf(spec.amplitude) * mpmath.mpf(grid.h) ** (beta - 3)
        scale /= (beta - 1) * beta
        for k in offsets.tolist():
            f = (k + 1) ** beta - 2 * mpmath.mpf(k) ** beta + (k - 1) ** beta
            if k == 1:
                f += 1  # the half hat at 0
            exact = float(scale * f / k**2)
            assert op.near_weights[k - 1] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_zero_amplitude_kernel_all_weights_zero(h01_grid):
    spec = fd.pure_fractional(0.5, 0.0, j0=1.0, j1=1.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    op = fd.discretize(
        spec, h01_grid, fd.BoundaryModel(left_value=0.0), certificate=cert, force=True
    )
    assert np.all(op.near_weights == 0.0)
    assert op.row_sum == 0.0


def test_row_sum_matches_direct_weight_summation(unit_spec, unit_cert, h01_grid):
    op = make_op(unit_spec, unit_cert, h01_grid)
    resummed = 2.0 * float(np.sum(op.near_weights)) + sum(op.far_tail_coefficients)
    assert op.row_sum == pytest.approx(resummed, rel=1e-13)
    # analytic: hats give 2 / h (sum_{k < n} k^-2 + 1/2), the half hat at 0
    # folded into k = 1, and the tails beyond n h give 2 int_{nh}^inf z^-2
    n, h = h01_grid.n, h01_grid.h
    hats = 2.0 / h * (math.fsum(1.0 / k**2 for k in range(1, n)) + 0.5)
    assert op.row_sum == pytest.approx(hats + 2.0 / (n * h), rel=1e-12)


def test_row_sum_grows_when_h_halves(unit_spec, unit_cert):
    w_coarse = make_op(unit_spec, unit_cert, fd.Grid(-20.0, 20.0, 401)).row_sum
    w_fine = make_op(unit_spec, unit_cert, fd.Grid(-20.0, 20.0, 801)).row_sum
    assert 1.9 <= w_fine / w_coarse <= 2.1


def test_unverified_kernel_refused(h01_grid):
    spec = fd.pure_fractional(0.5, 1.0, j0=0.5, j1=1.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    with pytest.raises(fd.UnverifiedKernelError):
        fd.discretize(spec, h01_grid, fd.BoundaryModel(left_value=0.0), certificate=cert)
    fd.discretize(
        spec, h01_grid, fd.BoundaryModel(left_value=0.0), certificate=cert, force=True
    )


def test_divergent_near_moment_refused_even_under_force(h01_grid):
    # int z^2 |z|^-3 diverges at the origin, so no hat weight at k = 1 exists
    spec = fd.pure_fractional(1.0, 1.0, j0=1.0, j1=1.0, r0=2.0)
    with pytest.raises(fd.HypothesisViolationError):
        fd.discretize(spec, h01_grid, fd.BoundaryModel(left_value=0.0), force=True)


def test_certificate_computed_when_omitted(unit_spec, h01_grid):
    op = fd.discretize(unit_spec, h01_grid, fd.BoundaryModel(left_value=0.0))
    assert op.certificate.verified


@pytest.mark.parametrize("force", [False, True])
def test_certificate_of_another_kernel_refused(h01_grid, force):
    # the certificate of a kernel with tight constants must not admit the
    # same kernel declared with an understated j0
    tight = fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)
    bad = fd.pure_fractional(0.5, 1.0, j0=0.5, j1=1.0, r0=2.0)
    with pytest.raises(ValueError, match="certificate is for kernel"):
        fd.discretize(
            bad,
            h01_grid,
            fd.BoundaryModel(left_value=0.0),
            certificate=fd.validate_hypothesis(tight),
            force=force,
        )


# -- apply -------------------------------------------------------------------


def test_constant_field_maps_to_zero(unit_spec, unit_cert, h01_grid):
    c = 0.7
    op = make_op(unit_spec, unit_cert, h01_grid, left=c, right="constant", right_value=c)
    out = op.apply(fd.Field(h01_grid, 0.0, np.full(h01_grid.n, c)))
    assert np.max(np.abs(out.values)) <= 1e-12 * op.row_sum * c


@pytest.mark.parametrize("kernel", ["pure-0.75", "truncated-5", "flat-1.0", "triangle-1.5"])
def test_constant_field_maps_to_zero_on_the_fft_path(kernel):
    c = 0.7
    g = fd.Grid(-10.0, 10.0, 512)
    op = fd.discretize(
        HAT_KERNELS[kernel],
        g,
        fd.BoundaryModel(left_value=c, right="constant", right_value=c),
        force=True,
    )
    out = op.rate(np.full(g.n, c))
    assert np.max(np.abs(out)) <= 1e-12 * op.row_sum * c


def paths(spec, cert, grid, **boundary):
    """``(name, op, D)`` for each route to ``D u`` on grid values ``u``.

    ``apply`` is the correlation reference. ``rate``, which ``evolve`` calls,
    takes the FFT on ``grid`` (401 nodes) and the dense product on a grid of
    the same span below the crossover.
    """
    op = make_op(spec, cert, grid, **boundary)
    small = make_op(spec, cert, fd.Grid(grid.x_min, grid.x_max, 201), **boundary)
    assert (op.apply_path, small.apply_path) == ("fft", "direct")
    return [
        ("apply", op, lambda u: op.apply(fd.Field(grid, 0.0, u)).values),
        ("fft", op, op.rate),
        ("dense", small, small.rate),
    ]


def test_delta_field_reads_off_stencil(unit_spec, unit_cert, h01_grid):
    for _, op, apply in paths(unit_spec, unit_cert, h01_grid):
        n = op.grid.n
        c = n // 2
        u = np.zeros(n)
        u[c] = 1.0
        out = apply(u)
        assert out[c] == pytest.approx(-op.row_sum, rel=1e-13)
        assert out[c + 5] == pytest.approx(op.near_weights[4], rel=1e-13)
        assert out[c - 5] == pytest.approx(op.near_weights[4], rel=1e-13)
        assert out[c + 1] == pytest.approx(op.near_weights[0], rel=1e-13)
        assert out[c - 1] == pytest.approx(op.near_weights[0], rel=1e-13)


def test_odd_field_vanishes_at_center(unit_spec, unit_cert, h01_grid):
    op = make_op(unit_spec, unit_cert, h01_grid)
    x = h01_grid.points()
    out = op.apply(fd.Field(h01_grid, 0.0, x.copy())).values
    center = h01_grid.n // 2
    assert abs(out[center]) <= 1e-10 * np.max(np.abs(out))


def test_linearity(unit_spec, unit_cert, h01_grid, rng):
    for _, op, apply in paths(unit_spec, unit_cert, h01_grid):
        u = rng.uniform(0.0, 1.0, op.grid.n)
        v = rng.uniform(0.0, 1.0, op.grid.n)
        a, b = 1.7, -0.4
        left = apply(a * u + b * v)
        right = a * apply(u) + b * apply(v)
        assert np.max(np.abs(left - right)) <= 1e-12 * op.row_sum


def test_translation_equivariance_compact_bump(unit_spec, unit_cert, h01_grid):
    for path, op, apply in paths(unit_spec, unit_cert, h01_grid):
        x = op.grid.points()
        bump = np.exp(-np.clip(x * x, 0, 50)) * (np.abs(x) < 5)
        shifted = np.roll(bump, 1)
        shifted[0] = 0.0
        out = apply(bump)
        out_shifted = apply(shifted)
        # zero extensions make the shifted convolution an exact index shift;
        # the FFT sums every row in another order and agrees to roundoff
        if path == "fft":
            gap = np.max(np.abs(out_shifted[1:] - out[:-1]))
            assert gap <= 1e-13 * op.row_sum
        else:
            assert np.array_equal(out_shifted[1:], out[:-1])


def test_monotone_coupling(unit_spec, unit_cert, h01_grid, rng):
    for _, op, apply in paths(unit_spec, unit_cert, h01_grid):
        n = op.grid.n
        u = rng.uniform(0.0, 1.0, n)
        gap = rng.uniform(0.0, 1.0, n)
        i0 = 3 * n // 10
        gap[i0] = 0.0
        v = u + gap
        du = apply(u)
        dv = apply(v)
        # u <= v with equality at i0 forces D[u](x_i0) <= D[v](x_i0)
        assert du[i0] <= dv[i0] + 1e-12 * op.row_sum


def test_interior_maximum_nonpositive(unit_spec, unit_cert, h01_grid, rng):
    boundary = dict(left=0.2, right="constant", right_value=0.1)
    for _, op, apply in paths(unit_spec, unit_cert, h01_grid, **boundary):
        u = rng.uniform(0.0, 0.9, op.grid.n)
        i0 = 5 * op.grid.n // 8
        u[i0] = 1.5
        assert apply(u)[i0] <= 0.0


def test_grid_mismatch_rejected(unit_spec, unit_cert, h01_grid):
    op = make_op(unit_spec, unit_cert, h01_grid)
    other = fd.Grid(-20.0, 20.0, 801)
    with pytest.raises(ValueError):
        op.apply(fd.Field(other, 0.0, np.zeros(other.n)))


def test_half_laplacian_symbol_on_cosine(cauchy_spec, cauchy_cert):
    # D cos = -cos for the Cauchy-normalized kernel; first-order convergence
    errs = []
    for L, n in [(80.0, 3201), (160.0, 12801)]:
        g = fd.Grid(-L, L, n)
        op = make_op(cauchy_spec, cauchy_cert, g)
        x = g.points()
        out = op.apply_fft(fd.Field(g, 0.0, np.cos(x))).values
        sel = np.abs(x) <= 20.0
        errs.append(np.max(np.abs(out + np.cos(x))[sel]))
    assert errs[0] <= 1.2e-2
    assert errs[1] <= 0.7 * errs[0]


def test_hat_weights_converge_at_second_order(fractional_laplacian):
    # s = 0.75 step solution, time error made small by safety 0.05; the error
    # falls about 3.8x per halving of h (cell masses gave sqrt(2))
    spec = fractional_laplacian(0.75)
    errs = []
    for n in (1051, 2101, 4201):
        g = fd.Grid(-20.0, 400.0, n)
        op = make_op(spec, fd.validate_hypothesis(spec), g, left=1.0)
        u0 = fd.InitialDatum.step(1.0, 0.0).sample(g)
        u1 = fd.evolve(op, u0, 1.0, safety=0.05).state_at(1.0)
        x = g.points()
        sel = (x >= -10.0) & (x <= 30.0)
        exact = fd.reference_solution(0.75, 1.0, 0.0, 1.0, x[sel])
        errs.append(np.max(np.abs(u1.values[sel] - exact)))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


# -- fast path ---------------------------------------------------------------


RIGHT_MODELS = ("zero", "constant", "algebraic_tail")
# only the constant model takes a right_value
RIGHT_VALUE = {"zero": 0.0, "constant": 0.3, "algebraic_tail": 0.0}


# the torus shape changes between these sizes: (1, 512), (1, 2048),
# (1, 6144), then two axes at (25, 256), (81, 125) and (81, 200); odd and
# even node counts on both sides of _TORUS_MIN_N
FFT_SHAPE_SIZES = [256, 1024, _TORUS_MIN_N - 1, _TORUS_MIN_N, 5001, 8001]


@pytest.mark.parametrize("n", FFT_SHAPE_SIZES)
@pytest.mark.parametrize("right", RIGHT_MODELS)
def test_fft_agrees_with_direct(unit_spec, unit_cert, rng, right, n):
    # rate takes the FFT from _FFT_THRESHOLD on, on the two-axis tori from
    # _TORUS_MIN_N on; apply_fft takes it at every size
    g = fd.Grid(-10.0, 10.0, n)
    op = make_op(
        unit_spec, unit_cert, g, left=0.8, right=right, right_value=RIGHT_VALUE[right]
    )
    u = fd.Field(g, 0.0, rng.uniform(0.0, 1.0, n))
    direct = op.apply(u).values
    tol = 1e-10 * np.max(np.abs(direct))
    for fast in (op.apply_fft(u).values, op.rate(u.values)):
        np.testing.assert_allclose(fast, direct, rtol=0.0, atol=tol)


def test_fft_sizes_cover_every_kind_of_shape():
    shapes = [_torus_shape(n) for n in FFT_SHAPE_SIZES]
    assert len(set(shapes)) == len(shapes)
    assert {p == 1 for p, _ in shapes} == {True, False}
    assert {n % 2 for n in FFT_SHAPE_SIZES} == {0, 1}


def is_smooth(q, primes):
    for prime in primes:
        while q % prime == 0:
            q //= prime
    return q == 1


@pytest.mark.parametrize(
    "n", [2, 3, 100, _FFT_THRESHOLD, _TORUS_MIN_N - 1, _TORUS_MIN_N, 5001, 8001, 84001, 336001]
)
def test_torus_index_map_is_a_bijection(n):
    p, q = _torus_shape(n)
    m = p * q
    assert m >= 2 * n - 1 and math.gcd(p, q) == 1
    assert p == 1 if n < _TORUS_MIN_N else p in _TORUS_P
    assert is_smooth(q, (2, 3, 5))
    index = _crt_index(p, q, m)
    assert index.dtype == np.intp
    # every torus cell is hit exactly once, circle position k at (k mod p, k mod q)
    assert np.array_equal(np.sort(index), np.arange(m))
    k = np.arange(m)
    assert np.array_equal(index // q, k % p) and np.array_equal(index % q, k % q)


def test_fft_operator_holds_an_intp_index(unit_spec, unit_cert, rng, monkeypatch):
    # numpy would cast an index of another integer type on every product
    n = _TORUS_MIN_N
    op = make_op(unit_spec, unit_cert, fd.Grid(-50.0, 50.0, n))
    assert op.apply_path == "fft" and op.fft_shape[0] > 1

    def whole_stencil(self):
        raise AssertionError("the FFT path built the 2n - 1 stencil entries")

    # neither the stencil spectrum nor rate builds the whole stencil
    monkeypatch.setattr(fd.DiscreteOperator, "_stencil", whole_stencil)
    op.rate(rng.uniform(0.0, 1.0, n))
    # the product is read at the field's own cells: one offset per node
    assert op._torus.index.dtype == np.intp
    assert op._torus.index.size == n


@pytest.mark.parametrize("n", [1024, _TORUS_MIN_N, 8001])
def test_stencil_spectrum_is_exactly_real(unit_spec, unit_cert, n):
    # the even stencil's spectrum is S + conj(S); it stays complex, the type
    # of the work array it multiplies
    op = make_op(unit_spec, unit_cert, fd.Grid(-10.0, 10.0, n))
    assert op._spectrum.dtype == complex
    assert not op._spectrum.imag.any()


def test_first_fft_rate_holds_the_torus_and_little_else(unit_spec, unit_cert, rng):
    # the first rate builds the torus, its index and the stencil spectrum;
    # 20 001 nodes take the 81 x 500 torus
    n = 20001
    op = make_op(unit_spec, unit_cert, fd.Grid(-10.0, 10.0, n), left=0.8)
    p, q = op.fft_shape
    assert p > 1
    u = rng.uniform(0.0, 1.0, n)
    tracemalloc.start()
    try:
        op.rate(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 8 * n
    # the n-offset index, the real buffer, the work array and the spectrum
    held = np.dtype(np.intp).itemsize * n + 8 * p * q + 2 * 16 * p * (q // 2 + 1)
    # plus the returned rate and one grid-sized temporary
    assert peak <= held + 2 * grid


def test_torus_shapes_of_the_acceptance_runs():
    assert [_torus_shape(n) for n in (8001, 84001, 336001)] == [
        (81, 200),
        (27, 6250),
        (27, 25000),
    ]


@pytest.mark.parametrize("n", [5, 300, _TORUS_MIN_N, 5001])
def test_torus_product_is_the_linear_convolution(rng, n):
    # m >= 2n - 1, so the circular convolution of two n-long sequences on the
    # torus is their linear one; the torus reads it at positions [0, n)
    a, b = rng.uniform(-1.0, 1.0, (2, n))
    torus = _Torus(n)
    got = torus.convolve(a, torus.spectrum(b))
    want = np.convolve(a, b)[:n]
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(a)) * np.max(np.abs(b))


@pytest.mark.parametrize("n", [5, 300, _TORUS_MIN_N, 5001])
def test_even_spectrum_wraps_the_negative_half(rng, n):
    # the even sequence e(k) = half[|k|], e(0) = 2 half[0], is centred on the
    # circle: e(-k) sits at m - k and reaches positions [0, n) only by wrapping
    a, half = rng.uniform(-1.0, 1.0, (2, n))
    even = np.concatenate([half[:0:-1], [2.0 * half[0]], half[1:]])
    torus = _Torus(n)
    got = torus.convolve(a, torus.even_spectrum(half))
    zeros = np.zeros(n - 1)
    want = np.correlate(np.concatenate([zeros, a, zeros]), even, mode="valid")
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(a)) * np.max(np.abs(even))


@pytest.mark.parametrize("n", [1024, 5001])
@pytest.mark.parametrize("right", RIGHT_MODELS)
def test_fft_rate_carries_nothing_between_calls(unit_spec, unit_cert, rng, right, n):
    g = fd.Grid(-10.0, 10.0, n)

    def fresh():
        return make_op(
            unit_spec, unit_cert, g, left=0.8, right=right, right_value=RIGHT_VALUE[right]
        )

    op = fresh()
    assert op.apply_path == "fft"
    u1, u2 = rng.uniform(0.0, 1.0, (2, n))
    first = op.rate(u1)
    second = op.rate(u2)
    # the held buffers keep nothing of u1
    assert np.array_equal(second, fresh().rate(u2))
    # and a returned rate is the caller's own: writing into it changes no
    # later one
    first[:] = 7.0
    second[:] = np.nan
    assert np.array_equal(op.rate(u1), fresh().rate(u1))
    assert np.array_equal(op.apply_fft(fd.Field(g, 0.0, u2)).values, fresh().rate(u2))


def test_threads_sharing_an_fft_operator_get_their_own_rates(unit_spec, unit_cert, rng):
    # the FFT path writes into buffers the operator holds; more threads than
    # cores, switching often, each must still read the rate of its own field
    g = fd.Grid(-10.0, 10.0, 5001)
    op = make_op(unit_spec, unit_cert, g, left=0.8)
    fields = rng.uniform(0.0, 1.0, (4, g.n))
    want = [op.rate(u) for u in fields]
    got = [[] for _ in fields]

    def work(i):
        for _ in range(25):
            got[i].append(op.rate(fields[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rates, rate in zip(got, want):
        assert len(rates) == 25
        assert all(np.array_equal(r, rate) for r in rates)


@pytest.mark.parametrize(
    "n,path", [(_FFT_THRESHOLD - 1, "direct"), (_FFT_THRESHOLD, "fft")]
)
def test_rate_switches_to_the_fft_at_the_crossover(unit_spec, unit_cert, rng, n, path):
    # below the crossover rate multiplies by the dense T, which sums in
    # another order than the correlation of apply: equal to roundoff only
    g = fd.Grid(-10.0, 10.0, n)
    u = fd.Field(g, 0.0, rng.uniform(0.0, 1.0, n))
    for right in RIGHT_MODELS:
        op = make_op(
            unit_spec, unit_cert, g, left=0.8, right=right, right_value=RIGHT_VALUE[right]
        )
        assert op.apply_path == path
        assert "_toeplitz" not in vars(op)
        rate = op.rate(u.values)
        # only a direct rate builds the dense T: n^2 floats, 56 GB at 84 001
        assert ("_toeplitz" in vars(op)) == (path == "direct")
        if path == "fft":
            assert np.array_equal(rate, op.apply_fft(u).values)
        else:
            reference = op.apply(u).values
            assert np.max(np.abs(rate - reference)) <= 1e-13 * np.max(np.abs(reference))


def padded_reference(op, u):
    """``D u`` assembled the long way: correlate the boundary-padded field.

    The field is padded with ``n - 1`` copies of the left value and ``n - 1``
    samples of the right extension, correlated with the full stencil, and the
    displacements beyond the last hat, at ``n h``, are added per node by
    quadrature of the unit kernel ``|z|^-2``. The stencil is built here with a
    zero centre and ``W u`` subtracted apart, so the reference does not share
    the operator's one stencil, whose centre carries ``-W``.
    """
    g, b = op.grid, op.boundary
    n, h = g.n, g.h
    w = op.near_weights
    stencil = np.concatenate([w[::-1], [0.0], w])
    t_left, t_right = op.far_tail_coefficients
    x_ext = g.x_max + h * np.arange(1, n)
    far = np.full(n, b.left_value * t_left)
    if b.right == "zero":
        right_pad = np.zeros(n - 1)
    elif b.right == "constant":
        right_pad = np.full(n - 1, b.right_value)
        far += b.right_value * t_right
    else:
        amp = b.fit_tail_amplitude(g, u, 1.0)
        right_pad = amp * x_ext**-1.0
        cut = n * h
        far += amp * np.array(
            [
                quad(lambda z: 1.0 / ((xi + z) * z * z), cut, np.inf, epsrel=1e-12)[0]
                for xi in g.points()
            ]
        )
    padded = np.concatenate([np.full(n - 1, b.left_value), u, right_pad])
    return np.correlate(padded, stencil, mode="valid") - op.row_sum * u + far


# the direct path, the one-row torus and the least two-axis torus (25 x 256)
@pytest.mark.parametrize("n", [128, 1024, _TORUS_MIN_N])
@pytest.mark.parametrize("right", RIGHT_MODELS)
def test_exterior_vectors_match_padded_assembly(unit_spec, unit_cert, rng, right, n):
    g = fd.Grid(-10.0, 10.0, n)
    op = make_op(
        unit_spec, unit_cert, g, left=0.8, right=right, right_value=RIGHT_VALUE[right]
    )
    assert _torus_shape(n)[0] == (25 if n == _TORUS_MIN_N else 1)
    u = fd.Field(g, 0.0, rng.uniform(0.1, 1.0, n))
    ref = padded_reference(op, u.values)
    tol = 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(op.apply(u).values - ref)) <= tol
    assert np.max(np.abs(op.apply_fft(u).values - ref)) <= tol


FAR_SHAPE_KERNELS = {
    "pure-0.5": fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0),
    "pure-0.75": fd.pure_fractional(0.75, 1.3, j0=1.5, j1=1.0, r0=2.0),
    "truncated-5": fd.truncated_fractional(0.75, 1.0, 5.0, j0=1.0, j1=1.0, r0=2.0),
    "truncated-30": fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0),
    **{
        f"{profile}-{s}": fd.compact_plus_tail(
            s, 0.8, profile, 2.0, j0=1.0, j1=1.0, r0=2.0
        )
        for profile in ("flat", "triangle")
        for s in (0.5, 1.0, 1.5)
    },
}


def quadpack(f, a, b):
    return quad(f, a, b, epsabs=1e-14, epsrel=1e-11, limit=400)[0]


def quadpack_tail(f, a):
    """``int_a^inf f`` by QUADPACK over ``tau = z^(-1/2)``, where a tail
    ``z^(-1-2s)`` becomes ``tau^(4s-1)``."""

    def g(tau):
        z = 1.0 / (tau * tau)
        return 2.0 * f(z) * z * z * tau

    return quadpack(g, 0.0, 1.0 / math.sqrt(a))


def quadrature_far_shape(spec, cut, x):
    """``int_cut^inf (x + z)^(-2s) J(z) dz`` by adaptive quadrature, split at
    the kernel's jumps (the truncation cutoff, the near-profile edge at 1)."""
    ex = 2.0 * spec.s

    def f(z):
        return (x + z) ** (-ex) * fd.eval_kernel(spec, z)

    if spec.family == "truncated_fractional":
        if cut >= spec.cutoff:
            return 0.0
        return quadpack(f, cut, spec.cutoff)
    if spec.family == "compact_plus_tail" and cut < 1.0:
        return quadpack(f, cut, 1.0) + quadpack_tail(f, 1.0)
    return quadpack_tail(f, cut)


# (100, 110) puts -x/cut below -1, (-10, 0.05) takes it close to 1, and the
# short window has cut < 1, where the compact near profile enters
@pytest.mark.parametrize(
    "window",
    [(-10.0, 10.0, 32), (100.0, 110.0, 32), (-10.0, 0.05, 32), (0.1, 0.6, 32)],
    ids=["centred", "far-right", "x_max-near-0", "short"],
)
@pytest.mark.parametrize("kernel", sorted(FAR_SHAPE_KERNELS))
def test_far_shape_matches_quadrature(kernel, window):
    spec = FAR_SHAPE_KERNELS[kernel]
    g = fd.Grid(*window)
    cut = (g.n - 0.5) * g.h
    closed = fd.exterior_tail_response(spec, cut, g.points())
    ref = np.array([quadrature_far_shape(spec, cut, xi) for xi in g.points()])
    assert closed.shape == (g.n,)
    assert np.all(np.abs(closed - ref) <= 1e-9 * np.abs(ref))


def test_far_shape_rejects_points_beyond_the_cut(unit_spec):
    with pytest.raises(ValueError):
        fd.exterior_tail_response(unit_spec, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        fd.exterior_tail_response(unit_spec, 2.0, np.array([1.0, -2.0]))


@pytest.mark.parametrize(
    "window", [(-10.0, -1.0, 64), (-10.0, 0.0, 64)], ids=["x_max<0", "x_max=0"]
)
def test_algebraic_tail_needs_positive_x_max(unit_spec, unit_cert, window):
    with pytest.raises(ValueError, match="requires x_max > 0"):
        make_op(unit_spec, unit_cert, fd.Grid(*window), right="algebraic_tail")


def test_fft_matches_direct_on_repeated_fields(unit_spec, unit_cert, rng):
    g = fd.Grid(-10.0, 10.0, 256)
    op = make_op(unit_spec, unit_cert, g, left=0.3)
    for _ in range(3):
        u = fd.Field(g, 0.0, rng.uniform(0.0, 1.0, g.n))
        assert np.max(np.abs(op.apply(u).values - op.apply_fft(u).values)) <= 1e-12


def test_algebraic_tail_boundary_feeds_far_field(cauchy_spec, cauchy_cert):
    g = fd.Grid(1.0, 400.0, 1024)
    x = g.points()
    u = fd.Field(g, 0.0, 1.0 / x)
    op_zero = make_op(cauchy_spec, cauchy_cert, g, left=1.0)
    op_tail = make_op(cauchy_spec, cauchy_cert, g, left=1.0, right="algebraic_tail")
    lifted = op_tail.apply(u).values - op_zero.apply(u).values
    assert np.all(lifted >= -1e-15)
    assert lifted[-1] > 0
