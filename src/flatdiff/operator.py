"""Monotone discretization of the nonlocal diffusion operator.

The operator acts on a grid function ``u`` as

    (D u)(x_i) = sum_{1 <= |k| <= n-1} w_k (u(x_i + k h) - u(x_i))
               + far-tail boundary terms.

The weights are the piecewise-linear quadrature of Huang & Oberman (2014,
SIAM J. Numer. Anal. 52:3056). With ``D u(x) = int_0^inf g(z) z^2 J(z) dz``
and ``g(z) = (u(x + z) + u(x - z) - 2 u(x)) / z^2``, ``g`` is interpolated
by the hats ``phi_k`` centred on the nodes ``k h``, which gives

    w_k = (k h)^-2 int_0^inf phi_k(z) z^2 J(z) dz,

and the half hat at 0 folds into ``k = 1`` (``g(0) ~ g(h)``). A hat is linear
on each half, so every ``w_k`` is a combination of the closed-form interval
moments ``int z^2 J`` and ``int z^3 J`` of
:func:`~flatdiff.kernels.interval_moments`. The weights are nonnegative and
finite exactly under the near-field hypothesis ``int_{|z|<=1} z^2 J < inf``.
The consistency error is of order ``h^2`` for smooth ``u``, where exact
kernel masses of grid cells give ``h^(2-2s)``; ``tests/test_operator.py``
measures the order on an ``s = 0.75`` step solution. For ``A |z|^(-1-2s)``
they are ``A h^(-2s) F_k / k^2`` with ``beta = 3 - 2s`` and
``F_k = ((k+1)^beta - 2 k^beta + (k-1)^beta) / ((beta - 1) beta)``, plus
``1 / ((beta - 1) beta)`` at ``k = 1``.

The last hat ends at ``n h``; displacements beyond it are folded into two
scalar tail coefficients weighting the boundary extension values. Every
off-diagonal coefficient is nonnegative, so a forward Euler stage with
``dt * W <= 1`` (``W`` the diagonal coefficient) is a convex combination of
field values; comparison and maximum principles hold by construction.

The rate is ``(T - W) u + e (+ amp rho)``: ``T - W`` is the symmetric
Toeplitz matrix of one stencil, ``w_|k|`` off the centre and ``-W`` (the row
sum) at it, and ``e`` one vector fixed at construction: the stencil mass
beyond either end of the window plus the far-tail terms, times the constant
extensions (the left one, and the right one under ``constant``). Only
``algebraic_tail`` adds ``amp rho``, the amplitude fitted on each call times
the response to ``y^(-2s)``; beyond the last hat that extension gives row
``i`` the far shape ``int_cut^inf (x_i + z)^(-2s) J(z) dz`` with
``cut = n h``. For the power tail ``A z^(-1-2s)`` it is the Euler integral
``A cut^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x_i / cut)`` (DLMF 15.6.1),
evaluated for all rows at once by
:func:`~flatdiff.kernels.exterior_tail_response`; ``tests/test_operator.py``
cross-checks it node by node against adaptive quadrature. ``rate`` forms
``(T - W) u`` by the path named by ``apply_path``, fixed by the grid size:
below the measured crossover a product with the dense ``T - W``, built on the
first direct ``rate``, and from it a circular convolution of length
``m = p q >= 2n - 1``, which ``apply_fft`` also takes at any size. The
stencil is centred on the circle, entry ``k`` at position ``k mod m``, so
``(T - W) u`` is read at positions ``[0, n)``, the very cells ``u`` is
placed at. With ``gcd(p, q) = 1`` the Chinese-remainder index map turns the
convolution exactly into one on the ``p x q`` torus, with no twiddle
factors: the prime-factor algorithm of Good (1958, J. R. Stat. Soc. B
20:361) and Thomas (1963). The map's flat torus offsets of those ``n``
positions are held as ``np.intp``, the width numpy indexes with, so no
product recasts them. The stencil's spectrum is that of its half
``[-W/2, w_1, ..., w_(n-1)]`` plus its conjugate, the spectrum of the
reflected half, so no path of ``rate`` builds the ``2n - 1`` entries of
the whole stencil. The transforms are ``numpy.fft``'s, written into
buffers the operator holds, so a stage allocates no transform-sized
scratch; small grids take ``p = 1``, one row.
``apply`` sums the sliding correlation with the zero-padded field at any
size, the reference that both paths are tested against. All of them take
the same stencil and add the same exterior terms, and they agree to
roundoff.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import (
    KernelSpec,
    HypothesisCertificate,
    exterior_mass,
    exterior_tail_response,
    interval_moments,
    validate_hypothesis,
)
from .mesh import BoundaryModel, Field, Grid

__all__ = ["DiscreteOperator", "UnverifiedKernelError", "discretize"]

# measured crossover of ``rate``: unit s = 1/2 kernel on [-10, 10], random
# values, best per-call time of 4 runs of 4 rounds of timeit 7 x 2000 (2 vCPU,
# one BLAS thread, numpy 2.4.6 on OpenBLAS 0.3.31, scipy 1.17.1), against the
# torus product (one row, p = 1, at these sizes). The dense product wins by
# 13 % at 352 nodes, the two are within 3 % at 384, and the FFT wins by 14 %
# or more from 416 on; the correlation that ``apply`` sums is the dense
# product's reference, not a path of ``rate``. At 383 nodes the dense matrix
# holds 1.2 MB.
#   n          128    192    256    320    352    384    416    448    511
#   dense      6.2    8.1   12.8   17.9   20.6   24.3   30.2   37.2   60.7  us
#   correlate 10.8   14.6   23.5   28.9   38.2   37.5   49.3   54.2   70.4  us
#   fft       17.2   18.8   20.5   22.3   23.7   23.7   25.9   25.8   27.3  us
_FFT_THRESHOLD = 384


class UnverifiedKernelError(ValueError):
    """The kernel failed admissibility validation and force was not set."""


# the FFT torus: m = p q >= 2n - 1 with q 5-smooth and coprime to p. Below
# _TORUS_MIN_N nodes p = 1, one row; from it on the least m over the p in
# _TORUS_P (the first p on a tie). Per-call time of one product T u in us
# (unit s = 1/2 kernel on [-10, 10], random values, best of 5 alternating
# rounds, same host): the rule's shape, the fastest over p = 1, 3, 5, 9, ...,
# 625 with the least q for each, and the 1-D scipy.fft product of length m
# that the torus replaced. p = 3 and 5 never came first: their columns of 3
# or 5 cost more than they save (3 x 2048 took twice the time of 25 x 256 at
# 3072 nodes). From 1000 to 6000 nodes the product is 5-40 % slower than the
# 1-D one, mostly because numpy's irfft takes about 20 % longer than scipy's
# there; from 8001 on it is faster, 1.8 times at 84 001 nodes.
#        n   rule                fastest               1-D
#     1024   1 x 2048        45   1 x 2048        45        32
#     2047   1 x 4096        81   27 x 160        81        62
#     2560   1 x 5120        96   81 x 64         94        72
#     3072   25 x 256       110   81 x 80        103        95
#     4096   27 x 320       126   27 x 320       126       118
#     6144   25 x 512       184   81 x 160       183       172
#     8001   81 x 200       233   81 x 200       233       251
#    16001   81 x 400       432   81 x 400       432       477
#    42001   27 x 3125     1410   243 x 400     1334      2322
#    84001   27 x 6250     3204   27 x 6250     3204      5802
#   168001   27 x 12500    7566   27 x 12500    7566     12962
#   336001   27 x 25000   17577   27 x 25000   17577     28503
_TORUS_P = (9, 27, 81, 243, 25, 125, 625)
_TORUS_MIN_N = 3072


def _smooth_at_least(lo: int, odd: tuple[int, ...]) -> int:
    """The least ``2^a f >= lo`` with ``f`` a product of powers of ``odd``."""
    factors = [1]
    for prime in odd:
        factors = [
            f * prime**b
            for f in factors
            for b in range(lo.bit_length() + 1)
            if f * prime**b < 2 * lo
        ]
    return min(f << max(0, (-(-lo // f) - 1).bit_length()) for f in factors)


def _torus_shape(n: int) -> tuple[int, int]:
    """``(p, q)`` of the torus for an ``n``-node operator (see ``_TORUS_P``)."""
    need = 2 * n - 1
    shapes = [
        (p, _smooth_at_least(-(-need // p), tuple(f for f in (3, 5) if p % f)))
        for p in ((1,) if n < _TORUS_MIN_N else _TORUS_P)
    ]
    return min(shapes, key=lambda shape: shape[0] * shape[1])


def _crt_index(p: int, q: int, count: int) -> np.ndarray:
    """Flat offsets on the ``p x q`` torus of circle positions ``0 .. count - 1``:
    position ``k`` sits at ``(k mod p, k mod q)``.

    The offsets are ``np.intp``, the width numpy's fancy indexing uses: it
    casts an index of any other integer type afresh on every call, a pass
    over the whole index in each scatter and each gather of a product.
    """
    # q (k mod p) and k mod q repeat with periods p and q; each is added in
    # place, one period row broadcast over all whole periods, so no
    # temporary is longer than q. That is far cheaper than two integer
    # remainders over k (0.12 against 1.5 ms for the 84 001 positions of
    # 84 001 nodes, on the host of the tables above).
    index = np.zeros(count, dtype=np.intp)
    for pattern in (np.arange(0, p * q, q, dtype=np.intp), np.arange(q, dtype=np.intp)):
        whole = count - count % pattern.size
        periods = index[:whole].reshape(-1, pattern.size)
        periods += pattern
        index[whole:] += pattern[: count - whole]
    return index


class _Torus:
    """Circular convolution of length ``m = p q`` as a 2-D one on ``p x q``.

    With ``gcd(p, q) = 1`` the Chinese-remainder map, which puts circle
    position ``k`` at ``(k mod p, k mod q)``, is a group isomorphism of the
    circle of length ``m`` onto the torus. So it turns a circular convolution
    exactly into a 2-D one, with no twiddle factors: the prime-factor
    algorithm of Good (1958) and Thomas (1963). ``index`` holds the flat
    torus offsets of circle positions ``0 .. n - 1``, n of them, as
    ``np.intp``, so that the scatter and the gather of a product index with
    it as it is (numpy casts any other integer index on every call); on a
    single row (``p = 1``) they are the positions themselves, and slices
    stand in for it. A product is read at the cells its input was scattered
    to; an even sequence's wrapped half, at positions ``m - k``, enters only
    through its spectrum. The transforms write into two buffers the torus
    holds, so a product allocates only the values it returns; a lock lets
    one thread at a time use them.
    """

    def __init__(self, n: int) -> None:
        p, q = _torus_shape(n)
        self.index = _crt_index(p, q, n) if p > 1 else None
        self._real = np.zeros((p, q))
        self._work = np.empty((p, q // 2 + 1), dtype=complex)
        self._lock = threading.Lock()

    def _place(self, a: np.ndarray) -> np.ndarray | slice:
        # a at circle positions [0, len(a)) of the zeroed real buffer; returns
        # their flat torus offsets, a slice on a single row
        cells = slice(0, a.size) if self.index is None else self.index[: a.size]
        real = self._real.reshape(-1)
        real.fill(0.0)
        real[cells] = a
        return cells

    def _forward(self, out: np.ndarray | None) -> np.ndarray:
        # the 2-D spectrum of the real buffer
        real = self._real
        out = np.fft.rfft(real, axis=1, out=out)
        # along a single row (p = 1) the axis-0 transforms are the identity
        if real.shape[0] > 1:
            np.fft.fft(out, axis=0, out=out)
        return out

    def spectrum(self, a: np.ndarray) -> np.ndarray:
        """The 2-D spectrum of ``a`` placed at circle positions ``[0, len(a))``."""
        with self._lock:
            self._place(a)
            return self._forward(None)

    def even_spectrum(self, half: np.ndarray) -> np.ndarray:
        """The 2-D spectrum of the even sequence ``e`` with ``e(k) = half[|k|]``
        for ``0 < |k| < len(half)`` and ``e(0) = 2 half[0]``, entry ``-k`` at
        circle position ``m - k``.

        ``e`` is ``half`` placed at ``[0, len(half))`` plus its reflection,
        whose spectrum is the conjugate of ``half``'s, so the sum ``S + conj(S)``
        is exactly real. It stays complex, the type of the work array it
        multiplies: a float spectrum there costs a mixed-type multiply.
        """
        spectrum = self.spectrum(half)
        # S + conj(S) bit for bit: Re S + Re S is exact, and Im S - Im S is +0
        spectrum.real *= 2.0
        spectrum.imag = 0.0
        return spectrum

    def convolve(self, a: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Positions ``[0, len(a))`` of the circular convolution of ``a``,
        placed at ``[0, len(a))``, with the sequence whose torus spectrum is
        ``spectrum``: the result is read at the input's own cells. A fresh
        array."""
        real = self._real
        with self._lock:
            cells = self._place(a)
            work = self._forward(self._work)
            work *= spectrum
            if real.shape[0] > 1:
                np.fft.ifft(work, axis=0, out=work)
            np.fft.irfft(work, real.shape[1], axis=1, out=real)
            values = real.reshape(-1)[cells]
            # a slice views the buffer, which the caller must not share
            return values.copy() if isinstance(cells, slice) else values


class DiscreteOperator:
    """Precomputed weights for one (kernel, grid, boundary) combination.

    ``apply_path`` (``"direct"`` or ``"fft"``) names the inner product that
    :meth:`rate` uses; it is fixed by the grid size at construction, and
    :attr:`fft_shape` names the torus of the FFT path. The FFT path writes
    into buffers the operator holds, so threads that share an operator take
    its FFT products one at a time.
    """

    def __init__(
        self,
        spec: KernelSpec,
        grid: Grid,
        boundary: BoundaryModel,
        certificate: HypothesisCertificate,
    ) -> None:
        self.spec = spec
        self.grid = grid
        self.boundary = boundary
        self.certificate = certificate
        if boundary.right == "algebraic_tail" and grid.x_max <= 0:
            raise ValueError("algebraic tail extension requires x_max > 0")
        n, h = grid.n, grid.h

        # z^2 J moments over the intervals [j h, (j + 1) h], j = 0 .. n - 1.
        # Formed in place: n reaches 10^5 and more, where every fresh array
        # costs page faults.
        nodes = np.arange(n + 1, dtype=float)
        nodes *= h
        lo, hi = nodes[:-1], nodes[1:]
        m2, m3 = interval_moments(spec, lo, hi)
        # h times the moments against the rising and the falling half of a
        # hat over each interval
        rising = lo * m2
        np.subtract(m3, rising, out=rising)
        falling = np.multiply(hi, m2, out=m2)
        falling -= m3
        # hat k rises over interval k - 1 and falls over interval k, and the
        # half hat at 0 folds into k = 1; w_k = (rising + falling) / (h (k h)^2)
        w = rising[:-1]
        w += falling[1:]
        w[0] += falling[0]
        w /= hi[:-1]
        w /= hi[:-1]
        w /= h

        self.near_weights = w
        tail_cut = n * h
        t_left = t_right = exterior_mass(spec, tail_cut)
        self.far_tail_coefficients = (t_left, t_right)
        self.row_sum = 2.0 * float(w.sum()) + t_left + t_right

        self.apply_path = "fft" if n >= _FFT_THRESHOLD else "direct"
        # stencil mass on row i's left pad (entries w_(n-1) .. w_1); by symmetry
        # the right pad of row i carries the left pad mass of row n-1-i
        pad_mass = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
        # constant extensions give one fixed vector; an algebraic tail adds
        # its fitted amplitude times a fixed shape
        self._exterior = boundary.left_value * (t_left + pad_mass)
        self._tail_shape = None
        if boundary.right == "constant":
            self._exterior += boundary.right_value * (t_right + pad_mass[::-1])
        elif boundary.right == "algebraic_tail":
            self._tail_shape = self._algebraic_right(tail_cut)
        # per thread, so that evolves sharing the operator count apart
        self._fallbacks = threading.local()

    def _stencil(self) -> np.ndarray:
        """Entries ``k = -(n-1) .. n-1`` of the stencil of ``T - W``: ``w_|k|``
        off the centre and ``-W`` at it, read from ``row_sum`` on each call.
        Only the dense ``T - W`` and the :meth:`apply` reference build it,
        afresh on each call; the FFT path transforms the half stencil
        ``[-W/2, w_1, ..., w_(n-1)]`` instead (see ``_spectrum``), so no
        path of :meth:`rate` pays for its 2n - 1 floats.
        """
        w = self.near_weights
        return np.concatenate([w[::-1], [-self.row_sum], w])

    @cached_property
    def _torus(self) -> _Torus:
        # only the FFT path and the algebraic tail's pad response need it, so
        # other direct-path operators never pay for its index and buffers
        return _Torus(self.grid.n)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # the stencil centred on the circle, entry -k at m - k, from its half
        half = np.concatenate([[-0.5 * self.row_sum], self.near_weights])
        return self._torus.even_spectrum(half)

    @property
    def fft_shape(self) -> tuple[int, int] | None:
        """``(p, q)`` of the torus that :meth:`rate` transforms on, or ``None``
        on the direct path."""
        return _torus_shape(self.grid.n) if self.apply_path == "fft" else None

    @cached_property
    def _toeplitz(self) -> np.ndarray:
        # T - W, built on the first direct rate; row i is stencil[n-1-i : 2n-1-i].
        # Only direct-path operators pay its n^2 floats, fewer than _FFT_THRESHOLD^2.
        n = self.grid.n
        return np.ascontiguousarray(sliding_window_view(self._stencil(), n)[::-1])

    def _algebraic_right(self, tail_cut: float) -> np.ndarray:
        """Response of every row to the unit-amplitude extension ``x^(-2s)``.

        Row ``i`` sees the pad sample at ``x_max + j h`` through stencil entry
        ``i - j`` of the left half, a convolution taken on the torus, plus the
        far shape ``int_cut^inf (x_i + z)^(-2s) J(z) dz`` beyond the last hat,
        ``A cut^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x_i / cut)`` for the power
        tail, from :func:`~flatdiff.kernels.exterior_tail_response`.
        ``tests/test_operator.py`` cross-checks it node by node against
        adaptive quadrature.
        """
        n, ex = self.grid.n, 2.0 * self.spec.s
        shape = self.grid.x_max + self.grid.h * np.arange(1, n)
        torus = self._torus
        pad = torus.convolve(shape**-ex, torus.spectrum(self.near_weights[::-1]))
        far = exterior_tail_response(self.spec, tail_cut, self.grid.points())
        far[1:] += pad
        return far

    def rate(self, values: np.ndarray) -> np.ndarray:
        """``D u`` on the grid values ``u``, with the boundary extensions.

        ``apply_path`` picks the product ``(T - W) u``: the FFT from
        ``n = 384`` nodes on, the measured crossover, and below it a product
        with the dense symmetric Toeplitz ``T - W``, built on the first call and
        kept. The FFT runs on ``numpy.fft`` in the calling thread and takes
        no worker count.
        """
        values = np.asarray(values, dtype=float)
        n = self.grid.n
        if values.shape != (n,):
            raise ValueError(f"values shape {values.shape} does not match {n} nodes")
        if self.apply_path == "fft":
            return self._finish(values, self._fft_inner(values))
        return self._finish(values, self._toeplitz @ values)

    def _direct_inner(self, values: np.ndarray) -> np.ndarray:
        """``(T - W) u`` by sliding correlation with the zero-padded field; O(n^2).

        Only :meth:`apply` runs it, as the reference that both paths of
        :meth:`rate` are tested against.
        """
        pad = np.zeros(self.grid.n - 1)
        padded = np.concatenate([pad, values, pad])
        return np.correlate(padded, self._stencil(), mode="valid")

    def _fft_inner(self, values: np.ndarray) -> np.ndarray:
        """``(T - W) u`` by the circulant product on the torus; O(n log n).

        ``u`` sits at circle positions ``[0, n)`` and the stencil is centred
        on the circle, entry ``k`` at ``k mod m``, so ``(T - W) u`` is read
        at ``[0, n)``, the cells ``u`` was scattered to.
        """
        return self._torus.convolve(values, self._spectrum)

    def _finish(self, values: np.ndarray, inner: np.ndarray) -> np.ndarray:
        # inner = (T - W) u, fresh on every product path, takes e (+ amp rho) in place
        inner += self._exterior
        if self._tail_shape is not None:
            amp = self.boundary.fit_tail_amplitude(self.grid, values, 2.0 * self.spec.s)
            if amp == 0.0:
                self._fallbacks.count = self._tail_fallbacks() + 1
            inner += amp * self._tail_shape
        return inner

    def _tail_fallbacks(self) -> int:
        """Products in the calling thread whose algebraic-tail amplitude was
        0.0, so that the extension dropped out: the fit refused (an empty
        window, or a value ``<= 0`` in it) or, at values near 1e-308,
        underflowed. 0 under the other boundary models."""
        return getattr(self._fallbacks, "count", 0)

    def apply(self, u: Field) -> Field:
        """``D u`` by the direct correlation sum at any size; the reference."""
        self.check_field(u)
        return u.with_values(self._finish(u.values, self._direct_inner(u.values)))

    def apply_fft(self, u: Field) -> Field:
        """``D u`` by the torus FFT at any size."""
        self.check_field(u)
        return u.with_values(self._finish(u.values, self._fft_inner(u.values)))

    def check_field(self, u: Field) -> None:
        """Raise ``ValueError`` unless ``u`` lives on this operator's grid."""
        if u.grid != self.grid:
            raise ValueError("field grid does not match operator grid")


def discretize(
    spec: KernelSpec,
    grid: Grid,
    boundary: BoundaryModel,
    *,
    certificate: HypothesisCertificate | None = None,
    force: bool = False,
) -> DiscreteOperator:
    """Build the discrete operator, gated on kernel admissibility.

    A certificate is computed if not supplied; a supplied one must be for
    ``spec``, even under ``force``, since the operator reports it. An
    unverified kernel is rejected unless ``force=True`` (useful for kernels
    that violate the tail envelopes but still define a perfectly good
    monotone scheme, such as truncated tails).
    """
    if certificate is None:
        certificate = validate_hypothesis(spec)
    if certificate.spec != spec:
        raise ValueError(
            f"certificate is for kernel {certificate.spec!r}, not {spec!r}"
        )
    if not certificate.verified and not force:
        raise UnverifiedKernelError(
            f"kernel {spec.describe()} failed admissibility validation "
            f"(upper_margin={certificate.upper_margin:.3e}, "
            f"lower_margin={certificate.lower_margin:.3e}, "
            f"near_moment={certificate.near_moment:.3e}); "
            "pass force=True to discretize anyway"
        )
    return DiscreteOperator(spec, grid, boundary, certificate)
