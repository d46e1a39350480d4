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

The rate is ``T u - W u + e + amp rho``: ``T`` is the symmetric Toeplitz
matrix of the stencil on the grid, ``W`` the row sum, and ``e`` one vector
fixed at construction: the stencil mass beyond either end of the window plus
the far-tail terms, times the constant extensions (the left one, and the
right one under ``constant``). Only ``algebraic_tail`` adds ``amp rho``, the
amplitude fitted on each call times the response to ``y^(-2s)``; beyond the
last hat that extension gives row ``i`` the far shape
``int_cut^inf (x_i + z)^(-2s) J(z) dz`` with ``cut = n h``. For the power
tail ``A z^(-1-2s)`` it is the Euler integral
``A cut^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x_i / cut)`` (DLMF 15.6.1),
evaluated for all rows at once by
:func:`~flatdiff.kernels.exterior_tail_response`; ``tests/test_operator.py``
cross-checks it node by node against adaptive quadrature. ``rate`` forms
``T u`` by the path named by ``apply_path``, fixed by the grid size: below
the measured crossover a product with the dense ``T``, built once on the
first direct ``rate``, and from it on a circulant embedding at length
``~2n``, which ``apply_fft`` also takes at any size. ``apply`` sums the
sliding correlation with the zero-padded field at any size, the reference
that both paths are tested against. All of them add the same exterior
terms, and they agree to roundoff.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.fft
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
# one BLAS thread, numpy 2.4.6 on OpenBLAS 0.3.31, scipy 1.17.1). The dense
# product and the FFT are within 4 % of each other at 352 and 384 nodes, and
# the FFT wins by 15 % or more from 416 on; the correlation that ``apply``
# sums is the dense product's reference, not a path of ``rate``. At 383 nodes
# the dense matrix holds 1.2 MB.
#   n          128    192    256    320    352    384    416    448    511
#   dense      6.1    9.0   12.9   19.8   24.0   25.4   34.3   39.0   59.7  us
#   correlate  8.4   16.2   16.9   30.6   32.5   40.8   49.0   49.2   58.9  us
#   fft       19.9   22.4   24.2   24.7   23.3   26.3   29.4   30.8   33.8  us
_FFT_THRESHOLD = 384


class UnverifiedKernelError(ValueError):
    """The kernel failed admissibility validation and force was not set."""


class DiscreteOperator:
    """Precomputed weights for one (kernel, grid, boundary) combination.

    ``apply_path`` (``"direct"`` or ``"fft"``) names the inner product that
    :meth:`rate` uses; it is fixed by the grid size at construction.
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

        stencil = np.zeros(2 * n - 1)
        stencil[n:] = w
        stencil[: n - 1] = w[::-1]

        self.near_weights = w
        tail_cut = n * h
        t_left = t_right = exterior_mass(spec, tail_cut)
        self.far_tail_coefficients = (t_left, t_right)
        self.row_sum = float(stencil.sum()) + t_left + t_right

        self._stencil = stencil
        self._fft_len = scipy.fft.next_fast_len(2 * n - 1, real=True)
        self.apply_path = "fft" if n >= _FFT_THRESHOLD else "direct"
        # stencil mass landing on the i-th row's left pad; by symmetry the
        # right pad of row i carries the mass of the left pad of row n-1-i
        pad_mass = np.concatenate([np.cumsum(stencil[: n - 1])[::-1], [0.0]])
        # constant extensions give one fixed vector; an algebraic tail adds
        # its fitted amplitude times a fixed shape
        self._exterior = boundary.left_value * (t_left + pad_mass)
        self._tail_shape = None
        if boundary.right == "constant":
            self._exterior += boundary.right_value * (t_right + pad_mass[::-1])
        elif boundary.right == "algebraic_tail":
            self._tail_shape = self._algebraic_right(tail_cut)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # only the FFT path needs it, so small direct-path operators never pay
        return scipy.fft.rfft(self._stencil, self._fft_len)

    @cached_property
    def _toeplitz(self) -> np.ndarray:
        # T itself, built on the first direct rate; row i is
        # stencil[n-1-i : 2n-1-i]. Only direct-path operators pay its n^2
        # floats, fewer than _FFT_THRESHOLD^2.
        n = self.grid.n
        return np.ascontiguousarray(sliding_window_view(self._stencil, n)[::-1])

    def _algebraic_right(self, tail_cut: float) -> np.ndarray:
        """Response of every row to the unit-amplitude extension ``x^(-2s)``.

        Row ``i`` sees the pad sample at ``x_max + q h`` through stencil entry
        ``i - q`` of the left half, a convolution evaluated by FFT, plus the
        far shape ``int_cut^inf (x_i + z)^(-2s) J(z) dz`` beyond the last hat,
        ``A cut^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x_i / cut)`` for the power
        tail, from :func:`~flatdiff.kernels.exterior_tail_response`.
        ``tests/test_operator.py`` cross-checks it node by node against
        adaptive quadrature.
        """
        n, ex = self.grid.n, 2.0 * self.spec.s
        shape = self.grid.x_max + self.grid.h * np.arange(1, n)
        m = self._fft_len
        half = scipy.fft.rfft(self._stencil[: n - 1], m)
        pad = scipy.fft.irfft(half * scipy.fft.rfft(shape**-ex, m), m)
        far = exterior_tail_response(self.spec, tail_cut, self.grid.points())
        return np.append(0.0, pad[: n - 1]) + far

    def rate(self, values: np.ndarray) -> np.ndarray:
        """``D u`` on the grid values ``u``, with the boundary extensions.

        ``apply_path`` picks the inner product ``T u``: the FFT from
        ``n = 384`` nodes on, the measured crossover, and below it a product
        with the dense symmetric Toeplitz ``T``, built on the first call and
        kept. The FFT takes its worker count from ``scipy.fft.set_workers``,
        which :func:`~flatdiff.evolution.evolve` sets for a run.
        """
        values = np.asarray(values, dtype=float)
        n = self.grid.n
        if values.shape != (n,):
            raise ValueError(f"values shape {values.shape} does not match {n} nodes")
        if self.apply_path == "fft":
            return self._finish(values, self._fft_inner(values))
        return self._finish(values, self._toeplitz @ values)

    def _direct_inner(self, values: np.ndarray) -> np.ndarray:
        """``T u`` by sliding correlation with the zero-padded field; O(n^2).

        Only :meth:`apply` runs it, as the reference that both paths of
        :meth:`rate` are tested against.
        """
        pad = np.zeros(self.grid.n - 1)
        padded = np.concatenate([pad, values, pad])
        return np.correlate(padded, self._stencil, mode="valid")

    def _fft_inner(self, values: np.ndarray) -> np.ndarray:
        """``T u`` by circulant embedding; O(n log n)."""
        n, m = self.grid.n, self._fft_len
        prod = scipy.fft.rfft(values, m)
        prod *= self._spectrum
        return scipy.fft.irfft(prod, m)[n - 1 : 2 * n - 1]

    def _finish(self, values: np.ndarray, inner: np.ndarray) -> np.ndarray:
        # (T u - W u) + left + right from inner = T u, formed in the array of
        # W u: a fresh array of n values, where ``inner`` may view twice that
        out = values * self.row_sum
        np.subtract(inner, out, out=out)
        out += self._exterior
        if self._tail_shape is not None:
            amp = self.boundary.fit_tail_amplitude(self.grid, values, 2.0 * self.spec.s)
            out += amp * self._tail_shape
        return out

    def apply(self, u: Field) -> Field:
        """``D u`` by the direct correlation sum at any size; the reference."""
        self.check_field(u)
        return u.with_values(self._finish(u.values, self._direct_inner(u.values)))

    def apply_fft(self, u: Field) -> Field:
        """``D u`` by the circulant-embedded FFT at any size."""
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
