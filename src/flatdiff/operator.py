"""Monotone discretization of the nonlocal diffusion operator.

The operator acts on a grid function ``u`` as

    (D u)(x_i) = sum_k w_k (u(x_i + k h) - u(x_i))
               + (c0 / 2) (u(x_i + h) + u(x_i - h) - 2 u(x_i))
               + far-tail boundary terms,

where ``w_k`` is the exact kernel mass of the cell ``((k-1/2)h, (k+1/2)h)``
for ``1 <= |k| <= n-1`` and ``c0 = h^-2 int_{|z|<=h/2} z^2 J(z) dz`` replaces
the innermost singular cell by a second difference of matching local mass.
Displacements beyond the outermost cells are folded into two scalar tail
coefficients weighting the boundary extension values. Every off-diagonal
coefficient is nonnegative, so a forward Euler stage with ``dt * W <= 1``
(``W`` the diagonal coefficient) is a convex combination of field values;
comparison and maximum principles hold by construction.

The rate is ``T u - W u + left_value l + r rho``: ``T`` is the symmetric
Toeplitz matrix of the stencil on the grid, ``W`` the row sum, and ``l`` and
``rho`` are exterior vectors fixed at construction, holding the stencil mass
that lands beyond either end of the window plus the far-tail terms. ``r`` is
``right_value`` or, for the algebraic tail, the amplitude fitted on each call.
For that extension ``amp y^(-2s)`` the displacements beyond the cells give
row ``i`` the far shape ``int_cut^inf (x_i + z)^(-2s) J(z) dz`` with
``cut = (n - 1/2) h``. For the power tail ``A z^(-1-2s)`` it is the Euler
integral ``A cut^(-4s) / (4s) 2F1(2s, 4s; 4s + 1; -x_i / cut)`` (DLMF
15.6.1), evaluated for all rows at once by
:func:`~flatdiff.kernels.exterior_tail_response`; ``tests/test_operator.py``
cross-checks it node by node against adaptive quadrature. Both apply paths
add the same exterior vectors: ``apply`` forms ``T u`` by a sliding
correlation with the zero-padded field, ``apply_fft`` by circulant embedding
at length ``~2n``, and the two agree to roundoff.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.fft

from .kernels import (
    KernelSpec,
    HypothesisCertificate,
    exterior_mass,
    exterior_tail_response,
    interval_mass,
    restricted_second_moment,
    validate_hypothesis,
)
from .mesh import BoundaryModel, Field, Grid

__all__ = ["DiscreteOperator", "UnverifiedKernelError", "discretize"]

# measured crossover of ``rate``: unit s = 1/2 kernel on [-10, 10], random
# values, best per-call time of 4 rounds of timeit 7 x 2000 (2 vCPU,
# numpy 2.4.6, scipy 1.17.1); the FFT path first wins at n = 256
#   n       128    192    256    320    384    448    511
#   direct  10.2   15.8   29.8   33.8   52.0   80.3   89.9  us
#   fft     27.3   25.9   28.1   27.2   43.3   48.4   39.0  us
_FFT_THRESHOLD = 256


class UnverifiedKernelError(ValueError):
    """The kernel failed admissibility validation and force was not set."""


class DiscreteOperator:
    """Precomputed weights for one (kernel, grid, boundary) combination."""

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

        k = np.arange(1, n)
        w = interval_mass(spec, (k - 0.5) * h, (k + 0.5) * h)
        c0 = restricted_second_moment(spec, h / 2.0) / (h * h)

        stencil = np.zeros(2 * n - 1)
        stencil[n:] = w
        stencil[: n - 1] = w[::-1]
        stencil[n] += 0.5 * c0
        stencil[n - 2] += 0.5 * c0

        self.near_weights = w
        self.inner_coefficient = c0
        tail_cut = (n - 0.5) * h
        t_left = t_right = exterior_mass(spec, tail_cut)
        self.far_tail_coefficients = (t_left, t_right)
        self.row_sum = float(stencil.sum()) + t_left + t_right

        self._stencil = stencil
        self._fft_len = scipy.fft.next_fast_len(2 * n - 1, real=True)
        # stencil mass landing on the i-th row's left pad; by symmetry the
        # right pad of row i carries the mass of the left pad of row n-1-i
        pad_mass = np.concatenate([np.cumsum(stencil[: n - 1])[::-1], [0.0]])
        self._left = t_left + pad_mass
        if boundary.right == "zero":
            self._right = None
        elif boundary.right == "constant":
            self._right = t_right + pad_mass[::-1]
        else:
            self._right = self._algebraic_right(tail_cut)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # only the FFT path needs it, so small direct-path operators never pay
        return scipy.fft.rfft(self._stencil, self._fft_len)

    def _algebraic_right(self, tail_cut: float) -> np.ndarray:
        """Response of every row to the unit-amplitude extension ``x^(-2s)``.

        Row ``i`` sees the pad sample at ``x_max + q h`` through stencil entry
        ``i - q`` of the left half, a convolution evaluated by FFT, plus the
        far shape ``int_cut^inf (x_i + z)^(-2s) J(z) dz`` beyond the cells,
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

    def rate(
        self, values: np.ndarray, method: str = "auto", workers: int = 1
    ) -> np.ndarray:
        """``D u`` on the grid values ``u``, with the boundary extensions.

        ``method`` is ``"direct"`` (sliding correlation, O(n^2), the reference),
        ``"fft"`` (circulant embedding, O(n log n)) or ``"auto"``, which takes
        the FFT from ``n = 256`` nodes on, the measured crossover.
        """
        values = np.asarray(values, dtype=float)
        n = self.grid.n
        if values.shape != (n,):
            raise ValueError(f"values shape {values.shape} does not match {n} nodes")
        if method == "auto":
            method = "fft" if n >= _FFT_THRESHOLD else "direct"
        if method == "fft":
            m = self._fft_len
            prod = scipy.fft.rfft(values, m, workers=workers) * self._spectrum
            inner = scipy.fft.irfft(prod, m, workers=workers)[n - 1 : 2 * n - 1]
        elif method == "direct":
            pad = np.zeros(n - 1)
            padded = np.concatenate([pad, values, pad])
            inner = np.correlate(padded, self._stencil, mode="valid")
        else:
            raise ValueError(f"unknown apply method {method!r}")
        out = inner - values * self.row_sum + self.boundary.left_value * self._left
        if self._right is not None:
            out += self._right_amplitude(values) * self._right
        return out

    def _right_amplitude(self, values: np.ndarray) -> float:
        if self.boundary.right == "constant":
            return self.boundary.right_value
        return self.boundary.fit_tail_amplitude(self.grid, values, 2.0 * self.spec.s)

    def apply(self, u: Field) -> Field:
        """Direct correlation sum; O(n^2), the reference path."""
        self.check_field(u)
        return u.with_values(self.rate(u.values, "direct"))

    def apply_fft(self, u: Field, workers: int = 1) -> Field:
        """Same operator via circulant-embedded FFT; O(n log n)."""
        self.check_field(u)
        return u.with_values(self.rate(u.values, "fft", workers))

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
