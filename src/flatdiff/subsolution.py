"""Explicit traveling lower barrier for heavy-tailed nonlocal diffusion.

The barrier is the spatially decaying profile

    w(t, x) = 1/2                              for x <= 0,
    w(t, x) = kappa t / (x^(2s) + 2 kappa t)   for x > 0,

with rate constant ``kappa = 1 / (8 s J0)`` determined by the kernel's tail
envelope. For a scale parameter ``C`` the profile stays a subsolution of
``d_t u = D u`` for times ``t < t_star = 2 C / kappa`` at distances
``x >= R0 + R_star`` with ``R_star = (8 C J0^2)^(1/(2s))``: there the residual
``d_t w - D w`` is nonpositive. Since ``x^(2s) w(t, x) -> kappa t`` as
``x -> inf``, sliding the barrier under a solution converts an order-``a``
plateau on a half line into the algebraic lower bound
``u(t, x) >= a C / ((x + R0 + R_star + b)^(2s) + 2 C)``.

The residual is evaluated by adaptive quadrature of the defining integral in
the continuum; it is deliberately independent of the grid discretization so
the two can cross-validate each other. With ``p = |x|`` the operator splits as

    D w(x) = int_0^p Delta(z) J(z) dz
             + int_p^inf (w(x + z) + 1/2 - 2 w(x)) J(z) dz,

where ``Delta(z) = w(x + z) + w(x - z) - 2 w(x)`` pairs ``+z`` with ``-z`` to
tame the kernel singularity and ``w(x - z) = 1/2`` once ``z >= p``. For
``x < 0`` the first term vanishes, and the second runs over
``sigma = sqrt(z - p)`` up to ``z = 3p/2``. ``Delta`` is evaluated without
cancellation (see :func:`symmetric_increment`), which lets the quadrature
converge on the ``z^(-1-2s)`` singularity up to ``s -> 1``. Its integral is
split at ``z = p/2`` and runs over ``tau = sqrt(z)`` and
``sigma = sqrt(p - z)``, which make both ends smooth in the variable that
quadrature sees (see :func:`nonlocal_apply_to_barrier`). The three integrals
of every sample of a call go through one batched adaptive Gauss-Kronrod
quadrature (:func:`~flatdiff.quadrature.integrate_panels`), as rows of
array passes. They start on panels graded geometrically (ratio
``GRADING``) from the barrier's core edge, and for compact kernels from the
near profile's edge, up to ``sqrt(p/2)``, so almost every sample converges
in its first pass, at any ``x``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .kernels import HypothesisViolationError, KernelSpec, eval_kernel

__all__ = [
    "SubsolutionParams",
    "kappa",
    "w_eval",
    "w_time_derivative",
    "symmetric_increment",
    "nonlocal_apply_to_barrier",
    "ResidualSample",
    "residual_certificate",
    "residual_grid",
    "shifted_subsolution",
]

DEFAULT_QUAD_TOL = 1e-8
# The plateau side of the near piece of D w is graded from where x - z is
# this many core widths (2 kappa t)^(1/(2s)) of the barrier: inside it
# w(x - z) climbs to 1/2 over a layer that is narrow against sqrt(x) for
# large x. Passes and Gauss-Kronrod nodes per sample on the certify layout
# (c = 2, 20 x 20, x up to 200; s05 / s075 / s1), and on a far scan of 1436
# samples (c = 2; the unit-amplitude pure kernels with s in 0.3, 0.4, 0.5,
# 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, the compact flat s = 1 kernel and the
# s = 0.75 kernel truncated at 30; times 0.01, 1/3, 2/3 and 0.99 t_star; 33
# log-spaced positions from 20 to 1e12, those below the onset left out),
# at GRADING = 4, where no sample raised:
#   1   1.00 / 1.00 / 1.76 passes, 114 / 120 / 191 nodes; far 1.26, 229
#   2   1.00 / 1.00 / 1.47 passes, 109 / 112 / 171 nodes; far 1.25, 222
#   3   1.00 / 1.00 / 1.00 passes, 106 / 108 / 147 nodes; far 1.08, 211
#   4   1.00 / 1.00 / 1.00 passes, 105 / 107 / 144 nodes; far 1.09, 209
#   6   1.00 / 1.00 / 1.00 passes, 102 / 105 / 142 nodes; far 1.02, 203
# 4 stays, the width at which the values were checked against the tests'
# 60-digit route (6 would save about 2 % of the nodes).
CORE_WIDTHS = 4.0
# Ratio of the graded breaks on the plateau side (from the core edge) and
# on the near piece of a compact kernel (from its profile edge), each up to
# sqrt(x/2). The same layout and far scan at CORE_WIDTHS = 4:
#   2   1.00 / 1.00 / 1.00 passes, 114 / 122 / 187 nodes; far 1.01, 314
#   4   1.00 / 1.00 / 1.00 passes, 105 / 107 / 144 nodes; far 1.09, 209
#   8   1.02 / 1.05 / 1.70 passes, 104 / 107 / 166 nodes; far 2.05, 293
#  16   1.02 / 1.05 / 1.70 passes, 104 / 107 / 158 nodes; far 2.87, 343
# Bisected from uniform panels instead, the far scan took 8.16 passes and
# 448 nodes a sample.
GRADING = 4.0


def kappa(spec: KernelSpec) -> float:
    """Barrier growth rate ``1 / (8 s J0)`` from the declared tail envelope."""
    return 1.0 / (8.0 * spec.s * spec.declared_j0)


@dataclass(frozen=True)
class SubsolutionParams:
    """The barrier on one kernel's envelope, for one plateau datum.

    ``spec`` gives every constant: ``s``, ``j0 = spec.declared_j0`` and the
    lower-envelope onset radius ``r0 = spec.declared_r0``. ``a`` and ``b``
    describe the plateau (height ``a`` on ``(-inf, b]``). Derived fields obey
    ``kappa = 1/(8 s j0)``, ``t_star kappa = 2 c``, ``r_star^(2s) = 8 c j0^2``
    and ``onset = r0 + r_star``, where the validity set starts.
    """

    spec: KernelSpec
    c: float
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError("barrier scale c must be positive and finite")
        if not 0.0 < self.a < math.inf:
            raise ValueError("plateau height must be positive and finite")
        if not math.isfinite(self.b):
            raise ValueError("plateau edge b must be finite")

    @property
    def r0(self) -> float:
        """``spec.declared_r0``, kept for the benchmark (ROADMAP item 8)."""
        return self.spec.declared_r0

    @cached_property
    def kappa(self) -> float:
        # the module's kappa: a method body does not see class attributes
        return kappa(self.spec)

    @cached_property
    def t_star(self) -> float:
        return 2.0 * self.c / self.kappa

    @cached_property
    def r_star(self) -> float:
        j0 = self.spec.declared_j0
        return (8.0 * self.c * j0**2) ** (1.0 / (2.0 * self.spec.s))

    @cached_property
    def onset(self) -> float:
        return self.spec.declared_r0 + self.r_star

    @classmethod
    def from_kernel(
        cls, spec: KernelSpec, c: float, a: float = 1.0, b: float = 0.0
    ) -> "SubsolutionParams":
        """The constructor, kept for the benchmark (ROADMAP item 8)."""
        return cls(spec, c, a, b)


def _check_time(t: float) -> None:
    """Reject a time outside ``(0, inf)``; NaN fails the chained comparison."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"barrier is defined for finite t > 0, not t = {t}")


def w_eval(params: SubsolutionParams, t: float, x) -> np.ndarray | float:
    """Barrier value; 1/2 on the left half line, decaying algebraically right.

    Continuous at the junction, strictly decreasing in ``x`` on ``(0, inf)``,
    nondecreasing in ``t``, with ``x^(2s) w(t, x) -> kappa t``. A NaN ``x``
    gives NaN, not the plateau. A scalar ``x`` gives a ``float``, through
    the same 0-d array path as an array element. ``np.power`` overflows to
    ``inf`` (so ``w = 0``) where bare ``**`` on a float raises.
    """
    _check_time(t)
    kt, a = params.kappa * t, 2.0 * params.spec.s
    x_arr = np.asarray(x, dtype=float)
    plateau = x_arr <= 0
    xp = np.where(plateau, 1.0, x_arr)
    out = np.where(plateau, 0.5, kt / (np.power(xp, a) + 2.0 * kt))
    if x_arr.ndim == 0:
        return float(out)
    return out


def w_time_derivative(params: SubsolutionParams, t: float, x: float) -> float:
    """Exact ``d_t w``: ``kappa x^(2s) / (x^(2s) + 2 kappa t)^2`` for x > 0."""
    _check_time(t)
    if x <= 0:
        return 0.0
    xs = x ** (2.0 * params.spec.s)
    return params.kappa * xs / (xs + 2.0 * params.kappa * t) ** 2


def _increment(a: float, x, xa, g, k2, c, z, y):
    """``Delta`` of :func:`symmetric_increment` at ``0 < z < x``; ``y = x - z``.

    Takes the samples' constants ``a = 2s``, ``xa = x^a``, ``k2 = 2 kappa
    t``, ``g = g(x) = xa + k2`` and ``c = -kappa t / g``, so that no ``pow``
    is taken per node. Both branches are formed at every node and ``z < y``
    selects the ``u < 1/2`` one, where ``y`` only picks the branch.
    Otherwise ``y`` must be exact, as ``x - z`` is for ``z >= x/2`` and as
    ``sigma^2`` is on the plateau-side map of the near piece. The branch not
    taken may overflow or give NaN, so callers silence floating-point
    warnings.
    """
    u = z / x
    l_plus = np.log1p(u)
    d_plus = xa * np.expm1(a * l_plus)
    small = z < y
    neg_u = -u
    l_small = np.log1p(neg_u)
    l_minus = a * np.where(small, l_small, np.log(y / x))
    d_minus = xa * np.expm1(l_minus)
    # expm1(S) cosh D + 2 sinh(D/2)^2 with cosh D = 1 + 2 sinh(D/2)^2, and
    # D/2 = (a/4) (log1p(u) - log1p(-u)), which adds two terms of opposite sign
    big_s = np.expm1(0.5 * a * np.log1p(u * neg_u))
    h = np.sinh(0.25 * a * (l_plus - l_small))
    h2 = h * (h + h)
    e_small = (xa + xa) * (big_s + h2 * (big_s + 1.0))
    e = np.where(small, e_small, d_plus + d_minus)
    g_minus = xa * np.exp(l_minus) + k2
    return c * (g * e + (d_plus + d_plus) * d_minus) / ((g + d_plus) * g_minus)


def symmetric_increment(
    params: SubsolutionParams, t: float, x: float, z: float
) -> float:
    """``w(x+z) + w(x-z) - 2 w(x)``; nonnegative where the profile is convex.

    For ``x > 0`` and ``|z| < x`` the three values nearly cancel as
    ``z -> 0``, so the increment is formed from the differences
    ``d+- = g(x +- |z|) - g(x)`` of ``g(y) = y^a + 2 kappa t``, ``a = 2s``:

        Delta = -kappa t (g(x) e + 2 d+ d-) / (g(x+z) g(x-z) g(x)),

    with ``e = d+ + d-``, ``g(x+z) = g(x) + d+``, ``d+ = x^a expm1(a
    log1p(u))``, ``u = |z|/x``, and ``g(x-z) = x^a exp(L) + 2 kappa t``,
    ``d- = x^a expm1(L)`` for ``L = a log(1 - u)``; ``g(x) + d-`` would lose
    every digit as ``z -> x`` once ``x^a`` dwarfs ``2 kappa t``. Two
    branches:

    * ``u < 1/2``: ``L = a log1p(-u)`` and ``e = 2 x^a (expm1(S) cosh D +
      2 sinh(D/2)^2)``, with ``S = (a/2) log1p(-u^2)`` and
      ``D = a atanh(u)``, which keeps the ``u^2`` digits that ``d+ + d-``
      cancels.
    * ``u >= 1/2``: ``L = a log(y/x)`` from the distance ``y = x - |z|`` to
      the plateau edge, exact there (Sterbenz), and ``e = d+ + d-``.
      ``1 - u`` keeps few digits of ``y/x``, none once ``y`` is below an
      ulp of ``x`` (``log1p(-u)`` is then ``-inf``), and the ``S``, ``D`` form
      subtracts ``cosh D``, of size ``(x/y)^(a/2)``, from itself, while
      ``d+`` and ``d-`` stay of size ``x^a``.

    Elsewhere the direct sum of three barrier values has no cancellation and
    is used as is.
    """
    _check_time(t)
    z = abs(z)
    if x <= 0 or z >= x:
        return (
            w_eval(params, t, x + z)
            + w_eval(params, t, x - z)
            - 2.0 * w_eval(params, t, x)
        )
    a, k2 = 2.0 * params.spec.s, 2.0 * params.kappa * t
    xa = x**a
    g = xa + k2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(_increment(a, x, xa, g, k2, -0.5 * k2 / g, z, x - z))


def _far_map(tau, k: float):
    """The far piece's map ``z = tau^(-k)`` and its factor ``dz/d(-tau)``."""
    z = tau**-k
    return z, k * z / tau


# which of a sample's three rows (near, plateau side, far) is the plateau
# side, which the far piece, and which integrates the increment beyond |x|
# (for x > 0; for x < 0 the plateau side does too)
_ROW_KINDS = np.array(
    [[False, True, False], [False, False, True], [False, False, True]]
)


def _apply_to_barrier(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: np.ndarray,
    x: np.ndarray,
    quad_tol: float,
) -> np.ndarray:
    """``(D w)(t_i, x_i)`` for 1-d arrays of samples, in one quadrature call.

    Each sample gives three rows of
    :func:`~flatdiff.quadrature.integrate_panels`: the near piece in
    ``z = tau^2``, its plateau side in ``x - z = sigma^2`` and the far piece
    in ``z = tau^(-k)``, each with the breakpoints named in
    :func:`nonlocal_apply_to_barrier`, padded with copies of the row's upper
    limit to one width. The integrand is one array expression over all rows.
    Rows are summed apart from each other, so a sample gets the same bits in
    any batch (``test_panels_a_batch_changes_no_rows_bits`` pins this).
    """
    p = np.abs(x)
    # every t and |x| in (0, inf); NaN fails both comparisons, in a
    # reduction as well
    both = np.concatenate((t, p))
    least, most = float(np.minimum.reduce(both)), float(np.maximum.reduce(both))
    if not (least > 0.0 and most < math.inf):
        for ti in t.tolist():
            _check_time(ti)
        if (x == 0.0).any():
            raise ValueError("the profile kink makes the operator singular at x = 0")
        bad = x[~np.isfinite(x)][0]
        raise ValueError(f"D w is evaluated at finite x, not x = {bad}")
    if params.spec is not spec and params.spec != spec:
        raise ValueError(
            f"barrier constants of {params.spec!r} are not those of kernel {spec!r}"
        )
    # Bisection alone resolves a fractional power at a row's end slowly. The
    # far map z = tau^(-k) turns a tail J ~ z^(-1-2s) into tau^(2sk-1), with
    # corrections in powers of tau^(2sk) and tau^k: k = 2 makes them all
    # polynomials when 4s is an integer, and k = 1/s otherwise makes the
    # leading term linear (k = 2 took 21 passes at s = 0.3). Near z = 0 the
    # near piece behaves as tau^(3-4s) (1 + O(tau^4)) where J is unbounded;
    # unless 4s is an integer, its leading term w''(x) z^2 J(z) is
    # integrated in closed form and subtracted from the row, which leaves
    # tau^(7-4s) (s = 0.9 took 66 passes without it, and s >= 0.97 reached
    # the panel cap).
    a, n = 2.0 * spec.s, x.size
    k = 2.0 if (4.0 * spec.s).is_integer() else 1.0 / spec.s
    subtract = spec.tail_support[0] == 0.0 and k != 2.0
    # each sample's constants, once per row: x, kappa t, 2 kappa t, x^a
    # (|x|^a for x < 0, where only the far row is integrated), g = x^a +
    # 2 kappa t, c = -kappa t / g = -w(x) for x > 0, 1/2 - 2 w(x) and the
    # subtracted w''(x) (near rows only)
    rows = np.zeros((8, 3, n))
    x_, kt, k2, xa, g, c, plateau, w2 = rows
    x_[:] = x
    np.multiply(params.kappa, t, out=kt)
    np.add(kt, kt, out=k2)
    np.power(p, a, out=xa)
    np.add(xa, k2, out=g)
    # w(x) first, then c = -w(x)
    np.divide(kt, g, out=c)
    left = x < 0.0
    np.copyto(c, 0.5, where=left)
    np.subtract(0.5, c + c, out=plateau)
    np.negative(c, out=c)
    kinds = _ROW_KINDS.repeat(n, axis=1)
    kinds[2, n : 2 * n] = left
    known = None
    if subtract:
        # w'' = a w r (2 a r - a + 1) / x^2 with r = x^a / g
        r = xa[0] / g[0]
        w2[0] = a * -c[0] * r * (2.0 * a * r - a + 1.0) / (x * x)
        np.copyto(w2[0], 0.0, where=left)
        # int_0^h A z^(1-2s) dz = A h^q / q, q = 2 - 2s, h = min(p/2, hi):
        # the bits of interval_moments, without its per-call validation
        q = 2.0 - a
        if q <= 0.0:
            raise HypothesisViolationError(
                "near-field second moment diverges for an unbounded "
                f"kernel with s = {spec.s:g} >= 1"
            )
        known = np.zeros((3, n))
        h = np.minimum(0.5 * p, spec.tail_support[1])
        known[0] = w2[0] * (h**q * (spec.amplitude / q))

    # each row runs from 0 through its breaks to its limit: the near piece's
    # breaks are sqrt(r) for the jump radii r, the plateau side's sqrt(d)
    # for the distances d = |p - z| of the jump radii, and the far piece's
    # r^(-1/k). The plateau side is graded from the core edge sigma_c:
    # breaks at sigma_c / 2, sigma_c and sigma_c GRADING^j. The near piece of
    # a kernel that is a power law beyond its near profile (lo > 0) is
    # graded from the profile's edge: breaks at sqrt(lo) GRADING^j, j >= 1.
    # Every row takes the steps that the batch's widest span needs, in logs
    # from the least origin (sigma_c at the least of all t and |x|, or
    # sqrt(lo)) to the limit sqrt(x/2) at the largest of them, and at most
    # 64, so that GRADING^(2j) stays finite. A break beyond its row's limit
    # is clipped to it and makes an empty panel, which integrate_panels
    # drops, so a sample's panels do not depend on the batch. For x < 0 the
    # near row has limit 0, so no panel, the plateau side runs over
    # z = |x| + sigma^2 up to sigma = sqrt(|x|/2), and the far piece from
    # z = 3|x|/2: the end z = |x|, where w(x + z) leaves the plateau as
    # (z - |x|)^(2s), becomes sigma^(4s), graded as for x > 0.
    lo = spec.tail_support[0]
    jumps = [r for r in spec.tail_support if 0.0 < r < math.inf]
    start = 0.5 * (
        math.log(CORE_WIDTHS) + (math.log(2.0 * params.kappa) + math.log(least)) / a
    )
    if lo > 0.0:
        start = min(start, 0.5 * math.log(lo))
    reach = 0.5 * math.log(0.5 * most) - start
    steps = min(2 + int(reach / math.log(GRADING)), 64) if reach > 0.0 else 1
    edges = np.full((3, n, len(jumps) + steps + 3), math.inf)
    edges[:, :, 0] = 0.0
    if jumps:
        edges[0, :, 1 : len(jumps) + 1] = [math.sqrt(r) for r in jumps]
        edges[2, :, 1 : len(jumps) + 1] = [r ** (-1.0 / k) for r in jumps]
    if lo > 0.0:
        edges[0, :, len(jumps) + 1 : len(jumps) + steps + 1] = [
            math.sqrt(lo) * GRADING**j for j in range(1, steps + 1)
        ]
    # sigma_c GRADING^j = sqrt(CORE_WIDTHS GRADING^(2j) (2 kappa t)^(1/(2s)))
    side = edges[1]
    widths = [0.25 * CORE_WIDTHS]
    widths += [CORE_WIDTHS * GRADING ** (2 * j) for j in range(steps)]
    np.sqrt(np.power(k2[0], 1.0 / a)[:, None] * widths, out=side[:, 1 : steps + 2])
    if jumps:
        # d = x - r for x > 0 and r - p for x < 0
        d = x[:, None] - np.copysign(jumps, x[:, None])
        np.sqrt(np.maximum(d, 0.0), out=side[:, steps + 2 : -1])
    limit = np.empty((3, n, 1))
    np.sqrt(0.5 * np.maximum(x, 0.0), out=limit[0, :, 0])
    np.sqrt(0.5 * p, out=limit[1, :, 0])
    np.power(np.where(left, 1.5 * p, p), -1.0 / k, out=limit[2, :, 0])
    np.minimum(edges, limit, out=edges)
    if jumps:
        edges.sort(axis=2)
    rows = rows.reshape(8, 3 * n)

    def integrand(nodes, owner):
        at = owner.repeat(nodes.shape[1])
        x, kt, k2, xa, g, c, plateau, w2 = rows.take(at, axis=1)
        edge, far, past = kinds.take(at, axis=1)
        tau = nodes.ravel()
        q = tau * tau
        z_far, dz_far = _far_map(tau, k)
        rest = x - q
        z = np.where(far, z_far, np.where(edge, np.abs(rest), q))
        y = np.where(edge, q, rest)
        # beyond p the increment is w(x + z) + 1/2 - 2 w(x), with the
        # plateau value 1/2 where x + z rounds to 0 or below; on the plateau
        # side of x < 0, x + z is the exact sigma^2
        beyond = np.power(np.maximum(np.where(edge, q, x + z), 0.0), a)
        beyond = kt / (beyond + k2) + plateau
        increment = _increment(a, x, xa, g, k2, c, z, y)
        if subtract:
            increment = increment - w2 * (z * z)
        term = np.where(past, beyond, increment)
        out = np.where(far, dz_far, tau + tau) * term * eval_kernel(spec, z)
        return out.reshape(nodes.shape)

    pieces = ("near piece", "plateau side", "far piece")
    values, _ = quadrature.integrate_panels(
        integrand, edges.reshape(3 * n, -1), quad_tol,
        lambda i: f"{pieces[i // n]} of D w at t={t[i % n]}, x={x[i % n]}",
        None if known is None else known.ravel(),
    )
    near, edge, far = values.reshape(3, n)
    return near + edge + far


def nonlocal_apply_to_barrier(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> float:
    """Evaluate ``(D w)(t, x)`` by adaptive quadrature in the continuum.

    With ``p = |x|``: the symmetric increment against ``J`` on ``(0, p)``,
    and beyond ``p``, where the left branch sees only the plateau, the
    increment ``w(x + z) + 1/2 - 2 w(x)`` with ``w(x + z)`` in closed form.
    For ``x < 0`` the first piece vanishes (every barrier value in it is
    1/2), so only the piece beyond ``p`` is integrated.

    The near piece is split at ``z = x/2`` and runs over a square root of
    the distance to each end. On ``(0, x/2)`` it takes ``z = tau^2``, so its
    ``z^(1-2s)`` end becomes ``tau^(3-4s)``, constant at ``s = 3/4``; it is
    split at ``sqrt(r)`` for the kernel's jump radii ``r`` (the finite
    nonzero ends of ``spec.tail_support``). A kernel that is a power law
    beyond its near profile on ``(0, lo]`` is also split at
    ``sqrt(lo) GRADING^j`` up to ``sqrt(x/2)``, so that its panels grow
    with the distance from the profile's edge. Where ``J`` is unbounded at 0 and ``4s`` is not an integer,
    ``w''(x) z^2 J(z)`` is subtracted from the increment there and
    integrated in closed form, which leaves ``tau^(7-4s)``. On ``(x/2, x)``
    it takes ``x - z = sigma^2``, so the plateau end, where ``w(x - z)``
    reaches 1/2 as ``(x - z)^(2s)``, becomes the smooth ``sigma^(4s)``; the
    increment is formed from the exact ``y = sigma^2``, never from
    ``x - z``, which rounds to ``x`` far out. It is split at ``sqrt(x - r)``
    for the jump radii in ``(x/2, x)``, and graded from the core edge
    ``sigma_c = sqrt(CORE_WIDTHS (2 kappa t)^(1/(2s)))``, where ``w(x - z)``
    enters the barrier's core: at ``sigma_c / 2``, ``sigma_c`` and
    ``sigma_c GRADING^j`` up to ``sqrt(x/2)``. The far piece runs over
    ``z = tau^(-k)`` (``k = 2`` when ``4s`` is an integer, ``1/s``
    otherwise) and is split at the jump radii beyond ``p``. Points outside a
    map's range are dropped. For ``x < 0`` the plateau side is ``(p, 3p/2)``
    in ``z - p = sigma^2``, where ``w(x + z)`` leaves the plateau as
    ``(z - p)^(2s)``, split and graded as for ``x > 0``, and the far piece
    starts at ``3p/2``. Bisected in the far map instead, the end at ``p``
    took up to 13 passes and left relative errors up to 1.5e-11 (s = 0.6);
    over ``sigma``, samples checked against a 60-digit route take 1 or 2
    passes and are within 1.6e-15 for s = 1/2, 3/4 and 1, and 7e-13 for
    s = 0.6.

    The three pieces are rows of one batched Gauss-Kronrod quadrature, each
    to the relative tolerance ``quad_tol``. Passes and nodes per sample on
    the certify layout (c = 2, 20 x 20 samples, x up to 200), and passes at
    ``t_star / 2`` for ``x`` = 1e3, 1e6, 1e9 and 1e12:

        kernel                      passes   nodes   passes far out
        s = 1/2 unit                1.00     105     1 / 1 / 1 / 1
        s = 0.75 fractional Lapl.   1.00     107     1 / 1 / 1 / 1
        s = 1 compact flat          1.00     144     2 / 2 / 2 / 2

    Bisected from uniform panels instead, these took 1.02 / 2.00 / 1.96
    passes and 83 / 129 / 178 nodes, and far out 1 / 6 / 11 / 16 passes
    (s = 1/2) and 4 / 9 / 14 / 19 (s = 1).
    A piece that reaches 400 panels, or gives a non-finite value, raises
    :class:`~flatdiff.quadrature.QuadratureError` naming ``t`` and ``x``.

    ``params`` reads ``s``, ``j0`` and ``r0`` from its own kernel, so it
    must be built on ``spec`` (``params.spec == spec``); otherwise this, and
    so :func:`residual_certificate` and :func:`residual_grid`, raises
    ``ValueError``.
    """
    batch = np.array([t], dtype=float), np.array([x], dtype=float)
    return float(_apply_to_barrier(spec, params, *batch, quad_tol)[0])


@dataclass(frozen=True)
class ResidualSample:
    """One certified residual evaluation with its quadrature budget.

    ``passed`` is ``residual <= budget``, so a NaN residual fails.
    ``resolved`` is ``residual <= -budget``: the sign is certified by the
    value itself, not only admitted by the budget.
    """

    t: float
    x: float
    residual: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget

    @property
    def resolved(self) -> bool:
        return self.residual <= -self.budget

    def as_row(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def _residual_samples(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: np.ndarray,
    x: np.ndarray,
    quad_tol: float,
) -> list[ResidualSample]:
    """The certificate at each sample ``(t_i, x_i)``, from one batched ``D w``."""
    dw = _apply_to_barrier(spec, params, t, x, quad_tol)
    samples = []
    for ti, xi, d in zip(t.tolist(), x.tolist(), dw.tolist()):
        residual = w_time_derivative(params, ti, xi) - d
        budget = 10.0 * quad_tol * abs(d)
        samples.append(ResidualSample(t=ti, x=xi, residual=residual, budget=budget))
    return samples


def residual_certificate(
    spec: KernelSpec,
    params: SubsolutionParams,
    t: float,
    x: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ResidualSample:
    """Residual plus the tolerance budget ``10 tol |D w|``.

    The budget is relative, as is the rule each quadrature row stops on, so
    it shrinks with ``D w`` far out and a sample there is resolved by its
    own value.
    """
    batch = np.array([t], dtype=float), np.array([x], dtype=float)
    return _residual_samples(spec, params, *batch, quad_tol)[0]


def residual_grid(
    spec: KernelSpec,
    params: SubsolutionParams,
    nt: int = 20,
    nx: int = 20,
    x_max: float | None = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[ResidualSample]:
    """Certify the residual sign on an ``nt x nx`` sample of the validity set.

    Times fill the open interval ``(0, t_star)``; positions span
    ``[r0 + r_star, x_max]``. All ``nt * nx`` samples go through one
    quadrature call, time-major, and each gets the bits that
    :func:`residual_certificate` gives it.
    """
    if nt < 1 or nx < 1:
        raise ValueError("sample counts must be positive")
    x_lo = params.onset
    if x_max is None:
        x_max = 10.0 * x_lo
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, not {x_max}")
    if x_max < x_lo:
        raise ValueError("x_max lies below the validity onset r0 + r_star")
    times = params.t_star * np.arange(1, nt + 1) / (nt + 1)
    positions = np.linspace(x_lo, x_max, nx)
    return _residual_samples(
        spec, params, np.repeat(times, nx), np.tile(positions, nt), quad_tol
    )


def shifted_subsolution(params: SubsolutionParams, t: float, x) -> np.ndarray | float:
    """Barrier slid under the solution: ``a * w(t, x + r0 + r_star + b)``.

    At ``t_star / 2`` this equals
    ``a c / ((x + r0 + r_star + b)^(2s) + 2 c)``, the certified lower bound
    for a solution that started above ``a`` on ``(-inf, b]``.
    """
    shift = params.onset + params.b
    return params.a * w_eval(params, t, np.asarray(x) + shift)
