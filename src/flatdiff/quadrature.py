"""Adaptive quadrature with explicit failure reporting: thin wrappers around
QUADPACK for one integrand, and a batched Gauss-Kronrod rule for many."""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence

import numpy as np
from scipy import integrate

__all__ = ["QuadratureError"]

_ABS_FLOOR = 1e-14
# most subintervals one integral may use, in QUADPACK and in the batched rule
_PANEL_LIMIT = 400

# QUADPACK's qk21 rule: the 11 nonnegative Kronrod nodes, descending, their
# weights, and the weights of the 10-point Gauss rule at the odd positions;
# _NODES, _KRONROD and _GAUSS spread them over all 21 nodes of [-1, 1]
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208005421425, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _quad(f, a: float, b: float, where: str, **options) -> tuple[float, float]:
    """``integrate.quad`` raising :class:`QuadratureError` on a QUADPACK warning.

    ``where`` is formatted with ``a``, ``b`` and ``options`` only on failure.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            return integrate.quad(f, a, b, **options)
        except integrate.IntegrationWarning as exc:
            where = where.format(a=a, b=b, **options)
            raise QuadratureError(f"{where} did not converge: {exc}") from exc


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval ``[a, b]``.

    Returns ``(value, error_estimate)``. Interior breakpoints (kinks of the
    integrand) may be supplied; points outside ``(a, b)`` are ignored.
    Raises :class:`QuadratureError` if the routine reports non-convergence.
    """
    pts: list[float] | None = None
    if breakpoints is not None:
        pts = [p for p in breakpoints if a < p < b]
        if not pts:
            pts = None
    return _quad(
        f, a, b, "quadrature on [{a}, {b}]",
        epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=_PANEL_LIMIT, points=pts
    )


def integrate_tail(
    f: Callable[[float], float],
    a: float,
    rel_tol: float = 1e-10,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, inf)`` for ``a > 0``.

    Uses the substitution ``z = tau^(-2)``, ``dz = -2 tau^(-3) dtau``, which
    maps the tail onto ``(0, 1/sqrt(a)]``. Breakpoints are given in ``z``,
    as for :func:`integrate_interval`, and mapped to ``tau = z^(-1/2)``;
    points outside ``(a, inf)`` are ignored. A tail ``f ~ z^(-1-2s)`` becomes
    ``tau^(4s-1)`` at ``tau -> 0``, a polynomial for ``s`` = 1/2, 3/4 and 1;
    the map ``z = 1/v`` gives ``v^(2s-1)``, which is not smooth at ``s = 3/4``
    and unbounded below ``s = 1/2``. Integrand calls per sample for the far
    field of the barrier residual on the certify layout (c = 2, 20 x 20
    samples, x up to 200):

        kernel                      z = 1/v   z = tau^(-2)
        s = 1/2 unit                21        21
        s = 0.75 fractional Lapl.   224       21
        s = 1 compact flat          21        21
    """
    if a <= 0:
        raise ValueError("tail integration requires a positive lower limit")

    def g(tau: float) -> float:
        z = 1.0 / (tau * tau)
        # f z^2 tau = f tau^(-3) without forming tau^(-3), which overflows
        # at nodes where f z^2 tau is still finite
        return 2.0 * f(z) * z * z * tau

    taus = [1.0 / math.sqrt(z) for z in breakpoints or () if z > a]
    return integrate_interval(
        g, 0.0, 1.0 / math.sqrt(a), rel_tol=rel_tol, breakpoints=taus
    )


def _kronrod21(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """QUADPACK's qk21 on the panels ``[a, b]``: values and error estimates.

    The estimate is ``resasc * min(1, (200 |K - G| / resasc)^1.5)``, raised
    to the round-off floor ``50 eps resabs``. Each panel's sums run along its
    own row, so a panel's result does not depend on the other panels.
    """
    half = 0.5 * (b - a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fx = f((0.5 * (a + b))[:, None] + half[:, None] * _NODES, owner)
        kronrod = (fx * _KRONROD).sum(axis=1)
        gauss = (fx * _GAUSS).sum(axis=1)
        resabs = (np.abs(fx) * _KRONROD).sum(axis=1) * half
        resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _KRONROD).sum(axis=1) * half
        err = np.abs(kronrod - gauss) * half
        spread = resasc > 0.0
        ratio = 200.0 * err[spread] / resasc[spread]
        err[spread] = resasc[spread] * np.minimum(1.0, ratio * np.sqrt(ratio))
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def integrate_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    edges: np.ndarray,
    rel_tol: float,
    where: Callable[[int], str],
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate one function per row of ``edges`` over that row's interval.

    Row ``i`` of ``edges`` holds ascending breakpoints from its lower to its
    upper limit; zero-width panels are dropped. ``f(x, owner)`` takes nodes
    ``x`` of shape ``(m, 21)`` and the row index ``owner`` of each of the
    ``m`` panels, and returns the integrands' values at ``x``. Each pass
    applies QUADPACK's 21-point Gauss-Kronrod rule to every open panel of
    every row in one call to ``f``. A row is retired once its summed error
    estimate is at most ``rel_tol`` times its summed value; otherwise every
    panel whose estimate exceeds its even share of that bound is bisected.
    Returns ``(values, error_estimates)``, one per row. A row that gives a
    non-finite value, or reaches 400 panels unconverged, raises
    :class:`QuadratureError` with the description ``where(i)``; the
    integrand's floating-point warnings are silenced, not raised.
    """
    rows = edges.shape[0]
    lo = edges[:, :-1].ravel()
    hi = edges[:, 1:].ravel()
    owner = np.repeat(np.arange(rows), edges.shape[1] - 1)
    wide = hi > lo
    new_lo, new_hi, new_owner = lo[wide], hi[wide], owner[wide]
    lo = hi = val = err = np.empty(0)
    owner = np.empty(0, dtype=int)
    values = np.zeros(rows)
    errors = np.zeros(rows)
    open_rows = np.ones(rows, dtype=bool)
    while True:
        v, e = _kronrod21(f, new_lo, new_hi, new_owner)
        bad = ~(np.isfinite(v) & np.isfinite(e))
        if bad.any():
            raise QuadratureError(f"{where(int(new_owner[bad][0]))} gave a non-finite value")
        lo = np.concatenate((lo, new_lo))
        hi = np.concatenate((hi, new_hi))
        owner = np.concatenate((owner, new_owner))
        val = np.concatenate((val, v))
        err = np.concatenate((err, e))
        total = np.bincount(owner, val, minlength=rows)
        bound = np.bincount(owner, err, minlength=rows)
        count = np.bincount(owner, minlength=rows)
        done = open_rows & (bound <= rel_tol * np.abs(total))
        values[done] = total[done]
        errors[done] = bound[done]
        open_rows &= ~done
        if not open_rows.any():
            return values, errors
        capped = np.flatnonzero(open_rows & (count >= _PANEL_LIMIT))
        if capped.size:
            raise QuadratureError(
                f"{where(int(capped[0]))} did not converge in {_PANEL_LIMIT} panels"
            )
        live = open_rows[owner]
        share = rel_tol * np.abs(total) / np.maximum(count, 1)
        split = live & (err > share[owner])
        keep = live & ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_owner = np.concatenate((owner[split], owner[split]))
        lo, hi, owner, val, err = lo[keep], hi[keep], owner[keep], val[keep], err[keep]
