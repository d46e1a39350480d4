"""Adaptive quadrature with explicit failure reporting: QUADPACK's 21-point
Gauss-Kronrod rule run as array passes over many integrals at once."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = ["QuadratureError"]

# most panels one integral may use
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
_WEIGHTS = np.stack((_KRONROD, _GAUSS))
_sum = np.add.reduce


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _kronrod21(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """QUADPACK's qk21 on the panels ``[a, b]``: values and error estimates.

    The estimate is ``resasc * min(1, (200 |K - G| / resasc)^1.5)``, raised
    to the round-off floor ``50 eps resabs``. Each panel's sums run along its
    own row, so a panel's result does not depend on the other panels. The
    caller silences floating-point warnings.
    """
    half = 0.5 * (b - a)
    fx = f((0.5 * (a + b))[:, None] + half[:, None] * _NODES, owner)
    kronrod, gauss = _sum(fx[:, None, :] * _WEIGHTS, axis=2).T
    # resabs and resasc: |f| and |f - K/2| against the Kronrod weights
    spread = np.empty((fx.shape[0], 2, fx.shape[1]))
    np.abs(fx, out=spread[:, 0])
    np.abs(fx - 0.5 * kronrod[:, None], out=spread[:, 1])
    spread *= _KRONROD
    resabs, resasc = (_sum(spread, axis=2) * half[:, None]).T
    ratio = 200.0 * (np.abs(kronrod - gauss) * half) / resasc
    # resasc = 0 only where every value is K/2, and there |K - G| is below
    # the round-off floor, so fmin's 1 for the ratio's NaN or inf changes
    # no estimate
    err = resasc * np.fmin(1.0, ratio * np.sqrt(ratio))
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def integrate_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    edges: np.ndarray,
    rel_tol: float,
    where: Callable[[int], str],
    known: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate one function per row of ``edges`` over that row's interval.

    Row ``i`` of ``edges`` holds ascending breakpoints from its lower to its
    upper limit; zero-width panels are dropped. ``f(x, owner)`` takes nodes
    ``x`` of shape ``(m, 21)`` and the row index ``owner`` of each of the
    ``m`` panels, and returns the integrands' values at ``x``. Each pass
    applies QUADPACK's 21-point Gauss-Kronrod rule to every new panel of
    every row in one call to ``f``, then sums each row's value (plus
    ``known[i]``, a part of row ``i`` integrated in closed form) and error
    estimate afresh from all its panels. A row is open exactly while its
    estimate exceeds ``rel_tol`` times the size of its value; only an open
    row's panels whose estimates exceed their even share of that bound are
    bisected, so a closed row's sums and verdict are final. Returns
    ``(values, error_estimates)``, one per row, ``known`` included. A row
    that gives a non-finite value, or reaches 400 panels unconverged, raises
    :class:`QuadratureError` with the description ``where(i)``; the
    integrand's floating-point warnings are silenced, not raised.
    """
    rows = edges.shape[0]
    new = np.array((edges[:, :-1].ravel(), edges[:, 1:].ravel()))
    wide = new[1] > new[0]
    new = new[:, wide]
    new_owner = np.arange(rows).repeat(edges.shape[1] - 1)[wide]
    # every panel of every row: its ends, value and error estimate
    panels, owner = np.empty((4, 0)), new_owner[:0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            v, e = _kronrod21(f, new[0], new[1], new_owner)
            # a sum of finite values overflows only beyond 1e308
            if not math.isfinite(_sum(v + e)):
                bad = ~(np.isfinite(v) & np.isfinite(e))
                if bad.any():
                    raise QuadratureError(
                        f"{where(int(new_owner[bad][0]))} gave a non-finite value"
                    )
            panels = np.concatenate((panels, np.concatenate((new, (v, e)))), axis=1)
            owner = np.concatenate((owner, new_owner))
            val, err = panels[2:]
            total = np.bincount(owner, val, minlength=rows)
            if known is not None:
                total += known
            bound = np.bincount(owner, err, minlength=rows)
            allowed = rel_tol * np.abs(total)
            open_rows = bound > allowed
            if not open_rows.any():
                return total, bound
            count = np.bincount(owner, minlength=rows)
            capped = (open_rows & (count >= _PANEL_LIMIT)).nonzero()[0]
            if capped.size:
                raise QuadratureError(
                    f"{where(int(capped[0]))} did not converge in {_PANEL_LIMIT} panels"
                )
            # an open row holds a panel, so its count is positive
            split = open_rows[owner] & (err > (allowed / count)[owner])
            # each split panel [lo, hi] becomes [lo, mid] and then [mid, hi]
            lo, hi = panels[:2, split]
            mid = 0.5 * (lo + hi)
            new = np.array(((lo, mid), (mid, hi))).reshape(2, -1)
            new_owner = np.tile(owner[split], 2)
            panels, owner = panels[:, ~split], owner[~split]
