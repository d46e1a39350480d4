"""Thin wrappers around adaptive quadrature with explicit failure reporting."""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence

import numpy as np
from scipy import integrate


_ABS_FLOOR = 1e-14
_OSC_TOL = 1e-12
_MAX_CYCLES = 20000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                f, a, b, epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=400, points=pts
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(
                f"quadrature on [{a}, {b}] did not converge: {exc}"
            ) from exc
    return val, err


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


def fourier_oscillatory_tail(
    f: Callable[[float], float],
    omega: float,
    kind: str = "cos",
) -> tuple[float, float]:
    """Compute ``int_0^inf f(xi) * cos/sin(omega xi) dxi`` for decaying ``f``.

    Integrates cycle by cycle between zeros of the oscillating weight and
    accelerates the resulting alternating series (QUADPACK's QAWF). The cycle
    budget scales with ``omega`` since the cycles shrink as ``pi / omega``.
    """
    if omega <= 0:
        raise ValueError("oscillation frequency must be positive")
    cycles = min(_MAX_CYCLES, max(80, int(16.0 * omega) + 80))
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                f, 0.0, np.inf, weight=kind, wvar=omega, epsabs=_OSC_TOL, limlst=cycles
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(
                f"oscillatory quadrature (omega={omega}) did not converge: {exc}"
            ) from exc
    return val, err
