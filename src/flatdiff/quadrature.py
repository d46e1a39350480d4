"""Thin wrappers around adaptive quadrature with explicit failure reporting."""

from __future__ import annotations

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
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, inf)`` for ``a > 0``.

    Uses the substitution z -> 1/v, which maps algebraically decaying tails
    onto a finite interval with a mild endpoint singularity.
    """
    if a <= 0:
        raise ValueError("tail integration requires a positive lower limit")

    def g(v: float) -> float:
        z = 1.0 / v
        return f(z) * z * z

    return integrate_interval(g, 0.0, 1.0 / a, rel_tol=rel_tol)


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
