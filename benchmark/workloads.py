"""The benchmark's three workloads, each driving flatdiff's public API.

One iteration is one closed-loop pass by a single caller: ``setup`` (kernel
validation, ``discretize`` and one public apply on the initial state),
``solve`` (``evolve`` with ``workers=1``) and ``check`` (the verification and
oracle calls). A workload whose checks are long splits them into ``slices``
parts, one per iteration; a run then ends on a whole number of passes.
Every call into a flatdiff module goes through the tracer, so a traced run
records a span around it; the untraced runs pay nothing for it.

Why these three:

* ``front``: the acceptance base run at 84 001 nodes. The FFT apply inside
  ``evolve`` takes almost all the time; quadrature and oracles are idle.
* ``tail``: an s = 0.75 kernel with the ``algebraic_tail`` right boundary on
  8001 nodes. Set-up dominates (one QUADPACK call per node builds the far
  shape on the first apply) and the many cheap steps expose per-step costs.
* ``certify``: the residual certificate sample by sample for three kernels
  plus the comparison check on random ordered pairs at n = 128. Adaptive
  quadrature and the direct apply path do the work; the FFT is never used.
  The residual layout is split into ten interleaved slices, one per
  iteration, so that a run holds several iterations. Its ``linf_err`` comes
  from one step-datum solve on the same n = 128 grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

import flatdiff as fd

# evolve's default safety factor; the computed step count assumes it
SAFETY = 0.45
# evolve(method="auto") switches from the direct sum to the FFT at this size
FFT_MIN_N = 512
# the direct apply is O(n^2), about 9 s at n = 84 001: larger grids skip it
DIRECT_PROBE_MAX_N = 20000
# timed calls per snapshot state in the layer probe of a traced iteration
PROBE_REPS = 5


# -- traced wrappers around public calls --------------------------------------


def _mark(span, **attrs) -> None:
    if span is not None:
        span.attrs.update(attrs)


def apply_path(op) -> str:
    return "fft" if op.grid.n >= FFT_MIN_N else "direct"


def validate(tr, spec):
    return tr.call("kernels.validate_hypothesis", fd.validate_hypothesis, spec)


def discretize(tr, spec, grid, boundary, cert, force=False):
    return tr.call(
        "operator.discretize",
        fd.discretize,
        spec,
        grid,
        boundary,
        certificate=cert,
        force=force,
    )


def first_apply(tr, op, u) -> None:
    path = apply_path(op)
    with tr.span("operator.first_apply", path=path):
        op.apply_fft(u) if path == "fft" else op.apply(u)


def computed_steps(op, t0: float, t_final: float, output_times=()) -> int:
    """Step count of ``fd.evolve`` computed from the public ``stable_dt``.

    Follows evolve's schedule: steps of ``stable_dt`` capped by
    ``max(t/2, dt/100)`` near the start and cut short to land on snapshots.
    """
    dt_stable = fd.stable_dt(op, SAFETY)
    t, steps = t0, 0
    for target in sorted({float(s) for s in output_times} | {float(t_final)}):
        while t < target:
            dt = min(dt_stable, max(0.5 * t, 0.01 * dt_stable))
            t = target if t + dt >= target - 1e-15 * max(1.0, abs(target)) else t + dt
            steps += 1
    return steps


def evolve(tr, op, u0, t_final: float, output_times=()):
    with tr.span("evolution.evolve", path=apply_path(op)) as span:
        traj = fd.evolve(op, u0, t_final, output_times, workers=1)
    if span is not None:
        span.attrs["steps"] = computed_steps(op, u0.t, t_final, output_times)
    return traj


def reference(tr, s, a, b, t, x):
    with tr.span("reference.reference_solution", points=int(np.size(x))):
        return fd.reference_solution(s, a, b, t, x)


def linf_check(tr, checks, name, rule, limit, state, sel, s, a, t):
    """Interior L-inf error of ``state`` on ``sel`` against the exact solution.

    ``limit`` is the acceptance threshold, or None where there is none and
    only a finite error is required.
    """
    x = state.grid.points()[sel]

    def run():
        exact = reference(tr, s, a, 0.0, t, x)
        err = float(np.max(np.abs(state.values[sel] - exact)))
        return math.isfinite(err) and (limit is None or err <= limit), err

    return checks.attempt(name, rule, run)


def flattening(tr, checks, traj, spec, window=None) -> None:
    def run():
        rep = tr.call(
            "verification.flattening_ratio",
            fd.flattening_ratio,
            traj,
            spec,
            1.0,
            window,
            a=1.0,
            tol_rel=0.1,
        )
        return rep.passed, rep.measured

    rule = f">= 0.9 kappa a = {0.9 * fd.kappa(spec):.6g}"
    checks.attempt("flattening", rule, run, worse=min)


def probe(tr, op, states) -> None:
    """Time public apply calls and the tail fit on snapshot states.

    Each callable is timed in a loop of its own, so that none of them runs
    with its working set pushed out of cache by another, which the steps of
    ``evolve`` do not do either.
    """
    exponent = 2.0 * op.spec.s
    calls = [("operator.apply_fft", op.apply_fft, lambda u: (u,))]
    if op.grid.n <= DIRECT_PROBE_MAX_N:
        calls.append(("operator.apply", op.apply, lambda u: (u,)))
    calls.append(
        (
            "mesh.fit_tail_amplitude",
            op.boundary.fit_tail_amplitude,
            lambda u: (op.grid, u.values, exponent),
        )
    )
    for name, fn, args in calls:
        for u in states:
            for _ in range(PROBE_REPS):
                tr.call(name, fn, *args(u))


# -- workloads ----------------------------------------------------------------


class Front:
    """Cauchy kernel s = 1/2, 84 001 nodes, zero right boundary, to t = 1."""

    name = "front"
    slices = 1

    def __init__(self, seed: int) -> None:
        # inputs are fixed; the seed only labels the run
        self.spec = fd.pure_fractional(0.5, 1.0 / math.pi, j0=math.pi, j1=1.0, r0=2.0)
        self.grid = fd.Grid(-200.0, 4000.0, 84001)
        self.boundary = fd.BoundaryModel(left_value=1.0)
        self.u0 = fd.InitialDatum.step(1.0, 0.0).sample(self.grid)
        x = self.grid.points()
        self.err_sel = (x >= -150.0) & (x <= 3200.0)

    def setup(self, tr):
        op = discretize(tr, self.spec, self.grid, self.boundary, validate(tr, self.spec))
        first_apply(tr, op, self.u0)
        return op

    def solve(self, tr, op):
        return evolve(tr, op, self.u0, 1.0, (0.25, 0.5))

    def check(self, tr, traj, checks, part) -> float:
        flattening(tr, checks, traj, self.spec, (100.0, 3000.0))

        def halfline():
            rep = tr.call(
                "verification.halfline_bound_check",
                fd.halfline_bound_check,
                traj,
                a=1.0,
                b=0.0,
                tol=0.02,
            )
            return rep.passed and rep.measured >= 0.48, rep.measured

        checks.attempt("halfline", ">= 0.48", halfline, worse=min)
        return linf_check(
            tr, checks, "linf", "<= 5e-3", 5e-3,
            traj.state_at(1.0), self.err_sel, 0.5, 1.0, 1.0,
        )

    def probe(self, tr, traj) -> None:
        probe(tr, traj.operator, traj.states)


def fractional_laplacian_amplitude(s: float) -> float:
    """``A`` with ``A |z|^(-1-2s)`` the kernel of the fractional Laplacian."""
    return 4.0**s * special.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(special.gamma(-s)))


def tail_spec():
    a = fractional_laplacian_amplitude(0.75)
    return fd.pure_fractional(0.75, a, j0=1.0 / a, j1=2.0 * a, r0=2.0)


class Tail:
    """s = 0.75 fractional Laplacian, 8001 nodes, algebraic-tail boundary."""

    name = "tail"
    slices = 1

    def __init__(self, seed: int) -> None:
        self.spec = tail_spec()
        self.grid = fd.Grid(-50.0, 350.0, 8001)
        self.boundary = fd.BoundaryModel(left_value=1.0, right="algebraic_tail")
        self.u0 = fd.InitialDatum.step(1.0, 0.0).sample(self.grid)
        x = self.grid.points()
        # every sixth node strictly inside (-20, 100): 400 oracle points
        inner = np.nonzero((x > -20.0) & (x < 100.0))[0][::6]
        self.err_sel = np.zeros(self.grid.n, dtype=bool)
        self.err_sel[inner] = True

    def setup(self, tr):
        op = discretize(tr, self.spec, self.grid, self.boundary, validate(tr, self.spec))
        first_apply(tr, op, self.u0)
        return op

    def solve(self, tr, op):
        return evolve(tr, op, self.u0, 1.0)

    def check(self, tr, traj, checks, part) -> float:
        err = linf_check(
            tr, checks, "linf", "finite (no acceptance threshold)", None,
            traj.state_at(1.0), self.err_sel, 0.75, 1.0, 1.0,
        )
        flattening(tr, checks, traj, self.spec)
        return err

    def probe(self, tr, traj) -> None:
        probe(tr, traj.operator, traj.states)


@dataclass
class CertifySetup:
    kernels: list  # (tag, spec, SubsolutionParams) for the residual certificate
    ops: list  # comparison operators, one per family


class Certify:
    """Residual certificate on the c = 2 layout, comparison check at n = 128.

    The comparison pairs are drawn from the seed; nothing else depends on it.
    """

    name = "certify"
    slices = 10  # divides LAYOUT, so every slice holds the same share of it
    PAIRS = 20  # ordered pairs per comparison family
    LAYOUT = 20  # times and positions per residual kernel, as criterion 05

    def __init__(self, seed: int) -> None:
        unit = fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)
        compact = fd.compact_plus_tail(
            1.0, 1.0, near_profile="flat", near_scale=1.0, j0=1.0, j1=1.0, r0=2.0
        )
        truncated = fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0)
        self.residual_kernels = [("s05", unit), ("s075", tail_spec()), ("s1", compact)]
        self.families = [(unit, False), (truncated, True), (compact, False)]
        self.grid = fd.Grid(-10.0, 10.0, 128)
        self.boundary = fd.BoundaryModel(left_value=0.5)
        rng = np.random.default_rng(seed)
        self.pairs = []
        for _ in self.families:
            fam = []
            for _ in range(self.PAIRS):
                lower = rng.uniform(0.0, 1.0, self.grid.n)
                upper = lower + rng.uniform(0.0, 1.0, self.grid.n)
                fam.append((fd.Field(self.grid, 0.0, upper), fd.Field(self.grid, 0.0, lower)))
            self.pairs.append(fam)
        # the unit kernel is pi times the Cauchy kernel, so its step solution
        # is the closed-form s = 1/2 reference at time pi * t
        self.step0 = fd.InitialDatum.step(0.5, 0.0).sample(self.grid)
        x = self.grid.points()
        self.err_sel = (x > -5.0) & (x < 5.0)

    def setup(self, tr) -> CertifySetup:
        certs = {}
        kernels = []
        for tag, spec in self.residual_kernels:
            certs[spec] = validate(tr, spec)
            params = fd.SubsolutionParams.from_kernel(spec, c=2.0)
            kernels.append((tag, spec, params))
        ops = []
        for spec, force in self.families:
            cert = certs.get(spec) or validate(tr, spec)
            ops.append(discretize(tr, spec, self.grid, self.boundary, cert, force=force))
        for op, fam in zip(ops, self.pairs):
            first_apply(tr, op, fam[0][0])
        return CertifySetup(kernels, ops)

    def solve(self, tr, st: CertifySetup):
        trajs = [
            [
                (evolve(tr, op, up, 0.2, (0.1,)), evolve(tr, op, lo, 0.2, (0.1,)))
                for up, lo in fam
            ]
            for op, fam in zip(st.ops, self.pairs)
        ]
        step = evolve(tr, st.ops[0], self.step0, 0.2, (0.1,))
        return st, trajs, step

    def check(self, tr, solved, checks, part) -> float:
        """Residual samples of slice ``part``, every comparison pair, linf.

        Sample ``(i, j)`` of the layout (time ``i``, position ``j``) belongs
        to slice ``(i + j) % slices``: each slice holds every time and every
        position equally often.
        """
        st, trajs, step = solved
        for tag, spec, params in st.kernels:
            x_lo = params.r0 + params.r_star
            times = params.t_star * np.arange(1, self.LAYOUT + 1) / (self.LAYOUT + 1)
            for i, t in enumerate(times):
                for j, x in enumerate(np.linspace(x_lo, 200.0, self.LAYOUT)):
                    if (i + j) % self.slices != part:
                        continue
                    checks.attempt(
                        f"residual.{tag}",
                        "residual <= budget",
                        lambda: _residual(tr, tag, spec, params, float(t), float(x)),
                    )
        for fam in trajs:
            for upper, lower in fam:
                checks.attempt(
                    "comparison",
                    "margin >= -1e-12",
                    lambda: _comparison(tr, upper, lower),
                    worse=min,
                )
        return linf_check(
            tr, checks, "linf", "finite (no acceptance threshold)", None,
            step.state_at(0.2), self.err_sel, 0.5, 0.5, math.pi * 0.2,
        )

    def probe(self, tr, solved) -> None:
        st, trajs, _ = solved
        for op, fam in zip(st.ops, trajs):
            upper, lower = fam[0]
            probe(tr, op, upper.states + lower.states)


def _residual(tr, tag, spec, params, t, x):
    with tr.span("subsolution.residual_certificate", tag=tag) as span:
        try:
            sample = fd.residual_certificate(spec, params, t, x)
        except fd.QuadratureError:
            _mark(span, outcome="raised")
            raise
    _mark(span, outcome="passed" if sample.passed else "not_passed")
    return sample.passed, sample.residual - sample.budget


def _comparison(tr, upper, lower):
    rep = tr.call(
        "evolution.discrete_comparison_check",
        fd.discrete_comparison_check,
        upper,
        lower,
        tol=1e-12,
    )
    return rep.passed and rep.margin >= -1e-12, rep.margin


WORKLOADS = {w.name: w for w in (Front, Tail, Certify)}
