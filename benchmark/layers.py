"""Every benchmark metric is computed here, from iteration records and spans.

``Checks`` counts the checked operations and their failures. End-to-end
metrics come from the untraced iterations: each is the median over the
iterations of one run. Per-layer metrics come from the spans of
the traced iterations. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

# percentiles a timing may report besides the median, highest first
TAIL_LEVELS = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

PHASES = ("setup", "solve", "check")


def tail_level(n: int) -> float | None:
    """Highest level in ``TAIL_LEVELS`` with ``MIN_BEYOND`` samples above it."""
    for q in TAIL_LEVELS:
        if n - math.ceil(q * n / 100.0) >= MIN_BEYOND:
            return q
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` % at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def summary(values) -> dict:
    """Median, highest percentile with ten samples beyond it, sample count."""
    vals = list(values)
    out = {"count": len(vals), "p50": statistics.median(vals)}
    q = tail_level(len(vals))
    if q is not None:
        out[f"p{q:g}".replace(".", "_")] = percentile(vals, q)
    return out


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


@dataclass
class CheckTally:
    rule: str
    attempted: int = 0
    passed: int = 0
    not_passed: int = 0
    raised: dict = field(default_factory=lambda: defaultdict(int))
    worst: float = math.nan


class Checks:
    """Counts every checked operation; a failure is counted, never raised.

    An operation fails when it raises or when its result misses the
    threshold. Only a missed threshold is a wrong answer; a raise means the
    program gave no answer for that operation.
    """

    def __init__(self) -> None:
        self.tallies: dict[str, CheckTally] = {}

    def attempt(self, name: str, rule: str, fn, worse=max) -> float:
        """Run ``fn() -> (passed, measured)``, tally it, return ``measured``.

        Returns NaN when ``fn`` raised.
        """
        tally = self.tallies.setdefault(name, CheckTally(rule))
        tally.attempted += 1
        try:
            passed, measured = fn()
        except Exception as exc:  # one failed operation must not end the run
            if not tally.raised:
                traceback.print_exception(exc, file=sys.stderr)
            tally.raised[type(exc).__name__] += 1
            return math.nan
        if passed:
            tally.passed += 1
        else:
            tally.not_passed += 1
        measured = float(measured)
        tally.worst = measured if math.isnan(tally.worst) else worse(tally.worst, measured)
        return measured

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.attempted - t.passed for t in self.tallies.values())

    @property
    def wrong(self) -> int:
        return sum(t.not_passed for t in self.tallies.values())

    def lines(self, workload: str) -> list[str]:
        out = []
        for name, t in self.tallies.items():
            raised = ", ".join(f"{k} x{v}" for k, v in sorted(t.raised.items()))
            out.append(
                f"check {workload}.{name}: {t.passed}/{t.attempted} passed"
                f" (not passed {t.not_passed}; raised {raised or 0});"
                f" worst {t.worst:.6g}; rule {t.rule}"
            )
        return out


def end_to_end(iterations: list[dict], samples: dict, checks, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, by name.

    ``samples`` maps each phase timing to its samples, which may outnumber
    the iterations where a cheap phase was repeated.
    """
    return {
        **{name: statistics.median(values) for name, values in samples.items()},
        "linf_err": statistics.median(it["linf_err"] for it in iterations),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": 1.0 - checks.failed / checks.attempted,
    }


def _roots(spans) -> dict[int, int]:
    """Span id -> id of its top-level ancestor."""
    root = {}
    for s in spans:  # parents are recorded before their children
        root[s.id] = s.id if s.parent is None else root[s.parent]
    return root


def per_layer(
    spans, untraced_totals: list[float], traced_totals: list[float], slices: int = 1
) -> dict:
    """Per-layer metrics of one traced run, by name, each ``(value, unit)``.

    Sums are taken per iteration and reported as the median over the traced
    iterations; single-call timings pool every call of the run. Certificate
    outcomes are counted per pass of ``slices`` iterations. The two totals
    lists are paired: entry ``k`` of each ran the same slice back to back.
    """
    if len(untraced_totals) != len(traced_totals):
        raise ValueError("untraced and traced totals must pair up")
    root = _roots(spans)
    selft = self_times(spans)
    iters = [s for s in spans if s.name == "iteration"]
    members = defaultdict(list)
    for s in spans:
        members[root[s.id]].append(s)
    calls = defaultdict(list)
    for s in spans:
        calls[s.name].append(s)

    def ms(name):
        return statistics.median(s.duration * 1e3 for s in calls[name])

    apply_ms = {
        path: ms(name)
        for path, name in (("fft", "operator.apply_fft"), ("direct", "operator.apply"))
        if calls[name]
    }

    rows = defaultdict(list)
    for it in iters:
        busy = defaultdict(float)
        for s in members[it.id]:
            busy[s.name] += s.duration
        evolves = [s for s in members[it.id] if s.name == "evolution.evolve"]
        steps = sum(s.attrs["steps"] for s in evolves)
        apply_time = sum(s.attrs["steps"] * apply_ms[s.attrs["path"]] / 1e3 for s in evolves)
        rows["kernels.validate_s"].append(busy["kernels.validate_hypothesis"])
        rows["operator.discretize_s"].append(busy["operator.discretize"])
        rows["operator.first_apply_s"].append(busy["operator.first_apply"])
        rows["evolution.evolve_s"].append(busy["evolution.evolve"])
        rows["evolution.steps_computed"].append(steps)
        rows["evolution.step_ms"].append(busy["evolution.evolve"] / steps * 1e3)
        rows["evolution.non_apply_share"].append(1.0 - apply_time / busy["evolution.evolve"])
        rows["reference.points"].append(
            sum(s.attrs["points"] for s in members[it.id] if s.name == "reference.reference_solution")
        )
        rows["reference.eval_s"].append(busy["reference.reference_solution"])
        rows["bench.self_s"].append(
            sum(selft[s.id] for s in members[it.id] if s.name in PHASES)
        )
        for name, metric in (
            ("verification.flattening_ratio", "verification.flattening_s"),
            ("verification.halfline_bound_check", "verification.halfline_s"),
            ("evolution.discrete_comparison_check", "evolution.comparison_s"),
        ):
            if calls[name]:
                rows[metric].append(busy[name])

    units = {"evolution.steps_computed": "count", "reference.points": "count",
             "evolution.non_apply_share": "1", "evolution.step_ms": "ms"}
    out = {k: (statistics.median(v), units.get(k, "s")) for k, v in rows.items()}
    for path, value in apply_ms.items():
        out[f"operator.apply_{path}_ms"] = (value, "ms")
    out["mesh.fit_tail_ms"] = (ms("mesh.fit_tail_amplitude"), "ms")
    out.update(_residual_metrics(calls["subsolution.residual_certificate"], len(iters) / slices))
    out["trace.overhead_s"] = (
        statistics.median(t - u for u, t in zip(untraced_totals, traced_totals)),
        "s",
    )
    return dict(sorted(out.items()))


def _residual_metrics(samples, passes: float) -> dict:
    if not samples:
        return {}
    out = {}
    by_tag = defaultdict(list)
    for s in samples:
        by_tag[s.attrs["tag"]].append(s)
    for tag, spans in sorted(by_tag.items()):
        for key, value in summary(s.duration * 1e3 for s in spans).items():
            unit = "count" if key == "count" else "ms"
            out[f"subsolution.residual_ms.{tag}.{key}"] = (value, unit)
    outcomes = defaultdict(int)
    for s in samples:
        outcomes[s.attrs["outcome"]] += 1
    out["subsolution.quad_failed"] = (outcomes["raised"] / passes, "count")
    out["subsolution.not_passed"] = (outcomes["not_passed"] / passes, "count")
    out["subsolution.certified_frac"] = (outcomes["passed"] / len(samples), "1")
    return out
