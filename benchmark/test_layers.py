"""Tests of the benchmark's metric code.

    python3 -m pytest benchmark/test_layers.py
"""

import math
import statistics

import pytest

import layers
from spans import NullTracer, Span, Tracer


def mk(id, name, parent, start, end, **attrs):
    return Span(id, name, parent, start, end, attrs)


def test_tail_level_needs_ten_samples_beyond():
    assert layers.tail_level(19) is None
    assert layers.tail_level(20) is None
    assert layers.tail_level(40) == 75.0
    assert layers.tail_level(100) == 90.0
    assert layers.tail_level(400) == 97.5
    assert layers.tail_level(1000) == 99.0
    assert layers.tail_level(10000) == 99.9


def test_summary_reports_median_tail_and_count():
    values = list(range(1, 401))
    out = layers.summary(values)
    assert out["count"] == 400
    assert out["p50"] == 200.5
    # nearest rank 390 of 400 leaves exactly ten samples above it
    assert out["p97_5"] == 390
    assert sum(v > out["p97_5"] for v in values) == 10
    assert layers.summary([3.0, 1.0, 2.0]) == {"count": 3, "p50": 2.0}


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 12.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert layers.spread(values) == pytest.approx((q3 - q1) / med)


def test_self_time_subtracts_union_of_children():
    spans = [
        mk(0, "parent", None, 0.0, 10.0),
        mk(1, "a", 0, 1.0, 4.0),
        mk(2, "b", 0, 3.0, 5.0),  # overlaps a: union [1, 5] covers 4
        mk(3, "c", 0, 9.0, 12.0),  # runs past the parent: only [9, 10] counts
        mk(4, "grandchild", 1, 1.5, 2.0),
    ]
    st = layers.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 0.5)
    assert st[4] == pytest.approx(0.5)


def test_checks_count_failures_without_raising():
    checks = layers.Checks()
    assert checks.attempt("ok", "rule", lambda: (True, 1.0)) == 1.0
    checks.attempt("ok", "rule", lambda: (False, 3.0))
    assert math.isnan(checks.attempt("ok", "rule", lambda: 1 / 0))
    checks.attempt("other", "rule", lambda: (True, -2.0), worse=min)
    assert checks.attempted == 4
    assert checks.failed == 2
    assert checks.wrong == 1
    tally = checks.tallies["ok"]
    assert tally.worst == 3.0
    assert dict(tally.raised) == {"ZeroDivisionError": 1}
    assert "1/3 passed" in checks.lines("w")[0]


def test_end_to_end_medians_and_passed_fraction():
    its = [
        {"setup_s": 1.0, "solve_s": 2.0, "check_s": 0.5, "total_s": 3.5, "linf_err": 1e-3},
        {"setup_s": 3.0, "solve_s": 4.0, "check_s": 0.7, "total_s": 7.7, "linf_err": 1e-3},
        {"setup_s": 2.0, "solve_s": 3.0, "check_s": 0.6, "total_s": 5.6, "linf_err": 1e-3},
    ]
    checks = layers.Checks()
    for passed in (True, True, True, False):
        checks.attempt("c", "rule", lambda: (passed, 0.0))
    samples = {k: [it[k] for it in its] for k in ("setup_s", "solve_s", "check_s", "total_s")}
    samples["setup_s"] += [0.5, 0.7]
    out = layers.end_to_end(its, samples, checks, 100.0)
    assert out["setup_s"] == 1.0
    assert out["solve_s"] == 3.0
    assert out["check_s"] == 0.6
    assert out["total_s"] == 5.6
    assert out["passed_frac"] == 0.75
    assert out["peak_rss_mb"] == 100.0


def traced_iteration(base, id0):
    """One iteration span tree with known durations, starting at ``base``."""
    return [
        mk(id0, "iteration", None, base, base + 10.0),
        mk(id0 + 1, "setup", id0, base, base + 2.0),
        mk(id0 + 2, "kernels.validate_hypothesis", id0 + 1, base, base + 0.5),
        mk(id0 + 3, "operator.discretize", id0 + 1, base + 0.5, base + 1.0),
        mk(id0 + 4, "operator.first_apply", id0 + 1, base + 1.0, base + 1.5, path="fft"),
        mk(id0 + 5, "solve", id0, base + 2.0, base + 6.0),
        mk(id0 + 6, "evolution.evolve", id0 + 5, base + 2.0, base + 6.0, path="fft", steps=100),
        mk(id0 + 7, "check", id0, base + 6.0, base + 8.0),
        mk(id0 + 8, "reference.reference_solution", id0 + 7, base + 6.0, base + 6.5, points=400),
        mk(id0 + 9, "subsolution.residual_certificate", id0 + 7, base + 6.5, base + 6.51,
           tag="s1", outcome="passed"),
        mk(id0 + 10, "subsolution.residual_certificate", id0 + 7, base + 6.6, base + 6.63,
           tag="s1", outcome="raised"),
        mk(id0 + 11, "probe", id0, base + 8.0, base + 10.0),
        mk(id0 + 12, "operator.apply_fft", id0 + 11, base + 8.0, base + 8.03),
        mk(id0 + 13, "mesh.fit_tail_amplitude", id0 + 11, base + 8.5, base + 8.502),
    ]


def test_per_layer_from_spans():
    spans = traced_iteration(0.0, 0) + traced_iteration(100.0, 14)
    # paired overheads 1.5 and 0.5
    out = layers.per_layer(spans, [5.0, 6.0], [6.5, 6.5])
    value = {k: v[0] for k, v in out.items()}
    assert value["kernels.validate_s"] == pytest.approx(0.5)
    assert value["operator.discretize_s"] == pytest.approx(0.5)
    assert value["operator.first_apply_s"] == pytest.approx(0.5)
    assert value["operator.apply_fft_ms"] == pytest.approx(30.0)
    assert "operator.apply_direct_ms" not in value
    assert value["mesh.fit_tail_ms"] == pytest.approx(2.0)
    assert value["evolution.evolve_s"] == pytest.approx(4.0)
    assert value["evolution.steps_computed"] == 100
    assert value["evolution.step_ms"] == pytest.approx(40.0)
    # 100 steps of a 30 ms apply cover 3 of the 4 evolve seconds
    assert value["evolution.non_apply_share"] == pytest.approx(0.25)
    assert value["reference.points"] == 400
    assert value["reference.eval_s"] == pytest.approx(0.5)
    # setup 2.0 - 1.5 covered, solve fully covered, check 2.0 - 0.54 covered
    assert value["bench.self_s"] == pytest.approx(0.5 + 0.0 + 1.46)
    assert value["subsolution.residual_ms.s1.count"] == 4
    assert value["subsolution.residual_ms.s1.p50"] == pytest.approx(20.0)
    assert value["subsolution.quad_failed"] == 1
    assert value["subsolution.not_passed"] == 0
    assert value["subsolution.certified_frac"] == 0.5
    assert value["trace.overhead_s"] == pytest.approx(1.0)
    assert out["evolution.steps_computed"][1] == "count"
    assert "verification.flattening_s" not in value


def test_per_layer_counts_certificate_outcomes_per_pass():
    spans = traced_iteration(0.0, 0) + traced_iteration(100.0, 14)
    # two iterations of two slices each make one pass, with two raises in it
    value = {k: v[0] for k, v in layers.per_layer(spans, [5.0, 6.0], [6.5, 6.5], 2).items()}
    assert value["subsolution.quad_failed"] == 2
    with pytest.raises(ValueError):
        layers.per_layer(spans, [5.0], [6.5, 6.5])


def test_tracer_nests_spans_and_null_tracer_records_nothing(tmp_path):
    tr = Tracer()
    with tr.span("outer"):
        assert tr.call("inner", math.sqrt, 4.0) == 2.0
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("inner", 0)]
    assert all(s.end >= s.start for s in tr.spans)
    tr.dump(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2

    null = NullTracer()
    with null.span("outer") as span:
        assert span is None
        assert null.call("inner", math.sqrt, 9.0) == 3.0
