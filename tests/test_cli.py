"""End-to-end command line runs: artifacts, exit codes, determinism."""

import dataclasses
import json
import logging
import math
import re
from pathlib import Path

import pytest

from flatdiff import subsolution, verification
from flatdiff.cli import EXIT_CONFIG, build_parser, main

CAUCHY_KERNEL = {
    "family": "pure_fractional",
    "s": 0.5,
    "amplitude": 1.0 / math.pi,
    "j0": math.pi,
    "j1": 1.0,
    "r0": 2.0,
}
UNIT_KERNEL = {
    "family": "pure_fractional",
    "s": 0.5,
    "amplitude": 1.0,
    "j0": 1.0,
    "j1": 1.0,
    "r0": 2.0,
}


def write_config(tmp_path, name="config.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections, indent=2))
    return str(path)


def base_config(tmp_path, **overrides):
    sections = {
        "kernel": CAUCHY_KERNEL,
        "grid": {"x_min": -40.0, "x_max": 40.0, "n": 401},
        "initial": {"kind": "step", "a": 1.0, "b": 0.0},
        "times": {"t_final": 0.5, "snapshots": [0.25]},
    }
    sections.update(overrides)
    return write_config(tmp_path, **sections)


def read_reports(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_csv_and_metadata(tmp_path):
    cfg = base_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 3 * 401
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -40.0 and float(first[2]) == 1.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["package_version"]
    assert meta["derived"]["snapshot_times"] == [0.0, 0.25, 0.5]
    certificate = meta["derived"]["kernel_certificate"]
    assert certificate["verified"] is True
    assert set(certificate) == {"verified", "upper_margin", "lower_margin", "near_moment"}
    assert meta["derived"]["h"] == pytest.approx(0.2, rel=1e-14)
    # every step runs at least two Euler stages, one apply each
    steps, applies = meta["derived"]["steps"], meta["derived"]["applies"]
    assert isinstance(steps, int) and isinstance(applies, int)
    assert 0 < 2 * steps <= applies
    # the run record: step range and the most stages one step took
    derived = meta["derived"]
    assert 0.0 < derived["dt_min"] <= derived["dt_max"] <= 0.25
    assert isinstance(derived["k_max"], int)
    assert 2 <= derived["k_max"] and applies <= steps * derived["k_max"]
    assert derived["apply_path"] == "fft"
    assert derived["tail_fallbacks"] == 0
    # the FFT torus: p x q cells for the 2n - 1 of the circulant product
    p, q = derived["fft_shape"]
    assert isinstance(p, int) and isinstance(q, int) and p * q >= 2 * 401 - 1
    assert not (out / "trajectory.json").exists()


def test_simulate_logs_the_run_record_under_verbose(tmp_path, caplog):
    cfg = base_config(tmp_path, grid={"x_min": -10.0, "x_max": 10.0, "n": 128})
    out = tmp_path / "run"
    with caplog.at_level(logging.DEBUG, logger="flatdiff"):
        assert main(["simulate", "--config", cfg, "--out", str(out), "-v"]) == 0
    derived = json.loads((out / "metadata.json").read_text())["derived"]
    assert derived["apply_path"] == "direct"
    assert derived["fft_shape"] is None
    records = [r for r in caplog.records if r.getMessage().startswith("run record")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert message.startswith("run record: direct apply path, fft shape none,")
    assert f"{derived['steps']} steps, {derived['applies']} applies" in message
    assert f"{derived['tail_fallbacks']} tail fallbacks" in message
    assert f"dt in [{derived['dt_min']:.6g}, {derived['dt_max']:.6g}]" in message


def test_simulate_records_tail_fallbacks(tmp_path, caplog):
    # the step is 0 over the algebraic tail's fit window at the start
    cfg = base_config(
        tmp_path,
        grid={"x_min": -10.0, "x_max": 10.0, "n": 128},
        boundary={"left_value": 1.0, "right": "algebraic_tail"},
    )
    out = tmp_path / "run"
    with caplog.at_level(logging.DEBUG, logger="flatdiff"):
        assert main(["simulate", "--config", cfg, "--out", str(out), "-v"]) == 0
    derived = json.loads((out / "metadata.json").read_text())["derived"]
    fallbacks = derived["tail_fallbacks"]
    assert isinstance(fallbacks, int) and 1 <= fallbacks < derived["applies"]
    [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("run record")]
    assert f"{derived['applies']} applies, {fallbacks} tail fallbacks," in message


def test_simulate_format_variants(tmp_path):
    cfg = base_config(tmp_path, times={"t_final": 0.0})
    out_json = tmp_path / "json_run"
    assert main(["simulate", "--config", cfg, "--out", str(out_json),
                 "--format", "json"]) == 0
    payload = json.loads((out_json / "trajectory.json").read_text())
    assert len(payload) == 1 and payload[0]["t"] == 0.0
    assert not (out_json / "trajectory.csv").exists()
    derived = json.loads((out_json / "metadata.json").read_text())["derived"]
    assert [derived[k] for k in ("steps", "dt_min", "dt_max", "k_max")] == [0, 0.0, 0.0, 0]

    out_both = tmp_path / "both_run"
    assert main(["simulate", "--config", cfg, "--out", str(out_both),
                 "--format", "both"]) == 0
    assert (out_both / "trajectory.csv").exists()
    assert (out_both / "trajectory.json").exists()


def test_simulate_is_deterministic(tmp_path):
    cfg = base_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "metadata.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- config validation -------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = base_config(tmp_path, extra={"x": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    kernel = dict(CAUCHY_KERNEL, flux=3.0)
    cfg = base_config(tmp_path, kernel=kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_and_malformed_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


MALFORMED = [
    ("kernel.s", None, "config.kernel.s must be a number"),
    ("kernel.s", "0.5", "config.kernel.s must be a number"),
    ("times.snapshots", 5, "config.times.snapshots must be a list"),
    ("checks.flattening.window", 5, "config.checks.flattening.window must be a pair"),
    ("solver.startup_ramp", "false", "['startup_ramp'] in config.solver"),
    ("grid.n", 401.7, "config.grid.n must be an integer"),
    ("checks.mirror.grid.x_mid", 0.0, "['x_mid'] in config.checks.mirror.grid"),
    ("checks.subsolution.samples", 4, "['samples'] in config.checks.subsolution"),
    ("bench.warmup", 1, "['warmup'] in config.bench"),
    ("output.compress", True, "['compress'] in config.output"),
    ("solver.method", "fft", "['method'] in config.solver"),
    ("output.format", "xml", "config.output.format must be one of csv, json, both"),
    ("times.t_final", float("nan"), "config.times.t_final must be finite"),
    ("times.t_final", float("inf"), "config.times.t_final must be finite"),
    ("checks.subsolution.x_max", float("inf"), "config.checks.subsolution.x_max must be finite"),
    ("times.t_final", 10**400, "config.times.t_final must be finite"),
]


@pytest.mark.parametrize(
    "key, value, message",
    MALFORMED,
    ids=[f"{k}={v!r}" if len(repr(v)) <= 40 else f"{k}=<{len(repr(v))} digits>"
         for k, v, _ in MALFORMED],
)
def test_malformed_value_exits_2_naming_its_path(tmp_path, caplog, key, value, message):
    sections = json.loads(Path(base_config(tmp_path)).read_text())
    *parents, leaf = key.split(".")
    section = sections
    for name in parents:
        section = section.setdefault(name, {})
    section[leaf] = value
    cfg = write_config(tmp_path, "malformed.json", **sections)
    assert main(["verify-flattening", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in caplog.text


@pytest.mark.parametrize("command", ["simulate", "reference-compare"])
@pytest.mark.parametrize("safety", [0.0, 1.5])
def test_safety_outside_the_unit_interval_exits_2(tmp_path, caplog, command, safety):
    cfg = base_config(tmp_path, solver={"safety": safety})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "solver safety must lie in (0, 1]" in caplog.text


@pytest.mark.parametrize(
    "command, flag",
    [("simulate", "--seed=3"), ("verify-flattening", "--format=json"),
     ("reference-compare", "--seed=3"), ("bench", "--format=csv")],
)
def test_flag_of_another_subcommand_fails_argparse(tmp_path, command, flag):
    cfg = base_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_format_is_a_simulate_flag_and_seed_a_bench_flag():
    parser = build_parser()
    assert parser.parse_args(["simulate", "--config", "c", "--format=json"]).format == "json"
    assert parser.parse_args(["bench", "--config", "c", "--seed=3"]).seed == 3


def test_unknown_kernel_family_rejected(tmp_path):
    kernel = dict(CAUCHY_KERNEL, family="levy_flight")
    cfg = base_config(tmp_path, kernel=kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


FOREIGN_KEYS = [
    ("pure_fractional", {"cutoff": 5.0, "near_profile": "triangle"}, "cutoff"),
    ("pure_fractional", {"near_scale": 1.0}, "near_scale"),
    ("truncated_fractional", {"cutoff": 5.0, "near_profile": "flat"}, "near_profile"),
    ("compact_plus_tail", {"cutoff": 5.0}, "cutoff"),
]


@pytest.mark.parametrize(
    "family, extra, key", FOREIGN_KEYS, ids=[f"{f}+{k}" for f, _, k in FOREIGN_KEYS]
)
def test_kernel_key_of_another_family_exits_2_naming_its_path(
    tmp_path, caplog, family, extra, key
):
    # such a key used to be dropped, and the run simulated another kernel
    kernel = dict(UNIT_KERNEL, family=family, **extra)
    cfg = base_config(tmp_path, kernel=kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config.kernel.{key} does not apply to family {family!r}" in caplog.text


def test_mollifier_radius_on_a_step_datum_exits_2_naming_its_path(tmp_path, caplog):
    # a step datum used to drop eps, and the run took the unmollified edge
    initial = {"kind": "step", "a": 1.0, "b": 0.0, "eps": 0.5}
    cfg = base_config(tmp_path, initial=initial)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config.initial.eps" in caplog.text


def test_right_value_under_another_boundary_model_exits_2(tmp_path, caplog):
    # right_value belongs to the constant model; a zero model extends by 0
    # whatever it says, so the run would not be the one the config describes
    boundary = {"right": "zero", "right_value": 0.3}
    cfg = base_config(tmp_path, boundary=boundary)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "takes no right_value" in caplog.text
    assert "config.boundary.right_value" in caplog.text


@pytest.mark.parametrize(
    "boundary, key",
    [
        ({"left_value": -1.0}, "left_value"),
        ({"right": "mirror"}, "right"),
        ({"right": "constant", "right_value": -0.5}, "right_value"),
        # keys are checked in the order BoundaryModel reads them, whatever
        # their order in the file
        ({"right_value": 0.3, "right": "constant"}, None),
    ],
)
def test_boundary_error_names_its_config_key(tmp_path, caplog, boundary, key):
    cfg = base_config(tmp_path, boundary=boundary)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    if key is None:
        assert code == 0
    else:
        assert code == 2
        assert f"config.boundary.{key}:" in caplog.text


def test_hypothesis_violating_kernel_rejected(tmp_path):
    kernel = dict(UNIT_KERNEL, j0=0.5)
    cfg = base_config(tmp_path, kernel=kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_far_truncated_kernel_rejected_naming_its_cutoff(tmp_path, caplog):
    # J = 0 beyond the cutoff, so the lower envelope fails however far out
    kernel = {"family": "truncated_fractional", "s": 0.75, "amplitude": 1.0,
              "cutoff": 1000.0, "j0": 1.0, "j1": 3.0, "r0": 2.0}
    cfg = base_config(tmp_path, kernel=kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "cutoff=1000" in caplog.text
    assert "failed admissibility validation" in caplog.text


# -- verify subcommands ------------------------------------------------------


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.DOTALL)
    cfg = write_config(tmp_path, "readme.json", **json.loads(example.group(1)))
    out = tmp_path / "readme"
    assert main(["verify-flattening", "--config", cfg, "--out", str(out)]) == 0
    rep = read_reports(out)[0]
    assert rep["bound"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert rep["measured"] == pytest.approx(1.0 / math.pi, rel=0.02)


def test_verify_flattening_report(tmp_path):
    cfg = base_config(tmp_path, checks={"flattening": {"t": 0.5}})
    out = tmp_path / "flat"
    assert main(["verify-flattening", "--config", cfg, "--out", str(out)]) == 0
    reports = read_reports(out)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["check"] == "flattening_ratio"
    assert rep["pass"] is True
    assert rep["bound"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert 0.29 < rep["measured"] < 0.3184
    assert rep["details"]["window"][0] == pytest.approx(25.0)


def test_verify_flattening_at_a_time_between_snapshots(tmp_path):
    cfg = base_config(tmp_path, checks={"flattening": {"t": 0.3}})
    out = tmp_path / "flat"
    assert main(["verify-flattening", "--config", cfg, "--out", str(out)]) == 0
    assert read_reports(out)[0]["worst_t"] == 0.3


@pytest.mark.parametrize("t", [0.7, 0.0, -0.3])
def test_verify_flattening_time_outside_the_run_exits_2(tmp_path, caplog, t):
    cfg = base_config(tmp_path, checks={"flattening": {"t": t}})
    assert main(["verify-flattening", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config.checks.flattening.t" in caplog.text


def test_verify_proposition_reports(tmp_path):
    cfg = base_config(
        tmp_path,
        checks={
            "halfline": {"tol": 0.02},
            "mirror": {
                "eps": 0.5,
                "t_final": 0.25,
                "tol": 0.02,
                "grid": {"x_min": -20.0, "x_max": 20.0, "n": 101},
            },
        },
    )
    out = tmp_path / "prop"
    assert main(["verify-proposition", "--config", cfg, "--out", str(out)]) == 0
    reports = read_reports(out)
    assert [r["check"] for r in reports] == ["halfline_lower_bound", "mirror_identity"]
    assert all(r["pass"] for r in reports)
    assert reports[0]["measured"] > 0.5
    assert reports[1]["measured"] <= 1e-12


def test_verify_proposition_on_a_mollified_step(tmp_path):
    initial = {"kind": "mollified_step", "a": 1.0, "b": 0.0, "eps": 0.5}
    cfg = base_config(
        tmp_path,
        initial=initial,
        checks={
            "mirror": {
                "t_final": 0.25,
                "grid": {"x_min": -20.0, "x_max": 20.0, "n": 101},
            }
        },
    )
    out = tmp_path / "prop_mollified"
    assert main(["verify-proposition", "--config", cfg, "--out", str(out)]) == 0
    halfline = read_reports(out)[0]
    assert halfline["check"] == "halfline_lower_bound" and halfline["pass"] is True
    # the plateau is guaranteed only left of b - eps
    assert halfline["details"]["b"] == -0.5
    assert halfline["worst_x"] < -0.5


def test_verify_proposition_failing_check_exits_1(tmp_path):
    cfg = base_config(
        tmp_path,
        checks={
            "mirror": {
                "eps": 0.5,
                "t_final": 0.25,
                "tol": 1e-20,
                "grid": {"x_min": -20.0, "x_max": 20.0, "n": 101},
            }
        },
    )
    out = tmp_path / "prop_fail"
    assert main(["verify-proposition", "--config", cfg, "--out", str(out)]) == 1
    reports = read_reports(out)
    assert reports[0]["pass"] is True
    assert reports[1]["pass"] is False


def test_verify_proposition_mirror_run_takes_the_solver_section(tmp_path, monkeypatch):
    # the mirror defect does not show which safety ran, so record the
    # keywords the mirror check's own evolve receives instead
    seen = []
    real_evolve = verification.evolve

    def recording_evolve(*args, **kwargs):
        seen.append(kwargs)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(verification, "evolve", recording_evolve)
    cfg = base_config(
        tmp_path,
        solver={"safety": 0.3},
        checks={"mirror": {"eps": 0.5, "t_final": 0.25}},
    )
    out = tmp_path / "prop_solver"
    assert main(["verify-proposition", "--config", cfg, "--out", str(out)]) == 0
    assert len(seen) == 1
    assert seen[0]["safety"] == 0.3


def test_verify_subsolution_report(tmp_path):
    cfg = write_config(
        tmp_path,
        kernel=UNIT_KERNEL,
        checks={"subsolution": {"c": 2.0, "nt": 2, "nx": 3, "x_max": 200.0}},
    )
    out = tmp_path / "sub"
    assert main(["verify-subsolution", "--config", cfg, "--out", str(out)]) == 0
    rep = read_reports(out)[0]
    assert rep["check"] == "subsolution_residual_grid"
    assert rep["pass"] is True
    assert rep["measured"] < 0.0
    assert rep["details"]["kappa"] == 0.25
    assert rep["details"]["t_star"] == 16.0
    assert rep["details"]["r_star"] == 16.0
    assert rep["details"]["unresolved"] == 0
    rows = rep["details"]["samples"]
    assert len(rows) == 6
    assert all(row["pass"] for row in rows)
    assert {row["t"] for row in rows} == {16.0 / 3.0, 32.0 / 3.0}


def test_verify_subsolution_counts_unresolved_samples(tmp_path):
    # s = 0.75 fractional Laplacian, one time (t_star / 2), and a loose
    # quadrature: the budget 10 quad_tol |D w| = |D w| is at least |residual|,
    # so both samples pass and neither sign is resolved
    s = 0.75
    amp = 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(-s)))
    kernel = {"family": "pure_fractional", "s": s, "amplitude": amp,
              "j0": 1.0 / amp, "j1": 2.0 * amp, "r0": 2.0}
    cfg = write_config(
        tmp_path,
        kernel=kernel,
        checks={
            "subsolution": {"c": 2.0, "nt": 1, "nx": 2, "x_max": 1e6, "quad_tol": 0.1}
        },
    )
    out = tmp_path / "sub"
    assert main(["verify-subsolution", "--config", cfg, "--out", str(out)]) == 0
    rep = read_reports(out)[0]
    assert rep["pass"] is True
    assert rep["details"]["unresolved"] == 2
    assert [row["x"] for row in rep["details"]["samples"]][-1] == 1e6


def test_verify_subsolution_nan_residual_fails(tmp_path, monkeypatch):
    # residual_grid certifies all samples through one batched call
    certify = subsolution._residual_samples

    def nan_on_second_sample(*args, **kwargs):
        samples = certify(*args, **kwargs)
        samples[1] = dataclasses.replace(samples[1], residual=math.nan)
        return samples

    monkeypatch.setattr(subsolution, "_residual_samples", nan_on_second_sample)
    cfg = write_config(
        tmp_path,
        kernel=UNIT_KERNEL,
        checks={"subsolution": {"c": 2.0, "nt": 2, "nx": 2, "x_max": 200.0}},
    )
    out = tmp_path / "sub"
    assert main(["verify-subsolution", "--config", cfg, "--out", str(out)]) == 1
    rep = read_reports(out)[0]
    assert rep["pass"] is False
    assert math.isnan(rep["measured"])
    assert [row["pass"] for row in rep["details"]["samples"]] == [True, False, True, True]


def test_verify_subsolution_steep_fractional_laplacian(tmp_path, fractional_laplacian):
    spec = fractional_laplacian(0.75)
    kernel = {
        "family": spec.family,
        "s": spec.s,
        "amplitude": spec.amplitude,
        "j0": spec.declared_j0,
        "j1": spec.declared_j1,
        "r0": spec.declared_r0,
    }
    cfg = write_config(
        tmp_path,
        kernel=kernel,
        checks={"subsolution": {"c": 2.0, "nt": 3, "nx": 3, "x_max": 200.0}},
    )
    out = tmp_path / "sub"
    assert main(["verify-subsolution", "--config", cfg, "--out", str(out)]) == 0
    rep = read_reports(out)[0]
    assert rep["pass"] is True
    assert len(rep["details"]["samples"]) == 9


@pytest.mark.parametrize("quad_tol", [0.0, -1.0, 1.0])
def test_verify_subsolution_quad_tol_outside_the_unit_interval_exits_2(
    tmp_path, caplog, quad_tol
):
    # 0 and -1 ran the rows to the panel cap and exited 3, "internal error"
    cfg = write_config(
        tmp_path,
        kernel=UNIT_KERNEL,
        checks={"subsolution": {"c": 2.0, "nt": 2, "nx": 2, "x_max": 200.0,
                                "quad_tol": quad_tol}},
    )
    out = tmp_path / "sub"
    assert main(["verify-subsolution", "--config", cfg, "--out", str(out)]) == 2
    assert "quad_tol must lie in (0, 1)" in caplog.text


def test_verify_subsolution_window_below_onset_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        kernel=UNIT_KERNEL,
        checks={"subsolution": {"c": 2.0, "nt": 2, "nx": 2, "x_max": 10.0}},
    )
    assert main(["verify-subsolution", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


# -- reference comparison and bench ------------------------------------------


def test_reference_compare_refines(tmp_path):
    cfg = base_config(tmp_path, reference={"refine_levels": 2}, times={"t_final": 0.5})
    out = tmp_path / "ref"
    assert main(["reference-compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "reference_errors.csv").read_text().splitlines()
    assert lines[0] == "h,domain_size,linf_interior,linf_interior_safety_over_8"
    assert len(lines) == 3
    h0, span0, err0, fine0 = map(float, lines[1].split(","))
    h1, span1, err1, fine1 = map(float, lines[2].split(","))
    assert h1 == pytest.approx(h0 / 2.0, rel=1e-12)
    assert span1 == pytest.approx(2.0 * span0, rel=1e-12)
    assert 0.0 < err1 < err0
    assert 0.0 < fine1 < fine0
    # the small-safety column is a different run, not a copy
    assert fine0 != err0 and fine1 != err1


def test_reference_compare_needs_positive_time(tmp_path):
    cfg = base_config(tmp_path, times={"t_final": 0.0})
    assert main(["reference-compare", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_bench_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        kernel=UNIT_KERNEL,
        bench={"sizes": [256, 512], "reps": 1, "domain": [-10.0, 10.0]},
    )
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,direct_ms,fft_ms,speedup,rate_ms,apply_path,fft_shape"
    assert len(lines) == 3
    # rate takes the path of the grid size: the dense product below the
    # crossover, the FFT from it on, on the torus named in fft_shape
    for line, n, path, shape in zip(
        lines[1:], (256, 512), ("direct", "fft"), ("none", "1x1024")
    ):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert all(float(cell) > 0 for cell in cells[1:5])
        assert cells[5:] == [path, shape]
