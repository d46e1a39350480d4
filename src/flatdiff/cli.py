"""Command-line front end: configure, simulate, verify, benchmark.

One JSON config file describes the kernel, grid, boundary models, initial
datum, time stepping, and per-check settings. ``_SCHEMA`` lists every config
key with the JSON type it takes; an unknown key or a value of the wrong type
(a string for a number, a float for an integer) is a configuration error
naming its dotted path, and so is a kernel key of another family.
``_COMMANDS`` maps each subcommand to its function and help line.

Artifacts are deterministic for a fixed config (bench timings excepted):
fixed column orders, floats printed with 17 significant digits, sorted JSON
keys, and no wall-clock metadata.

Exit codes: 0 success / all checks pass, 1 at least one check failed,
2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import DEFAULT_SAFETY, Trajectory, evolve, stable_dt
from .kernels import KernelSpec, validate_hypothesis
from .mesh import BoundaryModel, Field, Grid
from .operator import DiscreteOperator, discretize
from .reference import reference_solution
from .subsolution import SubsolutionParams, residual_grid
from .verification import (
    InitialDatum,
    VerificationReport,
    flattening_ratio,
    halfline_bound_check,
    mirror_identity_check,
)

log = logging.getLogger("flatdiff")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _shape_label(shape: tuple[int, int] | None) -> str:
    # the FFT torus as "p x q" in a word: "27x6250", or "none" on the direct path
    return "none" if shape is None else f"{shape[0]}x{shape[1]}"


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {path}")
    return mapping[key]


def _given(mapping: dict, *keys: str) -> dict:
    """The ``keys`` the config sets, so unset ones take the library default."""
    return {k: mapping[k] for k in keys if k in mapping}


# -- config schema: each leaf checks one JSON value and returns it typed -----


def _leaf(types: tuple, what: str):
    # bool is a subclass of int, so a number or an integer never takes true/false
    def check(value, path: str):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ConfigError(f"{path} must be {what}")
        return value

    return check


_real = _leaf((int, float), "a number")


def _number(value, path: str) -> float:
    # json reads the NaN, Infinity and -Infinity tokens as floats, and an
    # integer literal of any length as an int, which float() may overflow
    value = _real(value, path)
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path} must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be finite")
    return value


_integer = _leaf((int,), "an integer")
_string = _leaf((str,), "a string")

_FORMATS = ("csv", "json", "both")


def _format(value, path: str) -> str:
    if value not in _FORMATS:
        raise ConfigError(f"{path} must be one of {', '.join(_FORMATS)}")
    return value


def _list_of(item):
    def check(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return check


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair [lo, hi] of numbers")
    return _list_of(_number)(value, path)


_GRID = {"x_min": _number, "x_max": _number, "n": _integer}

_SCHEMA = {
    "kernel": {
        "family": _string,
        "s": _number,
        "amplitude": _number,
        "j0": _number,
        "j1": _number,
        "r0": _number,
        "cutoff": _number,
        "near_profile": _string,
        "near_scale": _number,
    },
    "grid": _GRID,
    "boundary": {"left_value": _number, "right": _string, "right_value": _number},
    "initial": {"kind": _string, "a": _number, "b": _number, "eps": _number},
    "times": {"t_final": _number, "snapshots": _list_of(_number)},
    "solver": {"safety": _number},
    "checks": {
        "flattening": {"t": _number, "window": _pair, "tol_rel": _number},
        "halfline": {"tol": _number},
        "mirror": {"eps": _number, "t_final": _number, "tol": _number, "grid": _GRID},
        "subsolution": {
            "c": _number,
            "nt": _integer,
            "nx": _integer,
            "x_max": _number,
            "quad_tol": _number,
        },
    },
    "reference": {"interior": _pair, "refine_levels": _integer},
    "bench": {"sizes": _list_of(_integer), "reps": _integer, "domain": _pair},
    "output": {"directory": _string, "format": _format},
}


def _parse(mapping, schema: dict, path: str) -> dict:
    """Check ``mapping`` against ``schema``; unknown keys and wrong types reject."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(mapping) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    parsed = {}
    for key, value in mapping.items():
        rule = schema[key]
        if isinstance(rule, dict):
            parsed[key] = _parse(value, rule, f"{path}.{key}")
        else:
            parsed[key] = rule(value, f"{path}.{key}")
    return parsed


def load_config(path: str | Path) -> tuple[dict, dict]:
    """Read the JSON config; return it as read and as checked, typed values."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return raw, _parse(raw, _SCHEMA, "config")


# the kernel keys each family takes beyond the common ones, with their
# defaults (None: required); a key of another family is rejected
_FAMILY_KEYS = {
    "pure_fractional": {},
    "truncated_fractional": {"cutoff": None},
    "compact_plus_tail": {"near_profile": "flat", "near_scale": 1.0},
}


def build_kernel(cfg: dict) -> KernelSpec:
    section = _need(cfg, "kernel", "config")
    family = _need(section, "family", "config.kernel")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown kernel family {family!r}")
    keys = _FAMILY_KEYS[family]
    for other in _FAMILY_KEYS.values():
        for key in sorted(other.keys() - keys.keys()):
            if key in section:
                raise ConfigError(
                    f"config.kernel.{key} does not apply to family {family!r}"
                )
    fields = {
        "s": _need(section, "s", "config.kernel"),
        "amplitude": section.get("amplitude", 1.0),
    }
    for k in ("j0", "j1", "r0"):
        fields[f"declared_{k}"] = _need(section, k, "config.kernel")
    for key, default in keys.items():
        if default is None:
            default = _need(section, key, "config.kernel")
        fields[key] = section.get(key, default)
    return KernelSpec(family, **fields)


def build_grid(section: dict, path: str = "config.grid") -> Grid:
    return Grid(**{k: _need(section, k, path) for k in ("x_min", "x_max", "n")})


def build_boundary(cfg: dict, datum_a: float) -> BoundaryModel:
    """The boundary models; ``left_value`` defaults to the datum's plateau.

    The section's keys are added one at a time, in the order in which
    ``BoundaryModel`` reads them, so an error names the key that caused it.
    """
    section = cfg.get("boundary", {})
    fields = {"left_value": datum_a}
    for key in ("left_value", "right", "right_value"):
        if key in section:
            fields[key] = section[key]
            try:
                BoundaryModel(**fields)
            except ValueError as exc:
                raise ConfigError(f"config.boundary.{key}: {exc}") from exc
    return BoundaryModel(**fields)


def build_datum(cfg: dict) -> InitialDatum:
    section = _need(cfg, "initial", "config")
    kind = section.get("kind", "step")
    a = _need(section, "a", "config.initial")
    b = _need(section, "b", "config.initial")
    if kind == "step":
        if "eps" in section:
            raise ConfigError("config.initial.eps does not apply to kind 'step'")
        return InitialDatum.step(a, b)
    if kind == "mollified_step":
        return InitialDatum.mollified_step(a, b, **_given(section, "eps"))
    raise ConfigError(f"unsupported initial datum kind {kind!r} in config")


def _safety(cfg: dict) -> float:
    """``solver.safety``, or ``DEFAULT_SAFETY`` when unset; in ``(0, 1]``."""
    safety = cfg.get("solver", {}).get("safety", DEFAULT_SAFETY)
    if not 0.0 < safety <= 1.0:
        raise ConfigError("solver safety must lie in (0, 1]")
    return safety


def _times(cfg: dict) -> tuple[float, tuple[float, ...]]:
    section = _need(cfg, "times", "config")
    t_final = _need(section, "t_final", "config.times")
    snapshots = section.get("snapshots", ())
    if t_final < 0 or any(t < 0 for t in snapshots):
        raise ConfigError("times must be nonnegative")
    return t_final, snapshots


def _run_simulation(
    cfg: dict, safety: float, grid: Grid | None = None, output_times=None
) -> tuple[Trajectory, DiscreteOperator, InitialDatum]:
    """Evolve the configured datum to ``t_final`` at the given ``safety``.

    ``grid`` defaults to the config grid and ``output_times`` to the config
    snapshots. ``discretize`` rejects a kernel that fails its hypothesis
    certificate.
    """
    datum = build_datum(cfg)
    if grid is None:
        grid = build_grid(_need(cfg, "grid", "config"))
    op = discretize(build_kernel(cfg), grid, build_boundary(cfg, datum.a))
    t_final, snapshots = _times(cfg)
    traj = evolve(
        op,
        datum.sample(grid),
        t_final,
        snapshots if output_times is None else output_times,
        safety=safety,
    )
    log.debug(
        "run record: %s apply path, fft shape %s, %d steps, %d applies, "
        "%d tail fallbacks, dt in [%.6g, %.6g]",
        op.apply_path,
        _shape_label(op.fft_shape),
        traj.steps,
        traj.applies,
        traj.tail_fallbacks,
        traj.dt_min,
        traj.dt_max,
    )
    return traj, op, datum


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    x = traj.grid.points()
    with path.open("w") as fh:
        fh.write("t,x,u\n")
        for t, state in zip(traj.times, traj.states):
            ts = _fmt(t)
            for xi, ui in zip(x, state.values):
                fh.write(f"{ts},{_fmt(xi)},{_fmt(ui)}\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _metadata(raw_cfg: dict, op: DiscreteOperator, traj: Trajectory, safety: float) -> dict:
    cert = op.certificate
    return {
        "package_version": __version__,
        "config": raw_cfg,
        "derived": {
            "h": op.grid.h,
            "row_sum": op.row_sum,
            "apply_path": op.apply_path,
            "fft_shape": op.fft_shape,
            "dt_stable": stable_dt(op, safety),
            "kernel_certificate": {
                "verified": cert.verified,
                "upper_margin": cert.upper_margin,
                "lower_margin": cert.lower_margin,
                "near_moment": cert.near_moment,
            },
            "snapshot_times": [float(t) for t in traj.times],
            "steps": traj.steps,
            "applies": traj.applies,
            "dt_min": traj.dt_min,
            "dt_max": traj.dt_max,
            "k_max": traj.k_max,
            "tail_fallbacks": traj.tail_fallbacks,
        },
    }


def cmd_simulate(cfg: dict, out: Path, args) -> int:
    fmt = args.format or cfg.get("output", {}).get("format", "csv")
    safety = _safety(cfg)
    traj, op, _ = _run_simulation(cfg, safety)
    if fmt in ("csv", "both"):
        _write_trajectory_csv(out / "trajectory.csv", traj)
    if fmt in ("json", "both"):
        x = [float(v) for v in traj.grid.points()]
        _write_json(
            out / "trajectory.json",
            [
                {"t": float(t), "x": x, "u": [float(v) for v in st.values]}
                for t, st in zip(traj.times, traj.states)
            ],
        )
    _write_json(out / "metadata.json", _metadata(args.raw_config, op, traj, safety))
    log.info("wrote %d snapshots to %s", len(traj.times), out)
    return EXIT_OK


def _report_exit(reports: list[VerificationReport], out: Path) -> int:
    _write_json(out / "report.json", [r.as_dict() for r in reports])
    for r in reports:
        log.info(
            "%s: measured=%.6g bound=%.6g -> %s",
            r.check,
            r.measured,
            r.bound,
            "pass" if r.passed else "FAIL",
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_verify_flattening(cfg: dict, out: Path, args) -> int:
    section = cfg.get("checks", {}).get("flattening", {})
    t_final, snapshots = _times(cfg)
    if "t" in section and not 0.0 < section["t"] <= t_final:
        raise ConfigError(
            f"config.checks.flattening.t must lie in (0, t_final = {t_final:g}]"
        )
    t = section.get("t", t_final)
    traj, op, datum = _run_simulation(cfg, _safety(cfg), output_times=(*snapshots, t))
    report = flattening_ratio(
        traj,
        op.spec,
        t,
        a=datum.a,
        b=datum.b,
        **_given(section, "window", "tol_rel"),
    )
    return _report_exit([report], out)


def cmd_verify_proposition(cfg: dict, out: Path, args) -> int:
    checks = cfg.get("checks", {})
    safety = _safety(cfg)
    traj, op, datum = _run_simulation(cfg, safety)
    reports = [
        halfline_bound_check(
            traj, datum.a, datum.plateau_edge, **_given(checks.get("halfline", {}), "tol")
        )
    ]
    mirror = checks.get("mirror", {})
    grid = (
        build_grid(mirror["grid"], "config.checks.mirror.grid")
        if "grid" in mirror
        else traj.grid
    )
    reports.append(
        mirror_identity_check(
            op.spec,
            datum.a,
            datum.b,
            mirror.get("t_final", cfg["times"]["t_final"]),
            grid,
            safety=safety,
            **_given(mirror, "eps", "tol"),
        )
    )
    return _report_exit(reports, out)


def cmd_verify_subsolution(cfg: dict, out: Path, args) -> int:
    spec = build_kernel(cfg)
    section = cfg.get("checks", {}).get("subsolution", {})
    c = _need(section, "c", "config.checks.subsolution")
    params = SubsolutionParams(spec, c)
    samples = residual_grid(
        spec, params, **_given(section, "nt", "nx", "x_max", "quad_tol")
    )
    # argmax, unlike max(), takes a NaN excess as the worst, so it fails
    excess = np.array([s.residual - s.budget for s in samples])
    worst = samples[int(np.argmax(excess))]
    report = VerificationReport(
        check="subsolution_residual_grid",
        measured=worst.residual - worst.budget,
        bound=0.0,
        tolerance=0.0,
        relation="upper_bound",
        worst_t=worst.t,
        worst_x=worst.x,
        details={
            "kernel": spec.describe(),
            "kappa": params.kappa,
            "c": c,
            "t_star": params.t_star,
            "r_star": params.r_star,
            "unresolved": sum(not s.resolved for s in samples),
            "samples": [s.as_row() for s in samples],
        },
    )
    return _report_exit([report], out)


def cmd_reference_compare(cfg: dict, out: Path, args) -> int:
    """Interior error per refinement level, at ``safety`` and at ``safety / 8``.

    The second run takes eight times as many Euler stages per step, which
    cuts the SSPRK(k,2) error constant, so its column is mostly the spatial
    error and the gap between the columns shows the time error.
    """
    section = cfg.get("reference", {})
    levels = section.get("refine_levels", 2)
    if levels < 1:
        raise ConfigError("refine_levels must be at least 1")
    base = build_grid(_need(cfg, "grid", "config"))
    interior = section.get("interior", (base.x_min + 50.0, 0.8 * base.x_max))
    t_final, _ = _times(cfg)
    if t_final <= 0:
        raise ConfigError("reference comparison needs t_final > 0")
    safety = _safety(cfg)
    rows = []
    for level in range(levels):
        factor = 2**level
        grid = Grid(base.x_min * factor, base.x_max * factor, (base.n - 1) * factor**2 + 1)
        x = grid.points()
        sel = (x >= interior[0]) & (x <= interior[1])
        if not np.any(sel):
            raise ConfigError("interior window contains no grid points")
        errs = []
        for run_safety in (safety, safety / 8.0):
            traj, op, datum = _run_simulation(cfg, run_safety, grid, output_times=())
            exact = reference_solution(op.spec.s, datum.a, datum.b, t_final, x[sel])
            errs.append(float(np.max(np.abs(traj.state_at(t_final).values[sel] - exact))))
        rows.append((grid.h, grid.x_max - grid.x_min, *errs))
        log.info("level %d: h=%.5g err=%.3e (safety / 8: %.3e)", level, grid.h, *errs)
    with (out / "reference_errors.csv").open("w") as fh:
        fh.write("h,domain_size,linf_interior,linf_interior_safety_over_8\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return EXIT_OK


def run_bench(
    spec: KernelSpec, sizes, reps: int, domain: tuple[float, float], seed: int
) -> list[dict]:
    """Time direct vs FFT operator application; returns one row per size.

    ``direct_ms`` times ``apply``, the correlation reference, and ``fft_ms``
    ``apply_fft``; ``rate_ms`` times ``rate``, the product ``evolve`` pays
    for, on the path named by ``apply_path`` and, on the FFT path, the torus
    named by ``fft_shape``.
    """
    rng = np.random.default_rng(seed)
    cert = validate_hypothesis(spec)

    def per_call_ms(call) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        return (time.perf_counter() - t0) * 1e3 / reps

    rows = []
    for n in sizes:
        grid = Grid(domain[0], domain[1], int(n))
        op = discretize(
            spec, grid, BoundaryModel(left_value=1.0), certificate=cert, force=True
        )
        u = Field(grid, 0.0, rng.uniform(0.0, 1.0, grid.n))
        op.apply(u)
        op.apply_fft(u)
        op.rate(u.values)
        direct_ms = per_call_ms(lambda: op.apply(u))
        fft_ms = per_call_ms(lambda: op.apply_fft(u))
        rows.append(
            {
                "n": int(n),
                "direct_ms": direct_ms,
                "fft_ms": fft_ms,
                "speedup": direct_ms / fft_ms,
                "rate_ms": per_call_ms(lambda: op.rate(u.values)),
                "apply_path": op.apply_path,
                "fft_shape": op.fft_shape,
            }
        )
    return rows


def cmd_bench(cfg: dict, out: Path, args) -> int:
    section = cfg.get("bench", {})
    rows = run_bench(
        build_kernel(cfg),
        section.get("sizes", (256, 1024, 4096)),
        section.get("reps", 5),
        section.get("domain", (-10.0, 10.0)),
        args.seed,
    )
    with (out / "bench.csv").open("w") as fh:
        fh.write("n,direct_ms,fft_ms,speedup,rate_ms,apply_path,fft_shape\n")
        for row in rows:
            fh.write(
                f"{row['n']},{_fmt(row['direct_ms'])},{_fmt(row['fft_ms'])},"
                f"{_fmt(row['speedup'])},{_fmt(row['rate_ms'])},{row['apply_path']},"
                f"{_shape_label(row['fft_shape'])}\n"
            )
    for row in rows:
        log.info(
            "n=%d direct=%.3fms fft=%.3fms speedup=%.2fx rate=%.3fms "
            "(%s, fft shape %s)",
            row["n"],
            row["direct_ms"],
            row["fft_ms"],
            row["speedup"],
            row["rate_ms"],
            row["apply_path"],
            _shape_label(row["fft_shape"]),
        )
    return EXIT_OK


_COMMANDS = {
    "simulate": (cmd_simulate, "run the solver and dump snapshots"),
    "verify-subsolution": (cmd_verify_subsolution, "certify the barrier residual sign"),
    "verify-flattening": (cmd_verify_flattening, "measure the tail flattening bound"),
    "verify-proposition": (cmd_verify_proposition, "half-line persistence and mirror identity"),
    "reference-compare": (cmd_reference_compare, "solver error against the exact solution"),
    "bench": (cmd_bench, "time direct vs FFT operator application"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatdiff",
        description="Nonlocal diffusion simulator and verification harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("-v", "--verbose", action="store_true")
        if name == "simulate":
            p.add_argument("--format", choices=_FORMATS, help="overrides output.format")
        if name == "bench":
            p.add_argument("--seed", type=int, default=0, help="RNG seed of the bench input")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.raw_config, cfg = load_config(args.config)
        out = Path(args.out or cfg.get("output", {}).get("directory", "."))
        out.mkdir(parents=True, exist_ok=True)
        command, _ = _COMMANDS[args.command]
        return command(cfg, out, args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except ValueError as exc:
        log.error("invalid input: %s", exc)
        return EXIT_CONFIG
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
