"""Run one benchmark workload against the flatdiff sources of this checkout.

    python3 benchmark/run.py --workload front --seed 1 --seconds 20 --trace 0

A single caller drives the public API in a closed loop: each iteration
(set-up, solve, check) starts when the previous one returns, and iterations
repeat until ``--seconds`` have passed and the workload's checks have run a
whole number of passes. BLAS/OpenMP pools are capped at one thread and
``evolve`` runs with ``workers=1``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
each the median over the run's iterations. Set-up and solve are repeated
after the loop (afresh, the solve from the last set-up) until their samples
add up to ``PHASE_SECONDS``, and their metrics are the medians of all their
samples. Check is not repeated: repeats on one solution reuse its arrays,
which split front's ``check_s`` into two levels from run to run.

``--trace 1`` runs pairs of iterations, one untraced and one traced on the
same slice of the checks, for at least ``MIN_PAIRS`` pairs; which of the two
runs first alternates from pair to pair. It reports the
per-layer metrics from the spans of the traced iterations, plus the tracing
overhead: the median over the pairs of traced minus untraced ``total_s``.

Human-readable lines come first: the environment record, every metric with
its unit, every workload-specific layer metric (traced runs) and every
correctness check. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment
record, and for traced runs the spans and layer metrics, are also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# must be set before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# a cheap phase runs this long in all in an untraced run, so that its
# median rests on many samples
PHASE_SECONDS = 1.0
# traced runs measure the tracing overhead on at least this many pairs
MIN_PAIRS = 5


def import_flatdiff() -> None:
    """Import flatdiff from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flatdiff
    except ImportError as exc:
        sys.exit(f"error: cannot import flatdiff from {src}: {exc}")
    if src not in Path(flatdiff.__file__).resolve().parents:
        sys.exit(f"error: flatdiff imported from {flatdiff.__file__}, not from {src}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "evolve_workers": 1,
        "git_commit": git_commit(),
    }


def run_iteration(wl, tr, checks, part) -> tuple[dict, object, object]:
    pc = time.perf_counter
    with tr.span("iteration"):
        t0 = pc()
        with tr.span("setup"):
            state = wl.setup(tr)
        t1 = pc()
        with tr.span("solve"):
            solved = wl.solve(tr, state)
        t2 = pc()
        with tr.span("check"):
            linf = wl.check(tr, solved, checks, part)
        t3 = pc()
        if tr.enabled:
            with tr.span("probe"):
                wl.probe(tr, solved)
    record = {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "check_s": t3 - t2,
        "total_s": t3 - t0,
        "linf_err": linf,
    }
    return record, state, solved


def repeat_phase(samples: list[float], phase) -> None:
    """Time ``phase()`` until the samples add up to ``PHASE_SECONDS``."""
    while sum(samples) < PHASE_SECONDS:
        t0 = time.perf_counter()
        phase()
        samples.append(time.perf_counter() - t0)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import_flatdiff()
    import layers
    import workloads
    from spans import NullTracer, Tracer

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"env-{stem}.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env), flush=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    checks = layers.Checks()
    null = NullTracer()
    start = time.perf_counter()

    def running(done: int, least: int = 1) -> bool:
        """Whether to start another iteration (or pair) after ``done``."""
        return time.perf_counter() - start < args.seconds or done < least or done % wl.slices != 0

    if args.trace:
        tracer = Tracer()
        plain, traced = [], []
        while running(len(traced), MIN_PAIRS):
            part = len(traced) % wl.slices
            # the side that runs first alternates, so neither always runs
            # just after the other's probe
            order = [(null, plain), (tracer, traced)]
            if len(traced) % 2:
                order.reverse()
            for tr, its in order:
                its.append(run_iteration(wl, tr, checks, part)[0])
        tracer.dump(OUT / f"spans-{stem}.jsonl")
        for label, its in (("untraced", plain), ("traced", traced)):
            print(f"timing total_s {label}: " + ", ".join(f"{t['total_s']:.6g}" for t in its))
        all_layers = layers.per_layer(
            tracer.spans,
            [it["total_s"] for it in plain],
            [it["total_s"] for it in traced],
            wl.slices,
        )
        (OUT / f"layers-{stem}.json").write_text(json.dumps(all_layers, indent=2) + "\n")
        wanted = bench["per_layer"]
        for name, (value, unit) in all_layers.items():
            print(f"layer {name} = {value:.6g} {unit}")
        metrics = {m["name"]: all_layers[m["name"]][0] for m in wanted}
    else:
        iterations = []
        while running(len(iterations)):
            part = len(iterations) % wl.slices
            record, state, _ = run_iteration(wl, null, checks, part)
            iterations.append(record)
        samples = {
            name: [it[name] for it in iterations]
            for name in ("setup_s", "solve_s", "check_s", "total_s")
        }
        repeat_phase(samples["setup_s"], lambda: wl.setup(null))
        repeat_phase(samples["solve_s"], lambda: wl.solve(null, state))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = bench["end_to_end"]
        metrics = layers.end_to_end(iterations, samples, checks, peak_rss_mb)
        for name, values in samples.items():
            stats = ", ".join(f"{k} {v:.6g}" for k, v in layers.summary(values).items())
            print(f"timing {name}: {stats}")
        metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    failed_frac = checks.failed / checks.attempted
    print(f"operations attempted {checks.attempted}, failed {checks.failed} (failed_frac {failed_frac:.6g})")
    for line in checks.lines(args.workload):
        print(line)

    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: metrics not measured: {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
