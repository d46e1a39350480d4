"""Print every end-to-end metric of every workload, then its checks.

    python3 benchmark/report.py [--seed N] [--runs R]

Runs ``run.py`` untraced, in its own process, ``R`` times per workload with
seeds ``N .. N+R-1``, and prints each end-to-end metric by name and unit:
the median over the runs and, from four runs on, the spread (interquartile
distance over median) against the metric's bound. The correctness checks of
the workload's last run follow. Then ``certify`` runs once more with a seed
not used before, and each of its metrics is compared with the first run's:
the comparison pairs come from the seed, the metrics should not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """One untraced run: its result object and its check lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    checks = [ln for ln in lines if ln.startswith(("check ", "operations "))]
    return json.loads(lines[-1]), checks


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1)
    args = ap.parse_args(argv)
    metrics = bench["end_to_end"]
    steady = True
    first_certify = None

    for w in bench["workloads"]:
        name = w["name"]
        results = []
        for i in range(args.runs):
            res, checks = run(name, args.seed + i, bench["run_seconds"])
            results.append(res)
            print(f"# {name} seed {args.seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        if name == "certify":
            first_certify = results[0]
        print(f"== {name}: {w['why']}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            line = f"  {m['name']:<12} {statistics.median(values):12.6g} {m['unit']:<6}"
            if len(values) >= 4:
                sp = layers.spread(values)
                ok = sp <= m["bound"] / 3
                steady &= ok
                line += f" spread {sp:.4f} (bound {m['bound']}, {'ok' if ok else 'WIDE'})"
            print(line)
            if len(values) > 1:
                print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        for ln in checks:
            print("  " + ln)

    if first_certify is not None:
        seed = args.seed + args.runs
        other, _ = run("certify", seed, bench["run_seconds"])
        print(f"== certify re-run with seed {seed} against seed {args.seed}")
        for m in metrics:
            a = first_certify["metrics"][m["name"]]["value"]
            b = other["metrics"][m["name"]]["value"]
            rel = abs(b - a) / abs(a)
            verdict = "within bound" if rel <= m["bound"] else "OUTSIDE bound"
            print(f"  {m['name']:<12} {a:12.6g} {b:12.6g}  diff {rel:.4f} {verdict}")
    if args.runs >= 4:
        print(f"all spreads below a third of their bounds: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
