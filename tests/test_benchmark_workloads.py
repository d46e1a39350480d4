"""One set-up/solve/check iteration of each benchmark workload.

The benchmark drives flatdiff's public API from ``benchmark/workloads.py``;
running one untraced iteration here makes an API change that breaks it fail
the test suite rather than the benchmark run. The layer probe of a traced
iteration (``apply``, ``apply_fft`` and ``fit_tail_amplitude`` on the
snapshot states) runs too, where it is cheap.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


# tail is left out: its probe runs the O(n^2) direct apply at n = 8001,
# about 1.1-1.3 s, against ~0.13 s for front and ~5 ms for certify
PROBED = ("certify", "front")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_iteration_passes_every_check(name):
    wl = workloads.WORKLOADS[name](1)
    tracer, checks = NullTracer(), layers.Checks()
    solved = wl.solve(tracer, wl.setup(tracer))
    linf = wl.check(tracer, solved, checks, 0)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.lines(name)
    assert math.isfinite(linf)
    if name in PROBED:
        wl.probe(tracer, solved)
