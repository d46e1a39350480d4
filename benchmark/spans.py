"""In-memory span recorder for the benchmark's traced runs.

A span covers one call from the benchmark into a flatdiff module, or one
benchmark phase that groups such calls. Spans are kept in a list while the
run goes and written out once at the end, so recording costs one clock read
and one small object per boundary. The untraced runs use ``NullTracer``,
which records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One timed interval: its id, name, parent span id and attributes."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path) -> None:
        """Write one JSON object per span, times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Same interface as ``Tracer``; records nothing."""

    enabled = False
    _null = nullcontext(None)

    def span(self, name: str, **attrs):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
