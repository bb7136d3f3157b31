"""In-memory spans for the traced benchmark run.

A span records a name, start, end, parent span and run id, plus the speed
scale of the core while it ran (1.0 until the worker sets it; see
worker.Speedometer).  Spans stay in memory until the run ends; the parent
process writes them out.  A span's duration is its calibrated length, and
its self time is its duration minus the part of that interval its child
spans cover (children of one span run one after another, so that part is
their summed duration).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "scale": 1.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span(tracer: Tracer | None, name: str):
    """A span on `tracer`, or nothing when the run is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def duration(s: dict) -> float:
    return (s["end"] - s["start"]) * s["scale"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span name."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s) - covered[s["id"]]
    return out

