"""One benchmark process: set up, run or trace one workload, print one JSON line.

    python3 perfbench/worker.py <setup|rep|trace|expected> <workload> <seed>

`run.py` starts one of these per measurement, so that set-up includes the
cflab import and peak RSS belongs to that measurement alone.  The process
pins itself to one CPU, so that `Speedometer` samples the core the timed
call runs on.  cflab is imported from the `src/` directory next to this one
and nowhere else.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

# The probe loop's time on an uncontended core of the reference machine
# (Intel Xeon at 2.1 GHz, Python 3.11); it only sets the scale of the
# calibrated times.
REF_PROBE_S = 0.00055
PROBE_EVERY_S = 0.02
_PROBE_DATA = list(range(1, 101)) * 300  # small ints: the loop allocates nothing


def _probe() -> float:
    start = time.perf_counter()
    x = 0
    for a in _PROBE_DATA:
        x ^= a
    return time.perf_counter() - start


class Speedometer:
    """Samples the speed of this process's core while a timed region runs.

    On a shared host a core's speed drifts by tens of percent within
    seconds, and a slow phase can last longer than a whole run.  The worker
    is pinned to one CPU, so this thread's fixed loop runs on the core the
    timed call runs on; `scale` turns a time measured during the region into
    the time at the reference speed.  Sampling costs a few percent of the
    region.
    """

    def __enter__(self) -> "Speedometer":
        self.samples = [(time.perf_counter(), _probe())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append((time.perf_counter(), _probe()))

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), _probe()))

    @property
    def scale(self) -> float:
        return REF_PROBE_S / statistics.median(p for _, p in self.samples)

    def scale_between(self, start: float, end: float) -> float:
        """The scale from the samples taken within 0.25 s of [start, end]."""
        near = [p for t, p in self.samples if start - 0.25 <= t <= end + 0.25]
        return REF_PROBE_S / statistics.median(near) if near else self.scale


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prepare(workload) -> tuple[float, float]:
    """Set-up time and its speed scale."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Speedometer() as speed:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        workload.prepare()
        setup_s = time.perf_counter() - start
    import cflab

    if Path(cflab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cflab came from {cflab.__file__}, not from {SRC}")
    return setup_s, speed.scale


def measure(mode: str, workload) -> dict:
    """What one worker process reports for `mode` on `workload`."""
    if mode == "expected":
        return {"expected": workload.expected()}
    setup_s, setup_scale = _prepare(workload)
    if mode == "setup":
        return {"setup_s": setup_s, "setup_scale": setup_scale}
    if mode == "rep":
        with Speedometer() as speed:
            start = time.perf_counter()
            result = workload.run()
            wall_s = time.perf_counter() - start
        return {
            "setup_s": setup_s,
            "setup_scale": setup_scale,
            "wall_s": wall_s,
            "wall_scale": speed.scale,
            "peak_rss_mb": _peak_rss_mb(),
            "obs": workload.observe(result),
        }
    if mode == "trace":
        tracer = Tracer(f"{workload.name}-seed{workload.seed}-pid{os.getpid()}")
        with Speedometer() as speed:
            # the first call in a process pays for growing the heap; keep it
            # out of the untraced-against-traced comparison
            first = workload.observe(workload.run())
            start = time.perf_counter()
            result = workload.run()
            end = time.perf_counter()
            untraced = workload.observe(result)
            with tracer.span("workload"):
                result = workload.run(tracer)
            traced = workload.observe(result)
            counts = workload.trace(tracer)
        for s in tracer.spans:
            s["scale"] = speed.scale_between(s["start"], s["end"])
        return {
            "untraced_s": (end - start) * speed.scale_between(start, end),
            "obs": [first, untraced, traced],
            "counts": counts,
            "spans": tracer.spans,
        }
    raise ValueError(f"unknown mode {mode!r}")


if __name__ == "__main__":
    mode, name, seed = sys.argv[1:]
    print(json.dumps(measure(mode, WORKLOADS[name](int(seed)))))
