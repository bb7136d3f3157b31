"""Run one cflab benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload subsequence-random --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; cflab is imported from its `src/`.  Each
measurement is its own worker process (see worker.py): set-up is the cflab
import plus building the inputs, and peak RSS is that process's own.  With
`--trace 0` the workload runs again and again for `--seconds` seconds and
the end-to-end metrics are medians over those runs.  With `--trace 1` one
worker runs the workload with spans and then times each layer alone, which
gives the per-layer metrics.  Outputs are checked outside the timed region
against values that do not come from cflab; a run whose check fails counts
in `failed`.  The last line of stdout is the result as JSON; a readable
summary comes before it, and everything measured is also written to
`perfbench/out/`.  Exits 2, printing no result, when cflab cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import duration
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 10  # set-up-only workers per run, besides the timed ones


class WorkerFailed(Exception):
    pass


def _worker(mode: str, name: str, seed: int, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, name, str(seed)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=HERE.parent,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine_facts(runs: int) -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"cpu_count": os.cpu_count(), "python": sys.version.split()[0], "gil": gil, "runs": runs}


def _measure(workload, seconds: float, deadline: float, expected: dict):
    """Timed runs for `seconds` seconds (at least one), then set-up samples.

    Returns the completed runs, each with the errors its check found, the
    errors of workers that did not complete, and the set-up-only samples.
    """
    reps, crashed = [], []
    start = time.monotonic()
    while not (reps or crashed) or time.monotonic() - start < seconds:
        try:
            rep = _worker("rep", workload.name, workload.seed, deadline)
        except WorkerFailed as exc:
            crashed.append(str(exc))
            if time.monotonic() >= deadline:
                break
            continue
        rep["errors"] = workload.check(rep["obs"], expected)
        reps.append(rep)
    setups = [_worker("setup", workload.name, workload.seed, deadline) for _ in range(SETUP_SAMPLES)]
    return reps, crashed, setups


def summarize(workload, reps: list[dict], crashed: list[str], setup_only: list[dict]):
    """Attempted and failed counts, failure messages and end-to-end metrics.

    Times are scaled to the reference core speed (see worker.Speedometer);
    the raw medians go to the run record only.
    """
    setups = reps + setup_only
    attempted = len(reps) + len(crashed)
    failed = len(crashed) + sum(1 for r in reps if r["errors"])
    failures = crashed + [e for r in reps for e in r["errors"]]
    wall = statistics.median(r["wall_s"] * r["wall_scale"] for r in reps)
    metrics = {
        "wall_s": wall,
        "digits_per_s": workload.digits / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(s["setup_s"] * s["setup_scale"] for s in setups),
        "bracket_width": statistics.median(workload.bracket_width(r["obs"]) for r in reps),
    }
    return attempted, failed, failures, metrics


def raw_times(reps: list[dict], setup_only: list[dict]) -> dict:
    return {
        "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
        "raw_setup_s": statistics.median(s["setup_s"] for s in reps + setup_only),
        "speed_scale": statistics.median(r["wall_scale"] for r in reps),
    }


def per_layer(workload, traced: dict) -> dict:
    spans = traced["spans"]
    wall = next(duration(s) for s in spans if s["name"] == "workload")
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(workload.layers(spans, traced["counts"], traced["obs"][-1]))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - traced["untraced_s"]
    return metrics


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind through subprocess.run, which kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload](args.seed)
    try:
        # a first, unmeasured set-up proves cflab imports and warms bytecode caches
        _worker("setup", workload.name, workload.seed, deadline)
        expected = _worker("expected", workload.name, workload.seed, deadline)["expected"]
    except WorkerFailed as exc:
        print(f"error: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        try:
            traced = _worker("trace", workload.name, workload.seed, deadline)
        except WorkerFailed as exc:
            print(f"error: traced run failed: {exc}", file=sys.stderr)
            return 1
        errors = [workload.check(obs, expected) for obs in traced["obs"]]
        attempted, failed = len(errors), sum(1 for e in errors if e)
        failures = [e for errs in errors for e in errs]
        metrics, units = per_layer(workload, traced), dict(PER_LAYER)
        record["spans"] = traced["spans"]
    else:
        reps, crashed, setup_only = _measure(workload, args.seconds, deadline, expected)
        if not reps:
            print(f"error: no run of {workload.name} completed: {crashed}", file=sys.stderr)
            return 1
        attempted, failed, failures, metrics = summarize(workload, reps, crashed, setup_only)
        units = dict(END_TO_END)
        record.update(reps=reps, setup_only=setup_only, raw=raw_times(reps, setup_only))

    record.update(machine=machine_facts(attempted), failures=failures)
    result = result_line(attempted, failed, metrics, units)
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':30s} {failed / attempted:14.6g} ({failed}/{attempted})")
    for name, value in record.get("raw", {}).items():
        print(f"  {name:30s} {value:14.6g}")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
