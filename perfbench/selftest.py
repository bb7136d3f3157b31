"""Self-test of the benchmark: tiny runs emit every metric, tampering fails.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
- a tiny-size run of each workload passes its checks and yields every
  end-to-end metric and, traced, every per-layer metric, each with its unit;
- a run whose output has one altered count is counted as failed, and the
  result then reads correct=false;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import worker
from workloads import END_TO_END, PER_LAYER, PillaiConcat, SubsequenceRandom, VerifyExact

HERE = Path(__file__).resolve().parent

TINY = (
    SubsequenceRandom(7, n=20_000, cap=50),
    PillaiConcat(0, n=20_000),
    VerifyExact(0, reversal=(3, 3), dominance=(3, 3), pairwise=(3, 3), k2_cap=50, k3_cap=10),
)


def _alter_one_count(workload, result):
    """The workload's raw result with a single count changed by one."""
    if isinstance(workload, VerifyExact):
        obs = workload.observe(result)
        obs["checked"]["reversal"] += 1
        return obs
    code, text = result
    text = re.sub(r'"count": (\d+)', lambda m: f'"count": {int(m.group(1)) + 1}', text, count=1)
    return workload.observe((code, text))


def check_workload(workload) -> list[str]:
    problems = []
    expected = workload.expected()
    rep = worker.measure("rep", workload)
    rep["errors"] = workload.check(rep["obs"], expected)
    problems += [f"{workload.name}: honest run failed its check: {e}" for e in rep["errors"]]

    attempted, failed, _, metrics = run.summarize(workload, [rep], [], [])
    line = run.result_line(attempted, failed, metrics, dict(END_TO_END))
    if not line["correct"] or [(k, v["unit"]) for k, v in line["metrics"].items()] != list(END_TO_END):
        problems.append(f"{workload.name}: end-to-end result is {line}")

    traced = worker.measure("trace", workload)
    if any(workload.check(obs, expected) for obs in traced["obs"]):
        problems.append(f"{workload.name}: traced run failed its check")
    if list(run.per_layer(workload, traced)) != [name for name, _ in PER_LAYER]:
        problems.append(f"{workload.name}: traced run misses per-layer metrics")

    workload.prepare()
    tampered = copy.deepcopy(rep)
    tampered["obs"] = _alter_one_count(workload, workload.run())
    tampered["errors"] = workload.check(tampered["obs"], expected)
    attempted, failed, _, metrics = run.summarize(workload, [rep, tampered], [], [])
    line = run.result_line(attempted, failed, metrics, dict(END_TO_END))
    if line["correct"] or failed != 1 or attempted != 2:
        problems.append(f"{workload.name}: a tampered count was not reported as a failed run")
    return problems


def check_missing_program() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py"] + "--workload pillai-concat --seed 1 --seconds 1 --trace 0".split(),
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
        return [f"without src/, run.py exited {proc.returncode} with output {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in TINY:
        problems += check_workload(workload)
    problems += check_missing_program()
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
