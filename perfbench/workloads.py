"""The benchmark's workloads: what each one runs, traces and checks.

A workload object is built from the benchmark seed alone.  In a worker
process, `prepare` imports cflab and builds the inputs (timed as set-up),
`run` makes the timed call, and `observe` turns its result into plain facts.
The parent process compares those facts with `expected`, which never asks
cflab for the answer: it comes from committed values, closed forms, or an
independent reference implementation of the source definition.

`trace` repeats the timed call with spans, then times each layer alone
through the public functions the call uses; `layers` turns the spans into
the per-layer metrics.  Nothing here passes `--jobs`, so every run uses the
default single worker.

This module must not import cflab at module level: the parent imports it,
and only a worker's set-up may pay for the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from spans import Tracer, self_times, span

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# log2(32 / (9 pi)), the closed form of the k=2 joint measure.
K2_ORACLE = math.log2(32 / (9 * math.pi))

# pillai-concat computes no joint measure; its bracket is all of [0, 1].
NO_BRACKET_WIDTH = 1.0

END_TO_END = (
    ("wall_s", "s"),
    ("digits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("bracket_width", "prob"),
)

PER_LAYER = (
    ("streams.random.take_s", "s"),
    ("streams.random.digits_per_s", "1/s"),
    ("streams.concat.take_s", "s"),
    ("streams.concat.digits_per_s", "1/s"),
    ("stats.select_ap.chain_s", "s"),
    ("stats.frequency_report_s", "s"),
    ("stats.count_s.overlap", "s"),
    ("stats.count_s.disjoint", "s"),
    ("stats.positions_per_s", "1/s"),
    ("measure.joint_s.k2", "s"),
    ("measure.joint_s.k3", "s"),
    ("measure.joint_arg_bits.k3", "count"),
    ("cfcore.cylinder_interval_s", "s"),
    ("verify.reversal_s", "s"),
    ("verify.dominance_s", "s"),
    ("verify.pairwise_s", "s"),
    ("verify.joint_k2_s", "s"),
    ("verify.reversal.checked", "count"),
    ("verify.dominance.checked", "count"),
    ("verify.pairwise.checked", "count"),
    ("experiments.self_s", "s"),
    ("reports.render_s", "s"),
    ("reports.bytes", "count"),
    ("cli.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _cli(argv: list[str]) -> tuple[int, str]:
    """cflab.cli.main on argv, with the report captured instead of printed."""
    from cflab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _mismatches(obs: dict, exp: dict) -> list[str]:
    return [
        f"{key}: got {str(obs[key])[:200]}, expected {str(want)[:200]}"
        for key, want in exp.items()
        if obs[key] != want
    ]


def _k2_errors(bracket: list[float]) -> list[str]:
    lo, hi = bracket
    if lo <= K2_ORACLE <= hi:
        return []
    return [f"k=2 bracket [{lo}, {hi}] misses log2(32/(9pi)) = {K2_ORACLE}"]


def reference_random_digits(seed: int, n: int, block_bits: int = 4096) -> list[int]:
    """The first n digits of `random:seed=<seed>`, straight from its definition.

    Block j is the dyadic interval [m, m+1] / 2**block_bits with m drawn
    from random.Random((seed << 64) + j); a digit is emitted while both
    endpoints agree on floor(1/x).  Kept separate from cflab on purpose, so
    a faster extractor in cflab is checked against the definition.
    """
    out: list[int] = []
    scale = 1 << block_bits
    block = 0
    while len(out) < n:
        m = random.Random((seed << 64) + block).getrandbits(block_bits)
        lo_n, lo_d, hi_n, hi_d = m, scale, m + 1, scale
        while lo_n > 0:
            a = hi_d // hi_n
            if a < 1 or a != lo_d // lo_n:
                break
            out.append(a)
            lo_n, lo_d, hi_n, hi_d = hi_d - a * hi_n, hi_n, lo_d - a * lo_n, lo_n
        block += 1
    return out[:n]


def _checkpoint_marks(every: int, n: int) -> list[int]:
    marks = list(range(every, n + 1, every))
    if not marks or marks[-1] != n:
        marks.append(n)
    return marks


class SubsequenceRandom:
    """`cflab subsequence` on a seeded random source, through the CLI."""

    name = "subsequence-random"

    def __init__(self, seed: int, n: int = 2_000_000, cap: int = 1000):
        self.seed = seed
        # the program only sees the generated spec; seeds below 0 would
        # alias positive ones inside random.Random, so fold them away
        self.source_seed = seed % (1 << 63)
        self.spec = f"random:seed={self.source_seed}"
        self.n, self.b, self.k, self.cap = n, 1, 2, cap
        self.digits = n

    def prepare(self) -> None:
        import cflab.cli  # noqa: F401  (the import is part of set-up)

        self.argv = ["subsequence", "--source", self.spec, "--n", str(self.n)]
        self.argv += ["--b", str(self.b), "--k", str(self.k), "--cap", str(self.cap)]
        self.argv += ["--expect", "non-normal"]

    def run(self, tracer: Tracer | None = None):
        with span(tracer, "cli.main"):
            return _cli(self.argv)

    def observe(self, result) -> dict:
        code, text = result
        report = json.loads(text)
        return {
            "exit": code,
            "source_n": report["source_n"],
            "selected_n": report["selected_n"],
            "rows": [[r["n"], r["pattern"], r["mode"], r["count"]] for r in report["rows"]],
            "bracket": report["summary"]["joint_bracket"],
        }

    def expected(self) -> dict:
        digits = reference_random_digits(self.source_seed, self.n)
        sel = digits[self.b - 1 :: self.k]
        rows = []
        for mark in _checkpoint_marks(max(1, self.n // 10), len(sel)):
            ones = sum(1 for x, y in zip(sel[: mark - 1], sel[1:mark]) if x == 1 == y)
            rows.append([mark, "1,1", "overlap", ones])
        return {"exit": 0, "source_n": self.n, "selected_n": len(sel), "rows": rows}

    def check(self, obs: dict, exp: dict) -> list[str]:
        return _mismatches(obs, exp) + _k2_errors(obs["bracket"])

    def bracket_width(self, obs: dict) -> float:
        lo, hi = obs["bracket"]
        return hi - lo

    def trace(self, tracer: Tracer) -> dict:
        from cflab import (
            ModeDescriptor,
            count_overlapping,
            frequency_report,
            joint_pattern_measure,
            limit,
            parse_source_spec,
            select_ap,
            source_periodic,
        )
        from cflab.experiments import ExperimentConfig, run_subsequence
        from cflab.reports import render_report

        config = ExperimentConfig(source=self.spec, n=self.n, b=self.b, k=self.k, cap=self.cap)
        with tracer.span("experiments.run_subsequence"):
            report = run_subsequence(config)
        with tracer.span("streams.random.take"):
            taken = len(parse_source_spec(self.spec).take(self.n))
        with tracer.span("stats.select_ap.chain"):
            chain = select_ap(limit(parse_source_spec(self.spec), self.n), self.b, self.k)
            sel = chain.take(self.n)
        replay = source_periodic(sel, (1,))
        with tracer.span("stats.frequency_report"):
            frequency_report(replay, [(1, 1)], [ModeDescriptor.overlap()], len(sel), max(1, self.n // 10))
        with tracer.span("stats.count_overlapping"):
            count_overlapping(sel, (1, 1))
        with tracer.span("measure.joint_pattern_measure.k2"):
            joint_pattern_measure(self.k, self.cap)
        with tracer.span("reports.render_report"):
            rendered = render_report(report, "json")
        return {"taken": taken, "positions": len(sel) - 1, "bytes": len(rendered)}

    def layers(self, spans: list[dict], counts: dict, obs: dict) -> dict:
        d = self_times(spans)
        take, chain, freq = d["streams.random.take"], d["stats.select_ap.chain"], d["stats.frequency_report"]
        joint = d["measure.joint_pattern_measure.k2"]
        run = d["experiments.run_subsequence"]
        return {
            "streams.random.take_s": take,
            "streams.random.digits_per_s": _rate(counts["taken"], take),
            "stats.select_ap.chain_s": chain - take,
            "stats.frequency_report_s": freq,
            "stats.count_s.overlap": d["stats.count_overlapping"],
            "stats.positions_per_s": _rate(counts["positions"], d["stats.count_overlapping"]),
            "measure.joint_s.k2": joint,
            "experiments.self_s": run - chain - freq - joint,
            "reports.render_s": d["reports.render_report"],
            "reports.bytes": counts["bytes"],
            "cli.overhead_s": d["cli.main"] - run,
        }


class PillaiConcat:
    """`cflab pillai` on the concatenation source, through the CLI."""

    name = "pillai-concat"
    PATTERNS = ("1", "2", "3", "1,1", "1,2", "2,1", "1,1,1", "1,2,1")

    def __init__(self, seed: int, n: int = 2_000_000):
        self.seed = seed  # recorded only: the workload is deterministic
        self.n = n
        self.digits = n

    def prepare(self) -> None:
        import cflab.cli  # noqa: F401  (the import is part of set-up)

        self.argv = ["pillai", "--source", "concat-normal", "--n", str(self.n)]
        for p in self.PATTERNS:
            self.argv += ["--pattern", p]
        self.argv += ["--expect", "non-normal"]

    def run(self, tracer: Tracer | None = None):
        with span(tracer, "cli.main"):
            return _cli(self.argv)

    def observe(self, result) -> dict:
        code, text = result
        return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def expected(self) -> dict:
        return {"exit": 0, "sha256": EXPECTED["pillai_concat_sha256"][str(self.n)]}

    def check(self, obs: dict, exp: dict) -> list[str]:
        return _mismatches(obs, exp)

    def bracket_width(self, obs: dict) -> float:
        return NO_BRACKET_WIDTH

    def trace(self, tracer: Tracer) -> dict:
        from cflab import (
            ModeDescriptor,
            count_disjoint,
            count_overlapping,
            frequency_report,
            parse_source_spec,
            parse_word,
            source_periodic,
        )
        from cflab.experiments import ExperimentConfig, run_pillai
        from cflab.reports import render_report

        patterns = [parse_word(p) for p in self.PATTERNS]
        config = ExperimentConfig(source="concat-normal", n=self.n, patterns=patterns)
        with tracer.span("experiments.run_pillai"):
            report = run_pillai(config)
        with tracer.span("streams.concat.take"):
            digits = parse_source_spec("concat-normal").take(self.n)
        replay = source_periodic(digits, (1,))
        modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
        with tracer.span("stats.frequency_report"):
            frequency_report(replay, patterns, modes, len(digits), max(1, self.n // 10))
        with tracer.span("stats.count_overlapping"):
            for w in patterns:
                count_overlapping(digits, w)
        with tracer.span("stats.count_disjoint"):
            for w in patterns:
                count_disjoint(digits, w)
        with tracer.span("reports.render_report"):
            rendered = render_report(report, "json")
        n = len(digits)
        return {
            "taken": n,
            "positions_overlap": sum(n - len(w) + 1 for w in patterns),
            "positions_disjoint": sum((n - len(w)) // len(w) + 1 for w in patterns),
            "bytes": len(rendered),
        }

    def layers(self, spans: list[dict], counts: dict, obs: dict) -> dict:
        d = self_times(spans)
        take, freq, run = d["streams.concat.take"], d["stats.frequency_report"], d["experiments.run_pillai"]
        counting = d["stats.count_overlapping"] + d["stats.count_disjoint"]
        positions = counts["positions_overlap"] + counts["positions_disjoint"]
        return {
            "streams.concat.take_s": take,
            "streams.concat.digits_per_s": _rate(counts["taken"], take),
            "stats.frequency_report_s": freq,
            "stats.count_s.overlap": d["stats.count_overlapping"],
            "stats.count_s.disjoint": d["stats.count_disjoint"],
            "stats.positions_per_s": _rate(positions, counting),
            "experiments.self_s": run - take - freq,
            "reports.render_s": d["reports.render_report"],
            "reports.bytes": counts["bytes"],
            "cli.overhead_s": d["cli.main"] - run,
        }


def _words(max_digit: int, max_len: int) -> int:
    return sum(max_digit**length for length in range(1, max_len + 1))


def _word_digits(max_digit: int, max_len: int) -> int:
    return sum(length * max_digit**length for length in range(1, max_len + 1))


class VerifyExact:
    """The exhaustive suites and two joint measures, through cflab.verify."""

    name = "verify-exact"

    def __init__(
        self,
        seed: int,
        reversal=(6, 6),
        dominance=(8, 6),
        pairwise=(8, 5),
        k2_cap: int = 1000,
        k3_cap: int = 150,
    ):
        self.seed = seed  # recorded only: the workload is deterministic
        self.families = {"reversal": reversal, "dominance": dominance, "pairwise": pairwise}
        self.k2_cap, self.k3_cap = k2_cap, k3_cap
        d = dominance[0]
        # partial quotients of every enumerated word and joint-measure term;
        # dominance keeps the words whose last digit is >= 2
        self.digits = (
            _word_digits(*reversal)
            + _word_digits(*dominance) * (d - 1) // d
            + _word_digits(*pairwise)
            + 3 * k2_cap
            + 4 * k3_cap**2
        )

    def prepare(self) -> None:
        import cflab.measure  # noqa: F401  (the imports are part of set-up)
        import cflab.verify  # noqa: F401

    def run(self, tracer: Tracer | None = None) -> dict:
        from cflab import joint_pattern_measure
        from cflab.verify import run_dominance, run_joint_k2, run_pairwise, run_reversal

        out = {}
        runners = {"reversal": run_reversal, "dominance": run_dominance, "pairwise": run_pairwise}
        for suite, runner in runners.items():
            with span(tracer, f"verify.{suite}"):
                out[suite] = runner(*self.families[suite])
        with span(tracer, "verify.joint_k2"):
            out["joint_k2"] = run_joint_k2(self.k2_cap)
        with span(tracer, "measure.joint_pattern_measure.k3"):
            out["k3"] = joint_pattern_measure(3, self.k3_cap)
        return out

    def observe(self, result: dict) -> dict:
        arg = result["k3"].lower.arg
        return {
            "checked": {s: result[s].checked for s in self.families},
            "passed": {s: result[s].passed for s in (*self.families, "joint_k2")},
            "k2_bracket": list(result["joint_k2"].measure.bracket()),
            "k3_bracket": list(result["k3"].bracket()),
            "k3_arg_bits": max(arg.numerator.bit_length(), arg.denominator.bit_length()),
        }

    def expected(self) -> dict:
        d, length = self.families["dominance"]
        return {
            "checked": {
                "reversal": _words(*self.families["reversal"]),
                "dominance": _words(d, length) * (d - 1) // d,
                "pairwise": _words(*self.families["pairwise"]),
            },
            "passed": {s: True for s in (*self.families, "joint_k2")},
        }

    def check(self, obs: dict, exp: dict) -> list[str]:
        errors = _mismatches(obs, exp) + _k2_errors(obs["k2_bracket"])
        # the exact k=3 lower bound at a higher cap lies inside every
        # bracket with a smaller cap
        ref = EXPECTED["k3_lower_bound"]
        lo, hi = obs["k3_bracket"]
        if not (self.k3_cap <= ref["cap"] and lo <= ref["value"] <= hi):
            errors.append(f"k=3 bracket [{lo}, {hi}] misses the cap-{ref['cap']} lower bound {ref['value']}")
        return errors

    def bracket_width(self, obs: dict) -> float:
        lo, hi = obs["k3_bracket"]
        return hi - lo

    def trace(self, tracer: Tracer) -> dict:
        from cflab import cylinder_interval, iter_words, joint_pattern_measure, reverse

        with tracer.span("measure.joint_pattern_measure.k2"):
            joint_pattern_measure(2, self.k2_cap)
        words = list(iter_words(*self.families["reversal"]))
        with tracer.span("cfcore.cylinder_interval"):
            for w in words:
                cylinder_interval(w)
                cylinder_interval(reverse(w))
        return {}

    def layers(self, spans: list[dict], counts: dict, obs: dict) -> dict:
        own = self_times(spans)
        out = {f"verify.{s}_s": own[f"verify.{s}"] for s in (*self.families, "joint_k2")}
        out.update(
            {
                "measure.joint_s.k2": own["measure.joint_pattern_measure.k2"],
                "measure.joint_s.k3": own["measure.joint_pattern_measure.k3"],
                "measure.joint_arg_bits.k3": obs["k3_arg_bits"],
                "cfcore.cylinder_interval_s": own["cfcore.cylinder_interval"],
            }
        )
        out.update({f"verify.{s}.checked": n for s, n in obs["checked"].items()})
        return out


WORKLOADS = {w.name: w for w in (SubsequenceRandom, PillaiConcat, VerifyExact)}
