"""Experiment reports against list oracles over the same digits."""

import random
import time
from fractions import Fraction

import pytest

from cflab import count_disjoint, count_overlapping, measure_of_cylinder, parse_source_spec
from cflab.cfcore import UsageError, convergent_pair
from cflab.experiments import ExperimentConfig, run_pillai, run_subsequence
from cflab.measure import DEFAULT_CAP


def _finite_spec(length: int, seed: int) -> str:
    rng = random.Random(seed)
    p, q, _, _ = convergent_pair(tuple(rng.choice((1, 1, 1, 2, 3)) for _ in range(length)))
    return f"rational:{p}/{q}"


# n cuts a source chunk: periodic chunks hold 1023 digits after the prefix,
# random:seed=3 about 1200, and the finite expansion is one 40-digit chunk
@pytest.mark.parametrize(
    "spec,n",
    [
        ("periodic:3;1,2,1", 1500),
        ("periodic:;1,1,2", 2500),
        # n one past the first 1023-digit chunk: at b=1, k=2 the last selected
        # digit ends that chunk, and digit n is read only to count source_n
        ("periodic:;1,1,2", 1024),
        ("random:seed=3", 3000),
        (_finite_spec(40, 5), 27),
        (_finite_spec(40, 5), 40),  # past the end, after the last selected digit at k=2, b=1
        (_finite_spec(40, 5), 60),  # past the end: a truncated report
    ],
)
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_subsequence_counts_match_list_oracle(spec, n, b, k):
    selected = parse_source_spec(spec).take(n)[b - 1 :: k]
    report = run_subsequence(ExperimentConfig(source=spec, n=n, b=b, k=k, cap=5))
    assert report["source_n"] == len(parse_source_spec(spec).take(n))
    assert report["selected_n"] == len(selected)
    assert report["truncated"] == (len(selected) < (n - b) // k + 1)
    final = report["rows"][-1]
    assert final["n"] == len(selected)
    assert final["count"] == count_overlapping(selected, (1, 1))
    assert report["summary"]["selected_freq"] == final["freq_float"]


@pytest.mark.parametrize(
    "spec,n", [("random:seed=4", 5000), ("periodic:1;2,1", 777), (_finite_spec(40, 6), 300)]
)
def test_pillai_summary_is_the_final_rows(spec, n):
    patterns = [(1,), (2,), (1, 1), (1, 2)]
    report = run_pillai(ExperimentConfig(source=spec, n=n, patterns=patterns, checkpoint_every=97))
    digits = parse_source_spec(spec).take(n)
    final = {(row["pattern"], row["mode"]): row for row in report["rows"] if row["n"] == len(digits)}
    assert len(final) == 2 * len(patterns)
    for w, entry in zip(patterns, report["summary"]):
        name = entry["pattern"]
        overlap = Fraction(count_overlapping(digits, w), len(digits))
        blocks = len(digits) // len(w)
        disjoint = Fraction(count_disjoint(digits, w), blocks) if blocks else Fraction(0)
        assert entry["overlap_freq"] == final[name, "overlap"]["freq_float"] == float(overlap)
        assert entry["disjoint_freq"] == final[name, "disjoint"]["freq_float"] == float(disjoint)
        assert entry["gamma_float"] == measure_of_cylinder(w).float


def test_experiment_config_by_keyword_and_by_position():
    by_keyword = ExperimentConfig(source="periodic:,1", n=95, patterns=[(1,)], k=3)
    assert by_keyword == ExperimentConfig("periodic:,1", 95, [(1,)], 1, 3)
    assert by_keyword.checkpoint_every == 9  # n // 10
    assert ExperimentConfig("periodic:,1", 5).checkpoint_every == 1  # at least 1
    bare = ExperimentConfig("periodic:,1", 50)
    assert (bare.patterns, bare.b, bare.k, bare.cap) == ([], 1, 2, DEFAULT_CAP)
    assert (bare.seed, bare.tolerance, bare.jobs) == (None, 0.005, 1)
    # each config gets its own pattern list
    assert bare.patterns is not ExperimentConfig("periodic:,1", 50).patterns
    given = ExperimentConfig("random", 60, [(1,)], 2, 4, 7, 5, 3, 0.25, 8)
    assert given.echo("source", "n", "checkpoint_every", "seed", "b", "k", "cap") == {
        "source": "random", "n": 60, "checkpoint_every": 3, "seed": 5, "b": 2, "k": 4, "cap": 7
    }
    assert (given.tolerance, given.jobs) == (0.25, 8)
    for name in ExperimentConfig._fields:
        with pytest.raises(AttributeError):
            setattr(given, name, getattr(bare, name))


@pytest.mark.parametrize(
    "options,message",
    [
        ({"n": 10**8 + 1}, "n must be at most 100,000,000, got 100,000,001"),
        ({"tolerance": float("nan")}, "tolerance must be finite and > 0, got nan"),
        ({"tolerance": 0.0}, "tolerance must be finite and > 0, got 0.0"),
        # ints too large for a float, of either sign, are refused, not overflowed
        ({"tolerance": 10**400}, "tolerance must be finite and > 0, got " + "1" + "0" * 39 + "..."),
        ({"tolerance": -(10**400)}, "tolerance must be finite and > 0, got -" + "1" + "0" * 38 + "..."),
        ({"tolerance": float("inf")}, "tolerance must be finite and > 0, got inf"),
        ({"checkpoint_every": 0}, "need checkpoint_every >= 1, got 0"),
        # fields a run cannot use are refused before any source is built, and
        # as usage: a bool is no int, and a pattern must be a non-empty word
        ({"patterns": [()]}, "pattern must be non-empty"),
        ({"patterns": [(1,), ()]}, "pattern must be non-empty"),
        ({"patterns": [(0,)]}, "bad pattern: partial quotients must be integers >= 1, got 0"),
        ({"patterns": [("1",)]}, "bad pattern: partial quotients must be integers >= 1, got '1'"),
        ({"patterns": [(1.0,)]}, "bad pattern: partial quotients must be integers >= 1, got 1.0"),
        ({"patterns": [(True, 2)]}, "bad pattern: partial quotients must be integers >= 1, got True"),
        ({"n": 1000.0}, "n must be an int, got 1000.0"),
        ({"n": None}, "n must be an int, got None"),
        ({"checkpoint_every": 100.0}, "checkpoint_every must be an int, got 100.0"),
        ({"k": 2.0}, "k must be an int, got 2.0"),
        ({"b": 1.5}, "b must be an int, got 1.5"),
        ({"cap": 10.0}, "cap must be an int, got 10.0"),
        ({"seed": "7"}, "seed must be an int, got '7'"),
        ({"jobs": True}, "jobs must be an int, got True"),
        ({"k": True}, "k must be an int, got True"),
        ({"tolerance": True}, "tolerance must be a number, got True"),
        ({"tolerance": "0.1"}, "tolerance must be a number, got '0.1'"),
    ],
)
def test_experiment_config_refusals_keep_their_messages(options, message):
    with pytest.raises(UsageError) as refused:
        ExperimentConfig(**{"source": "periodic:,1", "n": 100, **options})
    assert str(refused.value) == message


def test_repeated_pattern_check_names_the_first_repeat():
    # patterns given as lists are accepted, and a list repeats its tuple
    ExperimentConfig(source="periodic:,1", n=100, patterns=[[1, 2], [2, 1]])
    for patterns, named in [([(2,), (1,), (3,), (1,), (2,)], "1"), ([[1, 2], (1, 2)], "1,2")]:
        with pytest.raises(UsageError, match=f"^pattern {named} is given more than once$"):
            ExperimentConfig(source="periodic:,1", n=100, patterns=patterns)


def test_patterns_given_as_lists_run_as_tuples():
    as_lists = ExperimentConfig(source="periodic:,1,2", n=100, patterns=[[1, 2], [2, 1]])
    as_tuples = ExperimentConfig(source="periodic:,1,2", n=100, patterns=[(1, 2), (2, 1)])
    assert run_pillai(as_lists) == run_pillai(as_tuples)
    assert as_lists.patterns == [(1, 2), (2, 1)]


def test_config_keeps_its_own_pattern_list():
    given = [(1,)]
    config = ExperimentConfig(source="periodic:,1,2", n=100, patterns=given)
    given.append((1,))  # a repeat the check never saw
    assert config.patterns == [(1,)]
    assert [entry["pattern"] for entry in run_pillai(config)["summary"]] == ["1"]


@pytest.mark.parametrize(
    "args,kwargs",
    [
        (("periodic:,1",), {}),  # no n
        (("periodic:,1", 100), {"eps": 1e-9}),  # no such field
        (("periodic:,1", 100), {"source": "periodic:,2"}),  # source twice
        (("periodic:,1", 100, [(1,)], 1, 2, 5, None, 10, 0.005, 1, 7), {}),  # 11 values
    ],
)
def test_experiment_config_refuses_a_bad_call_with_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ExperimentConfig(*args, **kwargs)


def test_thirty_thousand_distinct_patterns_reach_the_row_limit_at_once():
    # the repeat check is one pass, so the row limit refuses the run in well under a second
    patterns = [(a, b) for a in range(1, 201) for b in range(1, 151)]
    start = time.perf_counter()
    with pytest.raises(UsageError, match="the report would have 600000 rows"):
        run_pillai(ExperimentConfig(source="periodic:,1", n=100, patterns=patterns))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "options,message",
    [
        # a line break the spec parser would strip, one it would not, and no str at all
        ({"source": "random:seed=1\n"}, r"source must be a printable str, got 'random:seed=1\n'"),
        ({"source": "periodic:,1\n,2"}, r"source must be a printable str, got 'periodic:,1\n,2'"),
        ({"source": 5}, "source must be a printable str, got 5"),
        ({"jobs": 0}, "need jobs >= 1, got 0"),
        ({"jobs": -3}, "need jobs >= 1, got -3"),
    ],
)
def test_experiment_config_refuses_a_source_it_cannot_echo_and_jobs_below_1(options, message):
    with pytest.raises(UsageError) as refused:
        ExperimentConfig(**{"source": "periodic:,1", "n": 100, **options})
    assert str(refused.value) == message
