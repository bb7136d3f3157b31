"""Counting correctness against independent oracles.

The core oracle is a deliberately naive quadratic rescan; the dyadic
decomposition test classifies every occurrence by the smallest aligned
power-of-two block containing it and reconciles the counters with that
classification, boundary term and all.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cflab
from cflab import (
    DigitSource,
    ModeDescriptor,
    count_aligned,
    count_chunked,
    count_disjoint,
    count_overlapping,
    frequency_report,
    parse_source_spec,
    source_periodic,
    source_rational,
)
from cflab.stats import COUNT_WINDOW, _planes


def naive_overlap(digits, w):
    k = len(w)
    return sum(1 for i in range(len(digits) - k + 1) if tuple(digits[i : i + k]) == tuple(w))


def naive_aligned(digits, stride, offset, w):
    k = len(w)
    count = 0
    i = 0
    while stride * i + offset + k <= len(digits):
        s = stride * i + offset
        if tuple(digits[s : s + k]) == tuple(w):
            count += 1
        i += 1
    return count


# ------------------------------------------------------------- examples

def test_count_overlapping_examples():
    assert count_overlapping([1, 1, 1], (1, 1)) == 2
    assert count_overlapping([2, 3, 2, 3], (5,)) == 0
    assert count_overlapping([1, 2, 1, 2, 1], (1, 2, 1)) == 2
    with pytest.raises(ValueError):
        count_overlapping([1, 2], ())


def test_count_disjoint_examples():
    assert count_disjoint([1, 1, 1], (1, 1)) == 1
    assert count_disjoint([2, 3, 2, 3], (2, 3)) == 2
    assert count_disjoint([3, 2, 3], (2, 3)) == 0


def test_count_aligned_examples():
    digits = [2, 3, 2, 3]
    assert count_aligned(digits, 2, 0, (2, 3)) == count_disjoint(digits, (2, 3))
    assert count_aligned([9, 1, 9, 9, 1, 9], 3, 1, (1,)) == 2
    assert count_aligned([1, 2, 3, 4], 4, 2, (3, 4)) == 1
    with pytest.raises(ValueError):
        count_aligned([1, 2, 3], 2, 2, (1, 2))


# ----------------------------------------------------- oracle equivalence

def test_counters_equal_naive_oracle_on_random_streams():
    # the counters take any sequence: a list, a tuple and an array of the same digits
    rng = random.Random(777)
    for trial in range(1000):
        n = rng.randint(1, 200)
        digits = [rng.randint(1, 4) for _ in range(n)]
        k = rng.randint(1, 3)
        w = tuple(rng.randint(1, 4) for _ in range(k))
        stride = rng.randint(k, k + 3)
        offset = rng.randint(0, stride - k)
        overlap, disjoint = naive_overlap(digits, w), naive_aligned(digits, k, 0, w)
        aligned = naive_aligned(digits, stride, offset, w)
        for seq in (digits, tuple(digits), array("I", digits)):
            assert count_overlapping(seq, w) == overlap
            assert count_disjoint(seq, w) == disjoint
            assert count_aligned(seq, stride, offset, w) == aligned
            assert count_chunked(seq, w, ModeDescriptor.overlap(), 2) == overlap
            assert count_chunked(seq, w, ModeDescriptor.disjoint(), 2) == disjoint
            mode = ModeDescriptor.aligned(stride, offset)
            assert count_chunked(seq, w, mode, 2) == aligned
    assert count_overlapping(range(1, 5), (2, 3)) == 1


# ------------------------------------------------------ partition identity

def test_aligned_partition_identity():
    # count of s' at offset p within stride-m blocks equals the sum over the
    # distinct full blocks (with s' at p) of their own aligned counts
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(10, 120)
        digits = [rng.randint(1, 3) for _ in range(n)]
        k = rng.randint(1, 2)
        s = tuple(rng.randint(1, 3) for _ in range(k))
        m = rng.randint(k + 1, k + 4)
        p = rng.randint(0, m - k)

        blocks = {}
        i = 0
        while m * (i + 1) <= n:
            block = tuple(digits[m * i : m * (i + 1)])
            if block[p : p + k] == s:
                blocks[block] = blocks.get(block, 0) + 1
            i += 1
        total = sum(count_aligned(digits[: m * (n // m)], m, 0, block) for block in blocks)
        # restrict the left side to full blocks as well
        left = count_aligned(digits[: m * (n // m)], m, p, s)
        assert left == total
        for block, occurrences in blocks.items():
            assert count_aligned(digits[: m * (n // m)], m, 0, block) == occurrences


# ---------------------------------------------------- dyadic decomposition

def _dyadic_level(i: int, k: int) -> int:
    """Smallest p such that the aligned block of length 2^(p-1) k containing
    position i also contains the whole occurrence [i, i+k)."""
    p = 1
    while True:
        length = (1 << (p - 1)) * k
        if i % length + k <= length:
            return p
        p += 1


def test_dyadic_decomposition_of_overlapping_count():
    rng = random.Random(31)
    for k in (1, 2, 3):
        for _ in range(25):
            n = rng.randint(k, 512)
            digits = [rng.randint(1, 3) for _ in range(n)]
            s = tuple(rng.randint(1, 3) for _ in range(k))

            # explicit classification of every occurrence
            per_level: dict[int, int] = {}
            boundary = 0
            for i in range(n - k + 1):
                if tuple(digits[i : i + k]) != s:
                    continue
                p = _dyadic_level(i, k)
                length = (1 << (p - 1)) * k
                if (i // length + 1) * length <= n:
                    per_level[p] = per_level.get(p, 0) + 1
                else:
                    boundary += 1

            # reproduce each level's count from the aligned counters: level 1
            # is the disjoint count; level p >= 2 sums the k-1 straddling
            # offsets around the half-block boundary
            total = 0
            p = 1
            while (1 << (p - 1)) * k <= n:
                length = (1 << (p - 1)) * k
                prefix = digits[: length * (n // length)]
                if p == 1:
                    level_count = count_aligned(prefix, length, 0, s)
                else:
                    half = length // 2
                    level_count = sum(
                        count_aligned(prefix, length, half - j, s)
                        for j in range(1, k)
                        if 0 <= half - j
                    )
                assert level_count == per_level.get(p, 0), (p, k, n)
                total += level_count
                p += 1

            assert count_overlapping(digits, s) == total + boundary
            max_levels = p
            assert boundary <= (k - 1) * max_levels


# --------------------------------------------------------------- chunking

def test_chunked_counting_matches_single_pass():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 400)
        digits = [rng.randint(1, 3) for _ in range(n)]
        k = rng.randint(1, 3)
        w = tuple(rng.randint(1, 3) for _ in range(k))
        for jobs in (1, 2, 3, 8):
            assert count_chunked(digits, w, ModeDescriptor.overlap(), jobs) == count_overlapping(
                digits, w
            )
            assert count_chunked(digits, w, ModeDescriptor.disjoint(), jobs) == count_disjoint(
                digits, w
            )
            stride = k + 2
            mode = ModeDescriptor.aligned(stride, 1)
            assert count_chunked(digits, w, mode, jobs) == count_aligned(digits, stride, 1, w)


def test_count_chunked_refuses_jobs_below_1():
    with pytest.raises(ValueError, match="need jobs >= 1"):
        count_chunked([1, 2], (1,), ModeDescriptor.overlap(), 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=10),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(1, 12),
)
def test_chunked_counting_is_the_single_pass_count_at_any_jobs(digits, w, extra, shift, jobs):
    # jobs often exceeds the number of starts here, and some starts have no room
    stride = len(w) + extra
    offset = min(shift, extra)
    assert count_chunked(digits, w, ModeDescriptor.overlap(), jobs) == naive_overlap(digits, w)
    assert count_chunked(digits, w, ModeDescriptor.disjoint(), jobs) == naive_aligned(
        digits, len(w), 0, w
    )
    mode = ModeDescriptor.aligned(stride, offset)
    assert count_chunked(digits, w, mode, jobs) == naive_aligned(digits, stride, offset, w)


# -------------------------------------------------------- frequency report

def test_frequency_report_periodic_ones():
    src = source_periodic((), (1,))
    stats = frequency_report(
        src,
        [(1, 1)],
        [ModeDescriptor.overlap(), ModeDescriptor.disjoint()],
        1000,
        checkpoint_every=250,
    )
    assert stats.n == 1000 and not stats.truncated
    overlap, disjoint = ModeDescriptor.overlap(), ModeDescriptor.disjoint()
    final = stats.checkpoints[-1][1]
    assert overlap.frequency(final[(1, 1), overlap], 2, 1000) == Fraction(999, 1000)
    assert disjoint.frequency(final[(1, 1), disjoint], 2, 1000) == Fraction(500, 500)
    at = dict(stats.checkpoints)
    assert list(at) == [250, 500, 750, 1000]
    assert overlap.frequency(at[250][(1, 1), overlap], 2, 250) == Fraction(249, 250)


def test_frequency_report_truncates_and_flags():
    stats = frequency_report(
        source_rational(7, 16),
        [(2,)],
        [ModeDescriptor.overlap()],
        100,
        checkpoint_every=10,
    )
    assert stats.truncated
    assert stats.n == 3
    assert stats.checkpoints[-1] == (3, {((2,), ModeDescriptor.overlap()): 2})


@st.composite
def fold_cases(draw, alphabet=st.integers(1, 3)):
    # a source's chunks are lists or tuples, and the fold reads either as runs
    chunk = st.lists(alphabet, max_size=9).flatmap(lambda c: st.sampled_from([c, tuple(c)]))
    chunks = draw(st.lists(chunk, max_size=12))
    patterns = draw(
        st.lists(
            st.lists(alphabet, min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    longest = max(map(len, patterns))
    stride = draw(st.integers(longest, longest + 3))
    offset = draw(st.integers(0, stride - longest))
    total = sum(map(len, chunks))
    n = draw(st.integers(longest, max(longest, total) + 5))
    checkpoint_every = draw(st.integers(1, 25))
    window = draw(st.sampled_from([1, 2, 3, 7, COUNT_WINDOW]))
    return chunks, patterns, (stride, offset), n, checkpoint_every, window


def check_fold(case):
    chunks, patterns, (stride, offset), n, checkpoint_every, window = case
    overlap, disjoint = ModeDescriptor.overlap(), ModeDescriptor.disjoint()
    aligned = ModeDescriptor.aligned(stride, offset)
    source = DigitSource(iter(chunks))
    with mock.patch("cflab.stats.COUNT_WINDOW", window):
        result = frequency_report(
            source, patterns, [overlap, disjoint, aligned], n, checkpoint_every
        )

    stream = list(itertools.chain.from_iterable(chunks))
    digits = stream[:n]
    assert result.n == len(digits)
    assert result.truncated == (len(digits) < n)
    # the fold pulls no digit past n: the source hands out the rest unread,
    # as subsequence's count of the digits among the first n relies on
    assert source.emitted == result.n
    assert [d for run in source.chunks() for d in run] == stream[result.n :]
    marks = list(range(checkpoint_every, len(digits) + 1, checkpoint_every))
    if not marks or marks[-1] != len(digits):
        marks.append(len(digits))
    assert [mark for mark, _ in result.checkpoints] == marks
    for mark, snapshot in result.checkpoints:
        prefix = digits[:mark]
        for w in patterns:
            assert snapshot[(w, overlap)] == count_overlapping(prefix, w)
            assert snapshot[(w, disjoint)] == count_aligned(prefix, len(w), 0, w)
            assert snapshot[(w, aligned)] == count_aligned(prefix, stride, offset, w)
    assert result.checkpoints[-1][0] == result.n


@settings(max_examples=300, deadline=None)
@given(fold_cases())
# one digit: overlap, disjoint and aligned(1, 0) share their starts, each keeps its count
@example(([[1, 2, 1, 1], [1, 3, 1]], [(1,)], (1, 0), 7, 3, 2))
# a full window then one digit: the stride-5 mask must reach the window's last
# digit, a 1 at an aligned start
@example((
    [([1, 2, 1, 3, 1] * (COUNT_WINDOW // 5 + 1))[: COUNT_WINDOW + 1]],
    [(1, 2), (1,)], (5, 0), COUNT_WINDOW + 1, COUNT_WINDOW + 1, COUNT_WINDOW,
))
# a pattern repeating its digit, over runs of it that cross windows
@example(([[1, 1, 1, 1], [2, 1, 1, 1, 1, 1]], [(1, 1, 1)], (4, 1), 10, 4, 3))
def test_frequency_report_fold_matches_list_counts(case):
    # counts invariant under any chunking and any window, seams included
    check_fold(case)


@settings(max_examples=300, deadline=None)
@given(fold_cases(st.sampled_from([1, 2, 254, 255, 256, 10**20])))
def test_frequency_report_fold_counts_digits_past_a_byte(case):
    # digits of 255 and up, and their patterns, are counted on the same
    # byte planes as small ones
    check_fold(case)


def digits_of(planes):
    return [sum(b << 8 * j for j, b in enumerate(column)) for column in zip(*planes)]


@pytest.mark.parametrize(
    "window",
    [[[]], [[1]], [(254,)], [[255]], [(256,)], [[65535]], [[65536]], [[2**24]], [[2**32 - 1]],
     [(2**32,)], [[2**70]],
     [[], [1, 254], (255, 256, 65535), [], [65536, 2**24], (2**32 - 1, 3)],
     # a long window that one digit past the array cell sends to int.to_bytes,
     # after a whole run went into the array
     [list(range(1, 9000)), (2**40,) + (256, 2**32 - 1) * 2000]],
)
def test_planes_hold_each_digits_bytes(window):
    # each window is given as its runs, lists or tuples, as the fold pulls it;
    # as many planes as the widest digit has bytes, past the array cell too
    digits = [d for run in window for d in run]
    planes = _planes(window, set(digits))
    assert digits_of(planes) == digits
    assert len(planes) == max(1, -(-max(digits, default=0).bit_length() // 8))


# small digits, one nonzero byte at any place of a 32-bit cell, any 32-bit
# digit, the array's edge, and digits far past it
magnitudes = st.one_of(
    st.integers(1, 300),
    st.builds(lambda b, j: b << 8 * j, st.integers(1, 255), st.integers(0, 3)),
    st.integers(1, 2**32 - 1),
    st.integers(2**32 - 2, 2**32 + 1),
    st.integers(1, 2**80),
)


pattern_digits = st.sampled_from([1, 2, 255, 256, 2**32 - 1, 2**32, 2**40, 2**40 + 1])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(pattern_digits, magnitudes), max_size=60),
    st.lists(pattern_digits, min_size=1, max_size=3).map(tuple),
)
# windows of 7: digits below a byte, then past the array cell with a seam
# into both; the pattern digit is wider than the first window's planes, and
# its low byte is a digit there
@example(
    [1, 2, 1, 1, 3, 1, 1]
    + [2**40 + 1, 1, 2**40 + 2**32 + 1, 1, 2**40, 1, 2**40 + 1]
    + [1, 2, 2**40 + 257, 1, 1, 3, 1],
    (2**40 + 1, 1),
)
# digits that agree with 256 on every plane but one, in an array window and
# in one past the array cell
@example(
    [256, 1, 512, 1, 256 + 2**16, 1, 256] + [1, 256 + 2**32, 1, 2**40 + 256, 1, 256, 1],
    (256, 1),
)
# a seam of digits past the array cell carried into a window of narrow ones,
# and a match across it
@example(
    [2**40, 2**40 + 1, 1, 1, 1, 2**40, 2**40 + 1] + [1, 2, 1, 1, 2**32 - 1, 1, 1],
    (2**40, 2**40 + 1, 1),
)
# a seam of narrow digits carried into a window past the array cell
@example(
    [1, 2, 1, 1, 3, 256, 1] + [2**40, 1, 256, 1, 2**40, 2**32, 1],
    (256, 1, 2**40),
)
def test_frequency_report_over_mixed_magnitudes_matches_list_counts(digits, w):
    # the fold reads byte planes, the list counters the digits themselves
    n = len(digits)
    assume(n >= len(w))
    modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
    with mock.patch("cflab.stats.COUNT_WINDOW", 7):
        stats = frequency_report(DigitSource(iter([digits])), [w], modes, n, n)
    counts = stats.checkpoints[-1][1]
    assert counts[(w, modes[0])] == count_overlapping(digits, w)
    assert counts[(w, modes[1])] == count_disjoint(digits, w)


def test_frequency_report_counts_a_repeated_pattern_or_mode_once():
    # each distinct (pattern, mode) is one count, over windows of 3 with a seam
    overlap, disjoint = ModeDescriptor.overlap(), ModeDescriptor.disjoint()
    digits = [1, 1, 2, 1, 1, 1, 2, 1]
    with mock.patch("cflab.stats.COUNT_WINDOW", 3):
        stats = frequency_report(
            DigitSource(iter([digits])), [(1, 1), (2,), [1, 1]], [overlap, disjoint, overlap], 8, 8
        )
    assert stats.checkpoints == [(8, {
        ((1, 1), overlap): 3,
        ((1, 1), disjoint): 2,
        ((2,), overlap): 2,
        ((2,), disjoint): 2,
    })]
    assert list(stats.checkpoints[-1][1]) == [
        ((1, 1), overlap), ((1, 1), disjoint), ((2,), overlap), ((2,), disjoint)
    ]


def test_frequency_report_memory_is_flat_in_n():
    # a fixed checkpoint spacing keeps the snapshots negligible, so the
    # peak is the window alone and must not grow with n
    modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
    peaks = []
    for n in (200_000, 2_000_000):
        source = parse_source_spec("periodic:,1")
        tracemalloc.start()
        try:
            result = frequency_report(source, [(1,)], modes, n, 100_000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.checkpoints[-1][1][((1,), modes[0])] == n
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_frequency_report_memory_is_bounded_by_the_window_not_the_stride():
    # a stride past the window admits one start in it, so its mask is the
    # window's length: 100 bytes here, not 10**7
    mode = ModeDescriptor.aligned(10**7, 0)
    tracemalloc.start()
    try:
        frequency_report(source_periodic((), (1,)), [(1,)], [mode], 100, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


@pytest.mark.parametrize(
    "stride,offset", [(10**7, 0), (10**7, 3), (10**30, 0), (10**30, 10**29)]
)
def test_fold_and_list_counter_agree_at_strides_past_the_digits(stride, offset):
    # one start at most, and none past the digits; islice takes no bound
    # past sys.maxsize, nor bytes() a length that large
    digits = [1, 2] * 50
    mode = ModeDescriptor.aligned(stride, offset)
    stats = frequency_report(source_periodic((), (1, 2)), [(1,), (2, 1)], [mode], 100, 100)
    for w in [(1,), (2, 1)]:
        count = count_aligned(digits, stride, offset, w)
        assert stats.checkpoints[-1][1][w, mode] == count == naive_aligned(digits, stride, offset, w)
    assert count_aligned(digits, stride, 0, (1,)) == 1


# 65,536 digits of 1 to 3, one of them replaced by 2**8000, a digit of 1,001
# bytes; the patterns hold no digit past the array cell but 2**40, which the
# window does not hold.  Prints the peak RSS growth of the count in MB, then
# the final counts.
WIDE_DIGIT_RUN = """
import json, random, resource
from cflab import DigitSource, ModeDescriptor, frequency_report
rng = random.Random(5)
digits = [rng.randint(1, 3) for _ in range(65536)]
digits[1000] = 2**8000
patterns = [(1,), (1, 2), (3, 1, 2), (2**40,)]
modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stats = frequency_report(DigitSource(iter([digits])), patterns, modes, len(digits), len(digits))
grew = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(grew, json.dumps([stats.checkpoints[-1][1][w, m] for w in patterns for m in modes]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
def test_a_wide_digit_no_pattern_holds_keeps_the_planes_narrow():
    # written at the wide digit's width, the window's planes would take about
    # 130 MB (2 x 65,536 x 1,001 bytes); the digits no pattern holds are
    # written as 0, so they take a few hundred KB
    env = {**os.environ, "PYTHONPATH": str(Path(cflab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", WIDE_DIGIT_RUN], capture_output=True, env=env, timeout=60, check=True
    )
    grew, counts = proc.stdout.decode().split(" ", 1)
    assert float(grew) < 16, grew
    rng = random.Random(5)
    digits = [rng.randint(1, 3) for _ in range(65536)]
    digits[1000] = 2**8000
    patterns = [(1,), (1, 2), (3, 1, 2), (2**40,)]
    expected = [f(digits, w) for w in patterns for f in (count_overlapping, count_disjoint)]
    assert json.loads(counts) == expected


def test_frequency_report_validation():
    with pytest.raises(ValueError):
        frequency_report(source_periodic((), (1,)), [], [ModeDescriptor.overlap()], 10, 5)
    with pytest.raises(ValueError):
        frequency_report(source_periodic((), (1,)), [(1, 1, 1)], [ModeDescriptor.overlap()], 2, 5)
    with pytest.raises(ValueError):
        frequency_report(source_periodic((), (1,)), [(1,)], [ModeDescriptor.overlap()], 10, 0)


@st.composite
def mode_cases(draw):
    length = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["overlap", "disjoint", "aligned"]))
    if kind == "overlap":
        mode, stride, offset = ModeDescriptor.overlap(), 1, 0
    elif kind == "disjoint":
        mode, stride, offset = ModeDescriptor.disjoint(), length, 0
    else:
        stride = draw(st.integers(length, length + 4))
        offset = draw(st.integers(0, stride - length))
        mode = ModeDescriptor.aligned(stride, offset)
    n = draw(st.integers(0, 40))
    count = draw(st.integers(0, 40))
    return mode, stride, offset, length, n, count


@settings(max_examples=400, deadline=None)
@given(mode_cases())
@example((ModeDescriptor.overlap(), 1, 0, 3, 2, 0))  # n < |w|
@example((ModeDescriptor.disjoint(), 3, 0, 3, 2, 0))
@example((ModeDescriptor.aligned(5, 2), 5, 2, 2, 3, 0))  # n < o + |w|, o = s - |w|
@example((ModeDescriptor.aligned(5, 3), 5, 3, 2, 23, 4))  # o = s - |w|
def test_mode_starts_and_frequency_match_definitions(case):
    mode, stride, offset, length, n, count = case
    starts = mode.starts(length, n)
    assert list(starts) == [i for i in range(n) if i % stride == offset and i + length <= n]
    if mode.kind == "overlap":
        denom = n
    elif mode.kind == "disjoint":
        denom = n // length
    else:
        denom = (n - offset - length) // stride + 1 if n >= offset + length else 0
    expected = Fraction(count, denom) if denom else Fraction(0)
    assert mode.frequency(count, length, n) == expected


def test_mode_descriptor_contracts():
    assert ModeDescriptor.disjoint().starts(3, 10).step == 3
    assert ModeDescriptor.overlap().starts(3, 10).step == 1
    assert ModeDescriptor.aligned(5, 2).name == "aligned(5,2)"
    with pytest.raises(ValueError):
        ModeDescriptor.aligned(3, 2).starts(2, 0)
    with pytest.raises(ValueError):
        ModeDescriptor.aligned(3, 2).starts(2, 10)
    with pytest.raises(ValueError):
        ModeDescriptor.aligned(0, 0)
