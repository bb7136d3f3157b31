"""Streaming occurrence counters: overlapping, disjoint, aligned, AP-selected.

Counting is a pure fold over the digit list, so chunked execution with a
seam carry of |w|-1 digits merges back to the single-pass result exactly;
`jobs` only changes the work partition, never a count.  Digit positions are
1-based in reports to match the usual a1, a2, ... numbering, while start
indices in code are plain 0-based offsets.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .cfcore import Word, word
from .streams import DigitSource


@dataclass(frozen=True)
class ModeDescriptor:
    """How occurrences are admitted: every shift, or a fixed residue class.

    kind is one of "overlap", "disjoint", "aligned"; disjoint is the
    aligned mode with stride equal to the pattern length and offset 0, kept
    distinct only for labeling and its n/k frequency denominator.
    """

    kind: str
    stride: int | None = None
    offset: int = 0

    @staticmethod
    def overlap() -> "ModeDescriptor":
        return ModeDescriptor("overlap")

    @staticmethod
    def disjoint() -> "ModeDescriptor":
        return ModeDescriptor("disjoint")

    @staticmethod
    def aligned(stride: int, offset: int) -> "ModeDescriptor":
        if stride < 1 or offset < 0:
            raise ValueError("need stride >= 1 and offset >= 0")
        return ModeDescriptor("aligned", stride, offset)

    def bound_stride(self, pattern_len: int) -> int:
        """Effective stride once a pattern length is known (1 for overlap)."""
        if self.kind == "overlap":
            return 1
        if self.kind == "disjoint":
            return pattern_len
        if self.offset > self.stride - pattern_len:
            raise ValueError(
                f"offset {self.offset} leaves no room for a length-{pattern_len} "
                f"pattern in stride {self.stride}"
            )
        return self.stride

    @property
    def name(self) -> str:
        if self.kind == "aligned":
            return f"aligned({self.stride},{self.offset})"
        return self.kind


def _count_positions(digits: Sequence[int], w: Sequence[int], positions: range) -> int:
    """Matches of w at the given start offsets; callers clamp the range."""
    k = len(w)
    if k == 1:
        return digits[positions.start : positions.stop : positions.step].count(w[0])
    wl = list(w)
    w0 = wl[0]
    count = 0
    for s in positions:
        if digits[s] == w0 and digits[s : s + k] == wl:
            count += 1
    return count


def _clamped(start: int, stop: int, step: int, lo: int, hi: int) -> range:
    """The sub-range of range(start, stop, step) with values in [lo, hi)."""
    stop = min(stop, hi)
    if start < lo:
        start += step * ((lo - start + step - 1) // step)
    return range(start, max(start, stop), step)


def _check_pattern(w: Word) -> Word:
    w = word(w)
    if len(w) == 0:
        raise ValueError("pattern must be non-empty")
    return w


def count_overlapping(digits: Sequence[int], w: Word) -> int:
    """Occurrences at every shift, fully contained in the digit list."""
    w = _check_pattern(w)
    return _count_positions(digits, w, range(0, max(0, len(digits) - len(w) + 1)))


def count_aligned(digits: Sequence[int], stride: int, offset: int, w: Word) -> int:
    """Occurrences starting at offset within non-overlapping stride blocks."""
    w = _check_pattern(w)
    if stride < 1:
        raise ValueError("need stride >= 1")
    if not 0 <= offset <= stride - len(w):
        raise ValueError(f"offset {offset} out of range for stride {stride}, |w|={len(w)}")
    stop = max(0, len(digits) - len(w) + 1)
    return _count_positions(digits, w, range(offset, max(offset, stop), stride))


def count_disjoint(digits: Sequence[int], w: Word) -> int:
    """Occurrences at shifts that are multiples of the pattern length."""
    w = _check_pattern(w)
    return count_aligned(digits, len(w), 0, w)


def admissible_positions(mode: ModeDescriptor, pattern_len: int, n: int) -> int:
    """Denominator for frequencies: n for overlap, block count otherwise.

    Overlap keeps the shift-count normalization n even though only
    n - |w| + 1 starts fit; the difference is O(|w|/n) and the convention
    matches the asymptotic definition being tested.
    """
    if mode.kind == "overlap":
        return n
    stride = mode.bound_stride(pattern_len)
    offset = mode.offset if mode.kind == "aligned" else 0
    if n < offset + pattern_len:
        return 0
    return (n - offset - pattern_len) // stride + 1


def joint_occurrence_count(digits: Sequence[int], k: int) -> int:
    """Overlapping [1,1] count on an AP-selected stream.

    Named separately because the constant this estimates is the joint
    measure of first-digit-1 at distance k, not the [1,1] cylinder measure.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return count_overlapping(digits, (1, 1))


def select_ap(source: DigitSource, b: int, k: int) -> DigitSource:
    """Digits at 1-based positions b, b+k, b+2k, ... of the source.

    Works chunk by chunk: each source chunk is sliced, and the phase of the
    progression carries over to the next chunk.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    if k < 2:
        raise ValueError("need k >= 2")

    def gen() -> Iterator[Sequence[int]]:
        skip = b - 1  # digits to pass over before the next selected one
        for chunk in source.chunks():
            size = len(chunk)
            if skip >= size:
                skip -= size
                continue
            yield chunk[skip::k]
            skip = (skip - size) % k
        out.precision_exhausted = source.precision_exhausted

    out = DigitSource("ap-select", f"ap(b={b},k={k}):{source.label}", gen())
    return out


@dataclass
class StreamStats:
    """Counts for each (pattern, mode) over one pass of a digit stream."""

    source_label: str
    requested_n: int
    n: int
    truncated: bool
    counts: dict[tuple[Word, ModeDescriptor], int]
    checkpoints: list[tuple[int, dict[tuple[Word, ModeDescriptor], int]]] = field(
        default_factory=list
    )

    def frequency(self, w: Word, mode: ModeDescriptor, at_n: int | None = None) -> Fraction:
        """Exact occurrence frequency count/denominator at the final (or a checkpoint) length."""
        n = self.n if at_n is None else at_n
        if at_n is None:
            count = self.counts[(w, mode)]
        else:
            count = dict(self.checkpoints)[at_n][(w, mode)]
        denom = admissible_positions(mode, len(w), n)
        if denom == 0:
            return Fraction(0)
        return Fraction(count, denom)


def frequency_report(
    source: DigitSource,
    patterns: Sequence[Word],
    modes: Sequence[ModeDescriptor],
    n: int,
    checkpoint_every: int,
    jobs: int = 1,
) -> StreamStats:
    """Single pass over the first n digits, counting every pattern in every mode.

    Checkpoints snapshot the counts each checkpoint_every digits.  If the
    source ends early the report covers the prefix and is flagged truncated.
    """
    patterns = [_check_pattern(w) for w in patterns]
    if not patterns:
        raise ValueError("need at least one pattern")
    if n < max(len(w) for w in patterns):
        raise ValueError("n must be at least the longest pattern")
    if checkpoint_every < 1:
        raise ValueError("need checkpoint_every >= 1")

    digits = source.take(n)
    actual_n = len(digits)

    modes_bound: dict[tuple[Word, ModeDescriptor], tuple[int, int]] = {}
    for w in patterns:
        for mode in modes:
            stride = mode.bound_stride(len(w))
            offset = mode.offset if mode.kind == "aligned" else 0
            modes_bound[(w, mode)] = (stride, offset)

    marks = list(range(checkpoint_every, actual_n + 1, checkpoint_every))
    if not marks or marks[-1] != actual_n:
        marks.append(actual_n)

    counts = {key: 0 for key in modes_bound}
    checkpoints: list[tuple[int, dict]] = []
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        prev_stops = {key: 0 for key in modes_bound}
        for mark in marks:
            tasks = []
            for key, (stride, offset) in modes_bound.items():
                k = len(key[0])
                stop = max(0, mark - k + 1)
                tasks.append((key, _clamped(offset, stop, stride, prev_stops[key], stop)))
                prev_stops[key] = stop
            if pool is not None:
                deltas = list(
                    pool.map(lambda t: _count_positions(digits, t[0][0], t[1]), tasks)
                )
            else:
                deltas = [_count_positions(digits, key[0], rng) for key, rng in tasks]
            for (key, _), delta in zip(tasks, deltas):
                counts[key] += delta
            checkpoints.append((mark, dict(counts)))
    finally:
        if pool is not None:
            pool.shutdown()

    return StreamStats(
        source_label=source.label,
        requested_n=n,
        n=actual_n,
        truncated=actual_n < n,
        counts=counts,
        checkpoints=checkpoints,
    )


def count_chunked(
    digits: Sequence[int], w: Word, mode: ModeDescriptor, jobs: int
) -> int:
    """Chunk-parallel count; exactly equals the single-pass count.

    Chunks partition the start positions; a match may read up to |w|-1
    digits past its chunk, which is the seam carry.
    """
    w = _check_pattern(w)
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    stride = mode.bound_stride(len(w))
    offset = mode.offset if mode.kind == "aligned" else 0
    stop = max(0, len(digits) - len(w) + 1)
    if jobs == 1:
        return _count_positions(digits, w, _clamped(offset, stop, stride, 0, stop))
    bounds = [(i * stop) // jobs for i in range(jobs + 1)]
    ranges = [
        _clamped(offset, stop, stride, lo, hi) for lo, hi in zip(bounds, bounds[1:])
    ]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(lambda r: _count_positions(digits, w, r), ranges))
    return sum(parts)
