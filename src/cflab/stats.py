"""Streaming occurrence counters: overlapping, disjoint, aligned, AP-selected.

Counting is a pure fold over the digit stream.  `frequency_report` pulls
windows of at most COUNT_WINDOW digits, each prefixed with the last
max|w|-1 digits of the one before (the seam carry).  A window counts the
admissible starts among the first `pulled` digits that were not admissible
among the digits pulled before it, so a start is counted exactly once
whatever the windows and chunks are, and memory stays
O(window + checkpoints) for any n.

Shift-and (Baeza-Yates & Gonnet, "A new approach to text searching",
CACM 1992), one indicator per digit value.  The fold encodes each pulled
digit once as bytes, writing every digit >= 255 as 255, and carries the
seam as bytes.  For each window it translates the bytes once per digit
value d < 255 that a pattern uses into I_d, an int whose byte s is 1 where
the window holds d at s.  A pattern w whose digits are all below 255 has
hits = AND over j of I_(w[j]) >> 8j, with byte s set where w starts at s.
Each mode shifts hits down to its first new start, keeps a 0x01 byte every
stride bytes with one mask per stride, and counts the set bits; modes with
the same starts for a pattern (overlap and disjoint when |w| = 1) are
counted once.  A pattern with a digit >= 255 is counted on the digit list,
since 255 there stands for all larger digits; the fold keeps that list,
with the same seam, only when such a pattern is asked for.  The list
counters and `count_chunked` keep that plain loop, so the tests check the
fold against an independent path.

A ModeDescriptor owns its mode's semantics: `starts(|w|, n)` is its range
of admissible starts and `frequency` divides a count by its denominator.
The list counters and the fold take their starts from the first, and
reports take their frequencies from the second.
Digit positions are 1-based in reports to match the usual a1, a2, ...
numbering, while start indices in code are plain 0-based offsets.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .cfcore import Word, word
from .streams import DigitSource

# Most digits frequency_report pulls per window; windows also end at checkpoints.
COUNT_WINDOW = 1 << 16


@dataclass(frozen=True)
class ModeDescriptor:
    """How occurrences are admitted: every shift, or a fixed residue class.

    kind is one of "overlap", "disjoint", "aligned"; disjoint is the
    aligned mode with stride equal to the pattern length and offset 0, kept
    distinct only for labeling.
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

    def starts(self, pattern_len: int, n: int) -> range:
        """The admissible 0-based starts of a match lying inside n digits."""
        stride = self.bound_stride(pattern_len)
        return range(self.offset, max(self.offset, n - pattern_len + 1), stride)

    def frequency(self, count: int, pattern_len: int, n: int) -> Fraction:
        """count over n for overlap, else over len(starts); 0 when that is 0.

        Overlap keeps the shift-count normalization n even though only
        n - |w| + 1 starts fit; the difference is O(|w|/n) and the convention
        matches the asymptotic definition being tested.
        """
        denom = n if self.kind == "overlap" else len(self.starts(pattern_len, n))
        return Fraction(count, denom) if denom else Fraction(0)

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


# byte -> 255 if nonzero else 0: a nonzero high byte marks a digit >= 256
_NONZERO = bytes(1) + b"\xff" * 255


def _encode(digits: Sequence[int]) -> bytes:
    """The digits as bytes, each digit >= 255 written as 255.

    The clamp runs in C: the digits go into an unsigned array, whose low
    bytes are ORed with each higher byte translated to 255 if nonzero, so a
    digit >= 256 reads 255 and one below keeps its low byte.  A digit of
    2**32 or more overflows the array, and digits holding one fall back to
    the per-digit clamp.
    """
    try:
        cells = array("I", digits)
    except OverflowError:
        return bytes(d if d < 255 else 255 for d in digits)
    if sys.byteorder == "big":
        cells.byteswap()
    raw, size = cells.tobytes(), cells.itemsize
    del cells  # one copy of the window at a time keeps the peak memory down
    clamped = int.from_bytes(raw[::size], "little")
    for j in range(1, size):
        clamped |= int.from_bytes(raw[j::size].translate(_NONZERO), "little")
    return clamped.to_bytes(len(digits), "little")


def _count_bytes(
    buf: bytes, wanted: dict[Word, set[range]], masks: dict[int, int]
) -> dict[tuple[Word, range], int]:
    """Matches of each wanted w at each of its ranges of starts in an encoded window.

    Shift-and over one indicator per digit value, as in the module docstring;
    each (w, range) is counted once.  Every digit of w is below 255, and
    masks maps each step > 1 of a range to an int with a 0x01 byte every
    step bytes, as long as the range's span.
    """
    # byte s of indicator[d] is 1 where buf[s] == d, and 0 elsewhere
    indicator = {
        d: int.from_bytes(buf.translate(bytes(d) + b"\x01" + bytes(255 - d)), "little")
        for d in {d for w in wanted for d in w}
    }
    found = {}
    for w, ranges in wanted.items():
        # byte s of hits is 1 where w starts at buf[s]; as none starts past
        # len(buf) - |w|, a range is cut at its first start only
        hits = indicator[w[0]]
        for j in range(1, len(w)):
            hits &= indicator[w[j]] >> 8 * j
        for r in ranges:
            at = hits >> 8 * r.start
            if r.step > 1:
                at &= masks[r.step]
            found[w, r] = at.bit_count()
    return found


def _check_pattern(w: Word) -> Word:
    w = word(w)
    if len(w) == 0:
        raise ValueError("pattern must be non-empty")
    return w


def count_overlapping(digits: Sequence[int], w: Word) -> int:
    """Occurrences at every shift, fully contained in the digit list."""
    w = _check_pattern(w)
    return _count_positions(digits, w, ModeDescriptor.overlap().starts(len(w), len(digits)))


def count_aligned(digits: Sequence[int], stride: int, offset: int, w: Word) -> int:
    """Occurrences starting at offset within non-overlapping stride blocks."""
    w = _check_pattern(w)
    mode = ModeDescriptor.aligned(stride, offset)
    return _count_positions(digits, w, mode.starts(len(w), len(digits)))


def count_disjoint(digits: Sequence[int], w: Word) -> int:
    """Occurrences at shifts that are multiples of the pattern length."""
    w = _check_pattern(w)
    return _count_positions(digits, w, ModeDescriptor.disjoint().starts(len(w), len(digits)))


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

    out = DigitSource(f"ap(b={b},k={k}):{source.label}", gen())
    return out


@dataclass
class StreamStats:
    """Counts for each (pattern, mode) over one pass of a digit stream.

    checkpoints holds (digits counted, counts) in increasing order; the
    last one is at n and holds the final counts.
    """

    n: int
    truncated: bool
    checkpoints: list[tuple[int, dict[tuple[Word, ModeDescriptor], int]]]


def frequency_report(
    source: DigitSource,
    patterns: Sequence[Word],
    modes: Sequence[ModeDescriptor],
    n: int,
    checkpoint_every: int,
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

    counts = {(w, mode): 0 for w in patterns for mode in modes}
    seam = max(len(w) for w in patterns) - 1
    checkpoints: list[tuple[int, dict]] = []
    # the digit list is kept only for the patterns the bytes cannot count
    keep_list = any(max(w) >= 255 for w in patterns)
    # stride -> a 0x01 byte every stride bytes, one window long; made before
    # the first window, since ints made between windows fragment the heap
    span = min(COUNT_WINDOW, n)
    strides = {mode.bound_stride(len(w)) for w, mode in counts if max(w) < 255} - {1}
    masks = {c: int.from_bytes((b"\x01" + bytes(c - 1)) * -(-span // c), "little") for c in strides}
    window: list[int] = []
    buf = b""
    pulled = 0
    mark = min(checkpoint_every, n)
    while pulled < n:
        fresh = source.take(min(COUNT_WINDOW, mark - pulled))
        if not fresh:
            break
        buf = buf[max(0, len(buf) - seam) :] + _encode(fresh)
        if keep_list:
            window = window[max(0, len(window) - seam) :] + fresh
        before, pulled = pulled, pulled + len(fresh)
        base = pulled - len(buf)  # absolute position of buf[0], and of window[0]
        starts = {}
        wanted: dict[Word, set[range]] = {}
        for w, mode in counts:
            # the starts whose match ends in fresh digits, shifted into the window
            new = mode.starts(len(w), pulled)[len(mode.starts(len(w), before)) :]
            starts[w, mode] = shifted = range(new.start - base, new.stop - base, new.step)
            if max(w) < 255:
                wanted.setdefault(w, set()).add(shifted)
        found = _count_bytes(buf, wanted, masks)
        for (w, mode), shifted in starts.items():
            if max(w) < 255:
                counts[w, mode] += found[w, shifted]
            else:
                counts[w, mode] += _count_positions(window, w, shifted)
        if pulled == mark:
            checkpoints.append((mark, dict(counts)))
            mark = min(mark + checkpoint_every, n)
    if not checkpoints or checkpoints[-1][0] != pulled:
        checkpoints.append((pulled, dict(counts)))

    return StreamStats(n=pulled, truncated=pulled < n, checkpoints=checkpoints)


def count_chunked(
    digits: Sequence[int], w: Word, mode: ModeDescriptor, jobs: int
) -> int:
    """The count of w over the mode's starts; `jobs` is checked and read by nothing."""
    w = _check_pattern(w)
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    return _count_positions(digits, w, mode.starts(len(w), len(digits)))
