"""Streaming occurrence counters: overlapping, disjoint and aligned.

Counting is a pure fold over the digit stream.  `frequency_report` reads
the source's runs by `pull`, at most COUNT_WINDOW digits a window, and
puts in front of each window the last max|w|-1 digits of the one before
(the seam carry, kept as digits, read off the window's last runs).  A
window counts the admissible starts among the first `pulled` digits that
were not admissible among the digits pulled before it, so a start is
counted exactly once whatever the windows and runs are, and memory stays
O(window + checkpoints) for any n.

Shift-and (Baeza-Yates & Gonnet, "A new approach to text searching",
CACM 1992), one indicator per digit value.  The fold writes each window,
carry included, once into little-endian byte planes, exact for any
digit: its runs go one after another into one array of 4-byte cells, no
list of the window's digits is built, and plane j holds byte j of every
digit of the window, as many planes as its widest digit has bytes.  Past
the 4 bytes of an array cell, only the widest digit a pattern uses
counts: the other digits are written as 0, which no pattern holds.  For
each digit value d that a pattern uses, I_d is an int whose byte s is 1
where the window holds d at s: the AND over the planes of where each
holds its byte of d, and 0 for a d wider than the planes.  Up to 8
values share one translate per plane.  A pattern w has
hits = AND over j of I_(w[j]) >> 8j,
with byte s set where w starts at s, and no byte set past the window's
last start.  A mode of stride 1 counts every start from its first new one
up: one popcount of hits, shared by the pattern's stride-1 modes (overlap,
and disjoint and aligned(1, 0) when |w| = 1), less the set bits of the
carried starts below that first new start, a few bytes.  Any other mode
shifts hits down to its first new start, keeps a 0x01 byte every stride
bytes with one mask per stride, and counts the set bits.  Each distinct
(pattern, mode) has its own count, also where two modes share their
starts.  The list counters and `count_chunked` count the tuple
windows digits[s : s + |w|] at the mode's starts that equal w, for any
sequence of ints; the fold is tested against them, an independent path.

A ModeDescriptor owns its mode's semantics, and a mode is its range of
starts: `starts(|w|, n)` is the range of admissible starts, whose step is
the mode's stride, and `frequency` divides a count by its denominator.
The list counters and the fold take their starts and strides from the
first, and reports take their frequencies from the second.
Digit positions are 1-based in reports to match the usual a1, a2, ...
numbering, while start indices in code are plain 0-based offsets.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from itertools import islice
from typing import Container, Iterable, NamedTuple, Protocol, Sequence

from .cfcore import Word, word

# Most digits frequency_report pulls per window; windows also end at checkpoints.
COUNT_WINDOW = 1 << 16


class _Source(Protocol):
    """What the fold reads of a digit source, such as a `streams.DigitSource`.

    pull(most) is the next run of at most `most` digits, a list or a tuple
    the fold only reads, and empty once the source has ended.
    """

    def pull(self, most: int) -> Sequence[int]: ...


class ModeDescriptor(NamedTuple):
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

    def starts(self, pattern_len: int, n: int) -> range:
        """The admissible 0-based starts of a match lying inside n digits.

        Its step is the mode's stride for the pattern length: 1 for overlap,
        the length for disjoint.
        """
        if self.kind == "aligned" and self.offset > self.stride - pattern_len:
            raise ValueError(
                f"offset {self.offset} leaves no room for a length-{pattern_len} "
                f"pattern in stride {self.stride}"
            )
        stride = {"overlap": 1, "disjoint": pattern_len}.get(self.kind, self.stride)
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


def _planes(runs: Sequence[Sequence[int]], values: Container[int]) -> list[bytes]:
    """A window's byte planes: byte s of plane j is byte j of digit s, little-endian.

    The window is its runs, lists or tuples, one after another.  They go
    into one unsigned array in C by one `fromlist` a run, one plane per
    byte of its cell.  A digit too wide for the cell sends the window to
    int.to_bytes, each digit not among the pattern `values` written as 0
    first: so the planes are as many as the widest digit a pattern holds
    has bytes, and a 0 matches no pattern.  Planes that are zero throughout
    are dropped from the top.
    """
    cells = array("I")
    try:
        for run in runs:
            cells.fromlist(run if isinstance(run, list) else list(run))
        raw, width = cells.tobytes(), cells.itemsize
    except OverflowError:
        digits = [d if d in values else 0 for run in runs for d in run]
        width = -(-max(digits).bit_length() // 8)
        raw = b"".join(d.to_bytes(width, sys.byteorder) for d in digits)
    planes = [raw[j::width] for j in range(width)][:: 1 if sys.byteorder == "little" else -1]
    del cells, raw  # one copy of the window at a time keeps the peak memory down
    while len(planes) > 1 and planes[-1] == bytes(len(planes[0])):
        planes.pop()
    return planes


def _indicators(planes: list[bytes], values: Iterable[int], ones: int) -> dict[int, int]:
    """I_d for each digit value d: an int whose byte s is 1 where the window holds d at s.

    Built from every plane and so exact for every digit, as in the module
    docstring.  ones is an int of 0x01 bytes, at least as long as the window.
    """
    indicator = dict.fromkeys(values, 0)  # a digit wider than the planes is nowhere
    fits = [d for d in indicator if not d >> 8 * len(planes)]
    # Up to 8 digit values share a translate per plane, value k of them
    # marked by bit k of its byte in that plane; ANDed over the planes, bit k
    # of byte s is set where the window holds value k at s.
    for first in range(0, len(fits), 8):
        group = fits[first : first + 8]
        packed = -1
        for j, plane in enumerate(planes):
            table = bytearray(256)
            for k, d in enumerate(group):
                table[d >> 8 * j & 255] |= 1 << k
            packed &= int.from_bytes(plane.translate(table), "little")
        for k, d in enumerate(group):
            indicator[d] = packed >> k & ones
    return indicator


def _check_pattern(w: Word) -> Word:
    w = word(w)
    if len(w) == 0:
        raise ValueError("pattern must be non-empty")
    return w


def _count_mode(digits: Sequence[int], w: Word, mode: ModeDescriptor) -> int:
    """The body of the list counters: the windows digits[s : s + |w|] equal to w.

    s runs over the mode's starts.  Column j of the windows is read from
    start + j in steps of the stride by islice, which copies nothing, so any
    sequence of ints is counted in constant extra memory.  islice takes no
    bound past sys.maxsize, so the range is cut to len(digits): no start
    lies past it, and a stride of at least len(digits) admits one at most.
    """
    w = _check_pattern(w)
    n = len(digits)
    starts = mode.starts(len(w), n)
    start, stop, step = (min(x, max(1, n)) for x in (starts.start, starts.stop, starts.step))
    columns = (islice(digits, start + j, stop + j, step) for j in range(len(w)))
    return operator.countOf(zip(*columns), w)


def count_overlapping(digits: Sequence[int], w: Word) -> int:
    """Occurrences at every shift, fully contained in the digit list."""
    return _count_mode(digits, w, ModeDescriptor.overlap())


def count_aligned(digits: Sequence[int], stride: int, offset: int, w: Word) -> int:
    """Occurrences starting at offset within non-overlapping stride blocks."""
    return _count_mode(digits, w, ModeDescriptor.aligned(stride, offset))


def count_disjoint(digits: Sequence[int], w: Word) -> int:
    """Occurrences at shifts that are multiples of the pattern length."""
    return _count_mode(digits, w, ModeDescriptor.disjoint())


class StreamStats(NamedTuple):
    """Counts for each (pattern, mode) over one pass of a digit stream.

    checkpoints holds (digits counted, counts) in increasing order; the
    last one is at n and holds the final counts.
    """

    n: int
    truncated: bool
    checkpoints: list[tuple[int, dict[tuple[Word, ModeDescriptor], int]]]


def frequency_report(
    source: _Source,
    patterns: Sequence[Word],
    modes: Sequence[ModeDescriptor],
    n: int,
    checkpoint_every: int,
) -> StreamStats:
    """Single pass over the first n digits, counting every pattern in every mode.

    Checkpoints snapshot the counts each checkpoint_every digits.  If the
    source ends early the report covers the prefix and is flagged truncated.
    """
    # each distinct pattern and mode once, as the keys of counts
    patterns = list(dict.fromkeys(_check_pattern(w) for w in patterns))
    modes = list(dict.fromkeys(modes))
    if not patterns:
        raise ValueError("need at least one pattern")
    if n < max(len(w) for w in patterns):
        raise ValueError("n must be at least the longest pattern")
    if checkpoint_every < 1:
        raise ValueError("need checkpoint_every >= 1")

    counts = {(w, mode): 0 for w in patterns for mode in modes}
    values = {d for w in patterns for d in w}
    seam = max(len(w) for w in patterns) - 1
    checkpoints: list[tuple[int, dict]] = []
    # stride -> a 0x01 byte every stride bytes, as long as a window with its
    # carry, so a stride past the window keeps one byte; 1 is always there,
    # for the indicators.  Made before the first window, since ints made
    # between windows fragment the heap
    span = seam + min(COUNT_WINDOW, n)
    strides = {mode.starts(len(w), 0).step for w, mode in counts} | {1}
    masks = {
        c: int.from_bytes((b"\x01" + bytes(min(c, span) - 1)) * -(-span // c), "little")
        for c in strides
    }
    tail: list[int] = []  # the last seam digits pulled
    pulled = 0
    mark = min(checkpoint_every, n)
    while pulled < n:
        # the window's runs: the carry, then what the source gives up to `end`
        runs: list[Sequence[int]] = [tail]
        before, end = pulled, min(pulled + COUNT_WINDOW, mark)
        while pulled < end and (run := source.pull(end - pulled)):
            runs.append(run)
            pulled += len(run)
        if pulled == before:  # the source has ended
            break
        base = before - len(tail)  # absolute position of the window's first digit
        # the next carry: the last seam digits lie in the last seam runs, as each
        # pulled run holds a digit, but any run, the carry too, may be shorter
        tail = [d for run in runs[-seam:] for d in run[-seam:]][-seam:] if seam else []
        planes = _planes(runs, values)
        del runs  # they may hold the window's chunks, which nothing else holds now
        # The planes live on until the next window's replace them.  Freed here,
        # they let the allocator hand the heap top back for each window to
        # fault in again: about 7,500 minor faults in place of 1,500 over
        # concat-normal at n = 2*10**6 with 8 patterns (Python 3.11).
        indicator = _indicators(planes, values, masks[1])
        for w in patterns:
            # byte s of hits is 1 where w starts at the window's digit s; as none
            # starts past the last |w| digits, a range is cut at its first start only
            hits = indicator[w[0]]
            for j in range(1, len(w)):
                hits &= indicator[w[j]] >> 8 * j
            everywhere = hits.bit_count()
            for mode in modes:
                # the starts whose match ends in fresh digits
                new = mode.starts(len(w), pulled)[len(mode.starts(len(w), before)) :]
                shift = 8 * (new.start - base)
                if new.step == 1:
                    # all starts but the carried ones below the first new start
                    counts[w, mode] += everywhere - (hits & (1 << shift) - 1).bit_count()
                else:
                    counts[w, mode] += (hits >> shift & masks[new.step]).bit_count()
        del indicator, hits
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
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    return _count_mode(digits, w, mode)
