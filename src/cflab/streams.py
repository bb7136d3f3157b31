"""Pull-based digit sources (rationals, periodic words, interval-refined reals) and views of them.

A DigitSource is a single-consumer stream of partial quotients that
counts the digits it has emitted.  Construction parameters fully
determine the digit sequence, seeds included.  Sources are not safe for
concurrent pulls; hand one off between workers or build independent ones.

Chunks.  A source wraps an iterator of chunks: sequences of digits (lists
or tuples; empty ones are skipped) that no consumer mutates.  The stream
is the concatenation of its chunks and where they split carries no
meaning, so every consumer gives the same result for any chunking.
Every read goes through `pull(most)`, the next run of at most `most`
digits: the rest of the current chunk, cut at `most` with its rest kept
pending, and `()` once the stream has ended.  `chunks()` hands out the
rest of the stream run by run, `take(n)` is the next min(n, remaining)
digits as a fresh list, and `limit(source, n)` is a view that ends after
n digits.  `emitted` counts the digits handed out, whichever read did it.
`select_ap(source, b, k)` is a view of the digits at 1-based positions b,
b+k, b+2k and so on.  `limit` cuts a chunk and `select_ap` slices each
one, so a pipeline never holds more than a chunk beyond what its consumer
took.

Certification.  Interval-refined sources never emit an uncertified digit:
a digit comes out only when both interval endpoints agree on floor(1/x),
and the stream ends with `precision_exhausted` set the moment they
disagree.  A wrong silent digit is the failure mode all of this is built
to prevent.

Batched extraction (Lehmer, "Euclid's algorithm for large numbers", 1938;
Knuth, TAOCP vol. 2, 4.5.2).  Rather than one big-int division per digit,
`_interval_digits` widens the current interval outward to endpoints of
about EXTRACT_BITS bits, runs the Gauss steps on those small integers, and
applies the batch's 2x2 matrix to the exact endpoints once.  This changes
no digit.  floor(1/x) is monotone, so a digit on which both endpoints of the
widened interval agree holds on all of it, hence on the exact interval it
contains: exactly the digit the one-step rule would certify there.  A batch
stops where the widened interval straddles a cell boundary; if it certified
nothing, one exact step decides whether the exact interval still yields a
digit or its digits end right there, as they did under the one-step rule.

Three things keep the work per digit low, and none changes a digit.  The
small loop makes two Gauss steps per pass: the endpoints trade variables
in place instead of being rebuilt as a tuple, and the second step puts them
back.  Digit 1, which by Gauss-Kuzmin is log2(4/3) ~ 0.415 of all digits,
is decided by one subtraction and one comparison per endpoint instead of a
division.  Both are the same integer test floor(1/x) = a on the same
numbers, only computed more cheaply.  And the exact upper endpoint is
carried as its offset c from the lower one: the batch matrix M is linear,
so M(lo + c) = M lo + M c holds exactly, and on a dyadic block c starts at
(1, 0) and stays about half the size of lo, which takes about a quarter
off the time of the batch products.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, Sequence

from .cfcore import (
    UsageError,
    Word,
    bad_text,
    cf_of_rational,
    parse_rational,
    parse_word,
    quote,
    shown,
    word,
)

# Bits in each uniform block a random: source draws (source_random_real).
RANDOM_BLOCK_BITS = 4096
# Bit width of the widened endpoints a batch runs on: wider batches certify
# more digits per big-int update, but each small step costs more.  On 4096-bit
# random blocks 192 to 384 time alike, and 128 or 512 about 7-10% slower
# (Python 3.11).
EXTRACT_BITS = 192
# Periodic sources repeat their period into chunks of about this many digits.
PERIODIC_CHUNK_DIGITS = 1024
# Smallest exponent a decimal source takes: 10**exponent is built exactly,
# and at e-1000000 that takes about 0.35 s (Python 3.11).  The exponent
# written in the decimal text itself is held to the same magnitude.
MIN_DECIMAL_EXPONENT = -(10**6)


class DigitSource:
    """Stateful digit stream over chunks; see module docstring for the contract."""

    __slots__ = ("emitted", "precision_exhausted", "_chunks", "_chunk", "_pos")

    def __init__(self, chunks: Iterator[Sequence[int]]):
        self.emitted = 0
        self.precision_exhausted = False
        self._chunks = chunks
        self._chunk: Sequence[int] = ()
        self._pos = 0

    def pull(self, most: int | None = None) -> Sequence[int]:
        """The next run of at most `most` digits (the rest of a chunk if None).

        A run is a chunk or a slice of one, a list or a tuple that no one
        may mutate, and never longer than `most`, which is None or at least
        1.  A chunk cut short stays pending, and its rest comes next.  An
        empty run, `()`, means the stream has ended.
        """
        chunk, pos = self._chunk, self._pos
        while pos >= len(chunk):
            chunk = next(self._chunks, None)
            if chunk is None:
                self._chunk, self._pos = (), 0
                return ()
            pos = 0
        end = len(chunk) if most is None else min(len(chunk), pos + most)
        self._chunk, self._pos = chunk, end
        self.emitted += end - pos
        return chunk if pos == 0 and end == len(chunk) else chunk[pos:end]

    def chunks(self) -> Iterator[Sequence[int]]:
        """The rest of the stream as non-empty runs of digits, never to be mutated."""
        while chunk := self.pull():
            yield chunk

    def take(self, n: int) -> list[int]:
        """The next n digits (fewer if the source ends first) as a fresh list."""
        if n < 0:
            raise ValueError("need n >= 0")
        out: list[int] = []
        while len(out) < n and (run := self.pull(n - len(out))):
            out += run
        return out


def _interval_digits(lo_n: int, lo_d: int, hi_n: int, hi_d: int) -> list[int]:
    """Digits certified for every x in [lo_n/lo_d, hi_n/hi_d], the lower end in [0, 1].

    Gauss step: digit a = floor(1/x); both endpoints must agree on a.  The
    refinement x -> 1/x - a swaps orientation, so the endpoint pairs trade
    places each round.  The digits end where no further one is certifiable:
    the lower endpoint reached 0, or the endpoints disagree.  An upper end
    past 1 yields no digit, as floor(1/x) is 0 there.  Steps run in
    batches on widened small endpoints (see the module docstring).
    """
    digits: list[int] = []
    append = digits.append
    # the upper endpoint is carried as lo + c (see the module docstring) and
    # rebuilt once per batch or exact step
    c_n, c_d = hi_n - lo_n, hi_d - lo_d
    while lo_n > 0:
        hi_n, hi_d = lo_n + c_n, lo_d + c_d
        shift = max(lo_d.bit_length(), hi_d.bit_length()) - EXTRACT_BITS
        if shift > 0:
            # round the lower endpoint down and the upper one strictly up, so
            # the widened interval contains the exact one and has width > 0
            ln = ln0 = lo_n >> shift
            ld = ld0 = ((lo_d - 1) >> shift) + 1
            hn = hn0 = (hi_n >> shift) + 1
            hd = hd0 = hi_d >> shift
            start = len(digits)
            # Two Gauss steps per pass: the first leaves the lower endpoint in
            # hd/hn and the upper in ld/ln, the second puts them back.  On
            # digit a the lower endpoint agrees iff its remainder (>= 0, as
            # lower < upper) is below its numerator.  The widened lower end
            # stays strictly below the upper one, so an upper numerator is
            # never 0 and a lower one of 0 fails that test: no zero checks.
            # Digit 1 needs no division.  Its 0 <= sends a widened upper end
            # past 1 to the division path, which refuses it with a = 0; after
            # one step the upper end lies in [0, 1), so the second step needs
            # no 0 <=.
            while True:
                if 0 <= (x := hd - hn) < hn:
                    if (y := ld - ln) >= ln:
                        break
                    append(1)
                    hd = x
                    ld = y
                else:
                    a = hd // hn
                    rem = ld - a * ln
                    if rem >= ln:
                        break
                    append(a)
                    hd -= a * hn
                    ld = rem
                if (x := ln - ld) < ld:
                    if (y := hn - hd) >= hd:
                        break
                    append(1)
                    ln = x
                    hn = y
                else:
                    a = ln // ld
                    rem = hn - a * hd
                    if rem >= hd:
                        break
                    append(a)
                    ln -= a * ld
                    hn = rem
            steps = len(digits) - start
            if steps:
                if steps & 1:
                    # stopped mid-pass, with the images of the widened lower
                    # and upper ends in ld/ln and hd/hn.  An odd batch reverses
                    # order: the image of the exact upper end is the new lower
                    # one, and the offset changes sign.
                    ln, ld, hn, hd = ld, ln, hd, hn
                    lo_n, lo_d, c_n, c_d = hi_n, hi_d, -c_n, -c_d
                # the batch maps each widened endpoint (column) to its image:
                # M [[ln0, hn0], [ld0, hd0]] = [[ln, hn], [ld, hd]]; solve for
                # M once instead of carrying it through every step
                det = ln0 * hd0 - hn0 * ld0
                p = (ln * hd0 - hn * ld0) // det
                q = (hn * ln0 - ln * hn0) // det
                r = (ld * hd0 - hd * ld0) // det
                t = (hd * ln0 - ld * hn0) // det
                lo_n, lo_d = p * lo_n + q * lo_d, r * lo_n + t * lo_d
                c_n, c_d = p * c_n + q * c_d, r * c_n + t * c_d
                continue
        a = hi_d // hi_n
        if a < 1 or a != lo_d // lo_n:
            break
        append(a)
        lo_n, lo_d, c_n, c_d = hi_d - a * hi_n, hi_n, a * c_n - c_d, -c_n
    return digits


def source_rational(num: int, den: int) -> DigitSource:
    """Finite source emitting the canonical expansion of num/den."""
    digits = cf_of_rational(num, den)
    return DigitSource(iter((digits,)))


def source_periodic(prefix: Word, period: Word) -> DigitSource:
    """Infinite source: prefix once, then period forever."""
    prefix = word(prefix)
    period = word(period)
    if len(period) == 0:
        raise ValueError("period must be non-empty")

    def gen() -> Iterator[Word]:
        yield prefix
        yield from itertools.repeat(period * max(1, PERIODIC_CHUNK_DIGITS // len(period)))

    return DigitSource(gen())


def source_decimal_interval(decimal: str, ulp_exponent: int) -> DigitSource:
    """Precision-limited source for a decimal measurement of a real in (0,1).

    The value is only known to lie in [d - 10**ulp_exponent,
    d + 10**ulp_exponent] intersected with (0,1); digits are emitted while
    the whole interval agrees on them, then the source marks itself
    precision-exhausted and stops.  The exponent must lie in
    [MIN_DECIMAL_EXPONENT, -1]: from 0 up the interval covers all of (0, 1).
    """
    text = decimal.strip()
    quoted = quote(text)
    # Fraction builds the text's power of ten before anything is checked
    _, e, exponent = text.lower().rpartition("e")
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    limit = -MIN_DECIMAL_EXPONENT
    if e and magnitude.isdecimal() and (len(magnitude) > len(str(limit)) or int(magnitude) > limit):
        raise ValueError(f"decimal text {quoted} has an exponent outside [{-limit}, {limit}]")
    try:
        d = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise bad_text("decimal", text) from None
    if not 0 < d < 1:
        raise ValueError(f"decimal value must be in (0,1), got {quoted}")
    if not MIN_DECIMAL_EXPONENT <= ulp_exponent < 0:
        raise ValueError(
            f"decimal exponent must be in [{MIN_DECIMAL_EXPONENT}, -1], got e{shown(ulp_exponent)}"
        )
    ulp = Fraction(10) ** ulp_exponent
    lo = max(d - ulp, Fraction(0))
    hi = min(d + ulp, Fraction(1))

    def gen() -> Iterator[list[int]]:
        yield _interval_digits(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        src.precision_exhausted = True

    src = DigitSource(gen())
    return src


def _prime_factors(q: int) -> list[int]:
    """The distinct primes dividing q >= 1, ascending, by trial division."""
    primes = []
    r = 2
    while r * r <= q:
        if q % r == 0:
            primes.append(r)
            while q % r == 0:
                q //= r
        r += 1
    if q > 1:
        primes.append(q)
    return primes


def source_concat_normal() -> DigitSource:
    """Infinite source concatenating the expansions of all reduced rationals.

    Enumeration: denominators q = 2, 3, 4, ... and within each q the
    numerators p = 1..q-1 with gcd(p, q) = 1, ascending.  Deterministic by
    construction; its statistics are validated empirically, not proven.
    Each denominator's expansions form one chunk.

    Only the lower half is expanded.  For q >= 3 the Euclid loop of
    `cf_of_rational` runs for the numerators p <= (q-1)/2, whose first digit
    a1 = q // p is >= 2.  Each p > q/2 mirrors the stored expansion of
    q - p by 1 - [0; a1, a2, ..., an] = [0; 1, a1 - 1, a2, ..., an], which
    is canonical as it stands, and ascending p is descending q - p.  The
    coprime numerators of the lower half come from a sieve: a bytearray
    flag per p, zeroed on the multiples of each prime factor of q by slice
    assignment and read by `itertools.compress`, in place of a gcd per
    numerator.  q = 2, whose one numerator is q/2 itself, yields [2].
    """

    def gen() -> Iterator[list[int]]:
        yield [2]
        for q in itertools.count(3):
            half = (q - 1) // 2
            coprime = bytearray(b"\x01") * (half + 1)
            coprime[0] = 0
            for r in _prime_factors(q):
                coprime[r::r] = bytes(half // r)
            chunk: list[int] = []
            append = chunk.append
            starts = []
            for p in itertools.compress(range(half + 1), coprime):
                starts.append(len(chunk))
                a, b = q, p
                while b:
                    append(a // b)
                    a, b = b, a % b
            end = len(chunk)
            for start in reversed(starts):
                append(1)
                append(chunk[start] - 1)
                chunk += chunk[start + 1 : end]
                end = start
            yield chunk

    return DigitSource(gen())


def source_random_real(seed: int) -> DigitSource:
    """Infinite seeded source: the certified digits of independent dyadic blocks, concatenated.

    Draws counter-keyed blocks of uniform bits (block j is keyed by
    (seed, j)), treats each block as a dyadic interval of width
    2**-RANDOM_BLOCK_BITS, and emits that interval's certified digits by the same
    endpoints-agree rule as the decimal source.  When a block's precision is
    spent the next block takes over, so the stream itself never runs dry.
    Each block's digits form one chunk.  Seeds must be >= 0: random.Random
    seeds from |seed|, so a negative seed would replay its positive twin.

    The stream is not the expansion of one random real.  Each block starts
    a fresh real, so its first digits follow Lebesgue measure rather than
    Gauss measure, and the stopping rule biases its last digit: the digit
    frequencies are biased at every block seam (about +7.6e-5 on P(digit =
    1) at 4096-bit blocks, measured on 20,000 blocks of seed 7).
    """
    if seed < 0:
        raise ValueError(f"random source seed must be >= 0, got {shown(seed)}")

    def gen() -> Iterator[list[int]]:
        bits = RANDOM_BLOCK_BITS
        scale = 1 << bits
        for block in itertools.count():
            m = random.Random((seed << 64) + block).getrandbits(bits)
            yield _interval_digits(m, scale, m + 1, scale)

    return DigitSource(gen())


def limit(source: DigitSource, n: int) -> DigitSource:
    """A view of `source` that ends after at most n digits.

    The chunk that crosses n is cut; its rest stays pending in `source`.
    """
    if n < 0:
        raise ValueError("need n >= 0")

    def gen() -> Iterator[Sequence[int]]:
        left = n
        while left > 0 and (chunk := source.pull(left)):
            left -= len(chunk)
            yield chunk
        out.precision_exhausted = source.precision_exhausted

    out = DigitSource(gen())
    return out


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
        while chunk := source.pull():
            size = len(chunk)
            if skip >= size:
                skip -= size
                continue
            yield chunk[skip::k]
            skip = (skip - size) % k
        out.precision_exhausted = source.precision_exhausted

    out = DigitSource(gen())
    return out


def _spec_int(part: str, what: str, spec: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"bad {what} in source spec {quote(spec)}") from None


def parse_source_spec(text: str, seed: int | None = None) -> DigitSource:
    """Build a source from its CLI spec string.

    Forms: `rational:7/16`, `periodic:<prefix>;<period>` (compact
    `periodic:,2` splits on the first comma), `decimal:0.618:e-10`,
    `concat-normal`, `random:seed=42` (or bare `random` with an external
    seed, which no other spec reads).  A spec that names no source, an
    external seed given with any spec but `random`, or a spec whose
    constructor refuses its values raises UsageError.
    """
    try:
        return _source_of(text.strip(), seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _source_of(text: str, seed: int | None) -> DigitSource:
    if seed is not None:
        if text != "random":
            raise ValueError(f"--seed is read only by the bare source 'random', not {quote(text)}")
        return source_random_real(seed)
    kind, _, payload = text.partition(":")
    if kind == "rational":
        frac = parse_rational(payload)
        return source_rational(frac.numerator, frac.denominator)
    if kind == "periodic":
        if ";" in payload:
            prefix_text, _, period_text = payload.partition(";")
        else:
            prefix_text, _, period_text = payload.partition(",")
        prefix = parse_word(prefix_text, allow_empty=True)
        period = parse_word(period_text, allow_empty=True)
        return source_periodic(prefix, period)
    if kind == "decimal":
        decimal_text, sep, exp_text = payload.rpartition(":")
        if not sep:
            raise ValueError("decimal source needs an exponent, e.g. decimal:0.5:e-10")
        exponent = _spec_int(exp_text.lstrip("eE"), "exponent", text)
        return source_decimal_interval(decimal_text, exponent)
    if kind == "concat-normal" and not payload:
        return source_concat_normal()
    if kind == "random":
        if payload.startswith("seed="):
            return source_random_real(_spec_int(payload[len("seed=") :], "seed", text))
        raise ValueError("random source needs seed=N (or a --seed flag)")
    raise ValueError(f"unrecognized source spec {quote(text)}")
