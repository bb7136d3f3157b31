"""Digit-source behavior: exactness, certification soundness, determinism.

The interval extractor is checked against two independent oracles: the
certified digits of [lo, hi] must equal the longest common prefix of the
plain Euclidean expansions of the two endpoints, and they must equal what
the one-step loop below (one exact division per digit) emits.  Chunked
consumers are checked against plain list slicing over arbitrary chunkings.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflab import (
    DigitSource,
    cf_of_rational,
    cylinder_interval,
    iter_words,
    limit,
    parse_source_spec,
    select_ap,
    source_concat_normal,
    source_decimal_interval,
    source_periodic,
    source_random_real,
    source_rational,
)
from cflab import streams
from cflab.cfcore import UsageError, convergent_pair
from cflab.streams import MIN_DECIMAL_EXPONENT, _interval_digits


def one_step_interval_digits(lo_n, lo_d, hi_n, hi_d):
    """Reference extractor: one exact Gauss step, and one big division, per digit."""
    while True:
        if lo_n <= 0:
            return
        a = hi_d // hi_n
        if a < 1 or a != lo_d // lo_n:
            return
        yield a
        lo_n, lo_d, hi_n, hi_d = hi_d - a * hi_n, hi_n, lo_d - a * lo_n, lo_n


def assert_matches_one_step(lo: Fraction, hi: Fraction) -> list[int]:
    args = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    got = _interval_digits(*args)
    assert got == list(one_step_interval_digits(*args)), (lo, hi)
    return got


def euclid_digits(x: Fraction) -> list[int]:
    """Oracle expansion of a rational in [0, 1] by plain floor/reciprocal steps."""
    if x == 0:
        return []
    if x == 1:
        return [1]
    return list(cf_of_rational(x.numerator, x.denominator))


def common_prefix(a: list[int], b: list[int]) -> list[int]:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return out


def value_of(w) -> Fraction:
    """[0; w] read off the recurrence: p_n/q_n of convergent_pair(w)."""
    p, q, _, _ = convergent_pair(w)
    return Fraction(p, q)


# ------------------------------------------------------------ rational

def test_source_rational():
    src = source_rational(7, 16)
    assert src.take(10) == [2, 3, 2]
    assert src.emitted == 3
    assert not src.precision_exhausted
    assert source_rational(1, 2).take(5) == [2]
    assert source_rational(2, 3).take(5) == [1, 2]
    with pytest.raises(ValueError):
        source_rational(3, 2)


# ------------------------------------------------------------ periodic

def test_source_periodic():
    assert source_periodic((), (2,)).take(5) == [2, 2, 2, 2, 2]
    assert source_periodic((), (1,)).take(4) == [1, 1, 1, 1]
    assert source_periodic((1,), (2, 3)).take(6) == [1, 2, 3, 2, 3, 2]
    with pytest.raises(ValueError):
        source_periodic((1,), ())


# ----------------------------------------------------- decimal interval

def test_decimal_golden_ratio_matches_periodic_oracle():
    src = source_decimal_interval("0.6180339887", -10)
    digits = src.take(100)
    assert src.precision_exhausted
    assert len(digits) >= 10
    assert digits == source_periodic((), (1,)).take(len(digits))


def test_decimal_sqrt2_prefix():
    src = source_decimal_interval("0.41421356", -8)
    digits = src.take(100)
    assert src.precision_exhausted
    assert len(digits) >= 3
    assert digits == [2] * len(digits)


def test_decimal_exact_dyadic_is_ambiguous_immediately():
    # [0.5 - u, 0.5 + u] straddles the first digit cell boundary, so not
    # even one digit is certifiable for every value in the interval
    src = source_decimal_interval("0.5", -30)
    assert src.take(5) == []
    assert src.precision_exhausted


def test_decimal_validation():
    for bad in ("1.5", "0", "1", "-0.25", "abc"):
        with pytest.raises(ValueError):
            source_decimal_interval(bad, -10)
    # from e0 up the interval covers (0, 1); below the limit 10**e is too costly
    for exponent in (0, 1, 999_999_999, MIN_DECIMAL_EXPONENT - 1):
        with pytest.raises(ValueError, match="decimal exponent"):
            source_decimal_interval("0.3", exponent)
    assert source_decimal_interval("0.3", -1).take(5) == []
    assert source_decimal_interval("0.3", MIN_DECIMAL_EXPONENT).take(2) == [3]


def test_decimal_text_exponent_is_bounded_before_the_text_is_read():
    # the text's own power of ten is built exactly, so its exponent is held
    # to the same magnitude as the ulp exponent; past it nothing is built
    bound = -MIN_DECIMAL_EXPONENT
    for bad in ("0.5e-999999999", "5e999999999", f"0.5e-{bound + 1}", f"5E+{bound + 1}",
                "0.5e-1_000_001", "0.5e-" + "9" * 5000):
        with pytest.raises(ValueError, match=rf"exponent outside \[-{bound}, {bound}\]"):
            source_decimal_interval(bad, -5)
    # 1/2000 and 1/2 are cell boundaries, so they give no digit, but they are read
    assert source_decimal_interval("0.5e-3", -20).take(3) == []
    assert source_decimal_interval("0.05e1", -20).take(3) == []
    golden = source_decimal_interval("0.6180339887", -10).take(20)
    for text in ("6.180339887e-1", "0.06180339887E+1", "61.80339887e-2"):
        assert source_decimal_interval(text, -10).take(20) == golden


def test_decimal_certified_digits_are_prefix_of_true_word():
    # feed the truncated decimal of value(w); the tight interval straddles
    # value(w) itself, which is the boundary between C_w and its neighbor,
    # so exactly the first |w|-1 digits are certifiable and they match w
    for w in iter_words(5, 5):
        if len(w) >= 2 and w[-1] < 2 or w == (1,):
            continue
        v = value_of(w)
        scaled = v.numerator * 10**15 // v.denominator
        text = f"0.{scaled:015d}"
        src = source_decimal_interval(text, -15)
        digits = src.take(50)
        assert tuple(digits) == w[: len(digits)], (w, digits)
        assert digits == list(w[:-1]), (w, digits)
        assert src.precision_exhausted


def test_interval_refinement_keeps_value_inside():
    # replay the refinement for a known irrational-ish target and check the
    # bracket always contains it
    v = Fraction(6180339887498948482, 10**19)  # near the golden conjugate
    u = Fraction(1, 10**12)
    lo, hi = v - u, v + u
    digits = list(_interval_digits(lo.numerator, lo.denominator, hi.numerator, hi.denominator))
    assert len(digits) >= 10
    x = v
    for a in digits:
        assert 0 < x < 1
        assert a == x.denominator // x.numerator
        x = 1 / x - a


# ------------------------------------------------------- concat-normal

def test_concat_normal_first_emissions():
    src = source_concat_normal()
    assert src.take(13) == [2, 3, 1, 2, 4, 1, 3, 5, 2, 2, 1, 1, 2]
    # blocks for q=2 and q=3 contribute exactly four digits
    again = source_concat_normal()
    again.take(4)
    assert again.emitted == 4


def test_concat_normal_is_the_chain_of_rational_expansions():
    n = 200_000
    rationals = ((p, q) for q in itertools.count(2) for p in range(1, q) if math.gcd(p, q) == 1)
    chained = itertools.chain.from_iterable(cf_of_rational(p, q) for p, q in rationals)
    expected = list(itertools.islice(chained, n))
    assert source_concat_normal().take(n) == expected
    # takes that cut the per-denominator chunks see the same stream
    for size in (1, 3, 4999):
        src = source_concat_normal()
        got: list[int] = []
        while len(got) < n:
            got += src.take(min(size, n - len(got)))
            assert src.emitted == len(got)
        assert got == expected


def test_concat_normal_chunk_is_each_denominators_expansions():
    # the chunk of q holds cf_of_rational(p, q) for every coprime p, ascending:
    # the lower half by Euclid, the upper half mirrored from it.  q = 2..600
    # takes in q = 2, 3, 4, the prime powers up to 512, and q with many prime
    # factors (420 = 2^2*3*5*7, 510 = 2*3*5*17)
    chunks = source_concat_normal().chunks()
    for q in range(2, 601):
        expected = [d for p in range(1, q) if math.gcd(p, q) == 1 for d in cf_of_rational(p, q)]
        assert list(next(chunks)) == expected, q


def test_concat_normal_reproducible():
    a = source_concat_normal().take(100_000)
    b = source_concat_normal().take(100_000)
    assert a == b
    assert min(a) >= 1


# --------------------------------------------------------- random real

def test_random_real_deterministic():
    a = source_random_real(42).take(10_000)
    b = source_random_real(42).take(10_000)
    assert a == b
    assert min(a) >= 1
    assert source_random_real(43).take(100) != a[:100]


def test_random_real_never_exhausts_across_blocks(monkeypatch):
    monkeypatch.setattr(streams, "RANDOM_BLOCK_BITS", 64)  # tiny blocks force rollover
    src = source_random_real(5)
    digits = src.take(5_000)
    assert len(digits) == 5_000
    assert not src.precision_exhausted


def test_random_real_digit_frequency_is_gauss_like():
    digits = source_random_real(1234).take(200_000)
    freq1 = digits.count(1) / len(digits)
    assert abs(freq1 - 0.4150) < 0.02


@pytest.mark.parametrize("bits,draws", [(64, 100), (4096, 10)])
def test_random_extractor_agrees_with_direct_expansion_oracle(bits, draws):
    # seeded draws at 64 bits and at the random source's block size:
    # incremental certified digits == common prefix of the Euclidean
    # expansions of the two dyadic endpoints
    rng = random.Random(2024)
    scale = 1 << bits
    for _ in range(draws):
        m = rng.getrandbits(bits)
        got = list(_interval_digits(m, scale, m + 1, scale))
        lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
        expected = common_prefix(euclid_digits(lo), euclid_digits(hi))
        assert got == expected, (m, got, expected)
        if got:
            iv = cylinder_interval(tuple(got))
            assert iv.lo <= lo and hi <= iv.hi


# ------------------------------------------- batched extractor vs one step

# Small batch widths force many batches, cut-short batches and exact
# fallback steps even on short intervals; None keeps the module's width.
BATCH_WIDTHS = [8, 33, None]


@pytest.fixture(params=BATCH_WIDTHS, ids=lambda b: f"batch{b or 'default'}")
def batch_bits(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(streams, "EXTRACT_BITS", request.param)


@settings(max_examples=60, deadline=None)
@given(bits=st.sampled_from([64, 65, 100, 512, 4096]), seed=st.integers(0, 2**64))
def test_batched_extractor_matches_one_step_on_dyadic_blocks(bits, seed):
    m = random.Random(seed).getrandbits(bits)
    scale = 1 << bits
    assert_matches_one_step(Fraction(m, scale), Fraction(m + 1, scale))


@pytest.mark.parametrize("bits", [64, 65, 100, 512, 4096])
def test_batched_extractor_matches_one_step_at_each_width(batch_bits, bits):
    rng = random.Random(bits)
    scale = 1 << bits
    for _ in range(20):
        m = rng.getrandbits(bits)
        assert_matches_one_step(Fraction(m, scale), Fraction(m + 1, scale))


@settings(max_examples=80, deadline=None)
@given(
    mantissa=st.integers(1, 10**300 - 1),
    places=st.integers(1, 300),
    ulp_exponent=st.integers(-40, -5),
)
def test_batched_extractor_matches_one_step_on_decimal_intervals(mantissa, places, ulp_exponent):
    # long decimals give endpoints with unrelated large denominators, so the
    # batched path runs; short ones exercise the small-integer path
    d = Fraction(mantissa % 10**places or 1, 10**places)
    ulp = Fraction(10) ** ulp_exponent
    lo, hi = max(d - ulp, Fraction(0)), min(d + ulp, Fraction(1))
    digits = assert_matches_one_step(lo, hi)
    text = f"0.{d.numerator * 10**places // d.denominator:0{places}d}"
    src = source_decimal_interval(text, ulp_exponent)
    assert src.take(10**6) == digits
    assert src.precision_exhausted


EDGE_TINY = Fraction(1, 1 << 4000)


@pytest.mark.parametrize(
    "lo,hi",
    [
        (Fraction(1, 3), Fraction(1, 3) + EDGE_TINY),  # lower endpoint exactly 1/a
        (Fraction(1, 3) - EDGE_TINY, Fraction(1, 3)),  # upper endpoint exactly 1/a
        (Fraction(1, 7) - EDGE_TINY, Fraction(1, 7) + EDGE_TINY),  # straddles 1/a
        (Fraction(0), EDGE_TINY),  # lower endpoint 0
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1) - EDGE_TINY, Fraction(1)),  # upper endpoint 1
        (Fraction(1), Fraction(1)),
        (Fraction(355, 1133), Fraction(355, 1133)),  # zero width
        (Fraction(3**2000, 5**1400), Fraction(3**2000, 5**1400)),  # zero width, huge
        (Fraction(2**3000 - 1, 2**3000), Fraction(2**3000 - 1, 2**3000)),
    ],
)
def test_batched_extractor_edge_intervals(batch_bits, lo, hi):
    assert 0 <= lo <= hi <= 1
    digits = assert_matches_one_step(lo, hi)
    if lo == hi and lo > 0:
        assert digits == euclid_digits(lo)


@pytest.mark.parametrize(
    "lo_n,lo_d,hi_n,hi_d",
    [
        # unreduced endpoints that sit exactly on a cell boundary, so the
        # widened small endpoints land on it too
        (2**4000, 3 * 2**4000, 2**4000 + 1, 3 * 2**4000),  # lower is 1/3
        (1 << 4094, 1 << 4096, (1 << 4094) + 1, 1 << 4096),  # dyadic block at 1/4
        ((1 << 4094) - 1, 1 << 4096, 1 << 4094, 1 << 4096),  # dyadic block up to 1/4
        (5 * 2**3000 - 1, 7 * 2**3000, 5 * 2**3000, 7 * 2**3000),  # upper is 5/7
    ],
)
def test_batched_extractor_unreduced_boundary_endpoints(batch_bits, lo_n, lo_d, hi_n, hi_d):
    got = _interval_digits(lo_n, lo_d, hi_n, hi_d)
    assert got == list(one_step_interval_digits(lo_n, lo_d, hi_n, hi_d))


@pytest.mark.parametrize(
    "lo,hi",
    [
        (Fraction(3, 5), Fraction(3, 2)),
        (1 - Fraction(1, 2**3000), 1 + Fraction(1, 2**3000)),  # past 1 by a hair
        (1 - Fraction(1, 2**3000), Fraction(5, 4)),
    ],
)
def test_batched_extractor_interval_past_one_yields_no_digit(batch_bits, lo, hi):
    # floor(1/x) is 0 past 1, so no digit holds on all of the interval; the
    # endpoints are scaled past EXTRACT_BITS so a batch, not an exact step, meets it
    scale = 1 << 4000
    ends = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    assert _interval_digits(*(e * scale for e in ends)) == []


@pytest.mark.parametrize("width", BATCH_WIDTHS, ids=lambda b: f"batch{b or 'default'}")
@settings(max_examples=40, deadline=None)
@given(w=st.lists(st.integers(1, 50), min_size=20, max_size=200), upper=st.booleans())
def test_batched_extractor_boundary_deep_inside_a_batch(width, w, upper):
    # an endpoint exactly on the cell boundary value_of(w), 20-200 digits
    # deep, so a batch meets it after many certified steps rather than at
    # its first one
    v = value_of(tuple(w))
    lo, hi = (v - EDGE_TINY, v) if upper else (v, v + EDGE_TINY)
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:
            patch.setattr(streams, "EXTRACT_BITS", width)
        digits = assert_matches_one_step(lo, hi)
    # v is inside the cylinder of w[:-2], far wider than EDGE_TINY
    assert digits[: len(w) - 2] == w[:-2]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**62), block_bits=st.sampled_from([64, 65, 100, 512, 4096]))
def test_random_stream_is_the_one_step_stream(seed, block_bits):
    expected: list[int] = []
    scale = 1 << block_bits
    block = 0
    while len(expected) < 3000:
        m = random.Random((seed << 64) + block).getrandbits(block_bits)
        expected += one_step_interval_digits(m, scale, m + 1, scale)
        block += 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "RANDOM_BLOCK_BITS", block_bits)
        assert source_random_real(seed).take(3000) == expected[:3000]


def test_random_rejects_negative_seed():
    # random.Random seeds from |seed|: seed=-1 would replay seed=1
    with pytest.raises(ValueError, match="seed"):
        source_random_real(-1)
    with pytest.raises(ValueError, match="seed"):
        parse_source_spec("random:seed=-1")
    with pytest.raises(ValueError, match="seed"):
        parse_source_spec("random", seed=-5)
    assert source_random_real(0).take(5) == source_random_real(0).take(5)


# ------------------------------------------------------- chunks and seams

def chunked(digits: list[int], cuts) -> DigitSource:
    """A source over `digits` split at the given cut offsets."""
    bounds = sorted({0, len(digits), *(c for c in cuts if 0 < c < len(digits))})
    chunks = [digits[i:j] for i, j in zip(bounds, bounds[1:])]
    return DigitSource(iter(chunks))


def ones_chunks(digits: list[int]) -> DigitSource:
    return chunked(digits, range(len(digits)))


@settings(max_examples=300, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.integers(1, 9), max_size=8).flatmap(lambda c: st.sampled_from([c, tuple(c)])),
        max_size=10,
    ),
    mosts=st.lists(st.one_of(st.none(), st.integers(1, 12)), max_size=40),
)
@example(chunks=[[1, 2, 3, 4, 5], (), (6, 7)], mosts=[2, 1, None, 9, 3])
def test_pull_hands_out_the_stream_in_runs_of_at_most_most(chunks, mosts):
    # each run is the rest of its chunk, cut at `most`: concatenated the runs
    # are the stream, and a cut chunk's rest comes before the next chunk
    stream = [d for chunk in chunks for d in chunk]
    ends = list(itertools.accumulate(map(len, chunks)))
    src = DigitSource(iter(chunks))
    pos = 0
    for most in mosts + [None] * (len(chunks) + 1):
        run = src.pull(most)
        assert most is None or len(run) <= most
        end = min((e for e in ends if e > pos), default=pos)
        assert list(run) == stream[pos : end if most is None else min(end, pos + most)]
        pos += len(run)
        assert src.emitted == pos
    assert pos == len(stream)
    assert src.pull() == () and src.pull(3) == ()
    assert src.emitted == len(stream)


def test_take_zero_and_negative():
    src = source_rational(7, 16)
    assert src.take(0) == []
    assert src.emitted == 0
    with pytest.raises(ValueError):
        src.take(-3)
    assert src.take(5) == [2, 3, 2]
    assert source_random_real(1).take(0) == []


def test_take_continues_across_cut_chunks():
    digits = list(range(1, 41))
    for src in (chunked(digits, [7, 8, 20]), ones_chunks(digits), chunked(digits, [])):
        got = []
        for n in (3, 5, 0, 1, 13, 2, 100):
            part = src.take(n)
            got += part
            assert src.emitted == len(got)
            assert len(part) == min(n, 40 - (len(got) - len(part)))
        assert got == digits
        assert src.take(5) == []
        assert src.emitted == 40


def test_take_returns_fresh_lists():
    src = source_periodic((), (1, 2))
    first = src.take(4)
    first[0] = 99
    assert src.take(4) == [1, 2, 1, 2]
    assert source_periodic((), (1, 2)).take(4) == [1, 2, 1, 2]


def test_limit_cuts_chunk_and_leaves_rest():
    digits = list(range(1, 21))
    base = chunked(digits, [8, 15])
    assert limit(base, 10).take(100) == digits[:10]
    assert base.emitted == 10
    assert base.take(100) == digits[10:]
    assert limit(ones_chunks(digits), 7).take(100) == digits[:7]
    assert limit(chunked(digits, [8]), 8).take(100) == digits[:8]
    assert limit(chunked(digits, [8]), 0).take(100) == []


@pytest.mark.parametrize(
    "b,k,cuts",
    [
        (5, 2, [3, 9]),  # b > k
        (11, 3, [4, 17]),  # b longer than the first chunk
        (2, 3, range(60)),  # chunks of length 1
        (1, 2, [1, 2, 3]),
        (3, 7, [6, 13, 14]),  # chunk shorter than k
        (60, 2, [10]),  # b past the end
    ],
)
def test_select_ap_seams(b, k, cuts):
    digits = list(range(1, 61))
    assert select_ap(chunked(digits, cuts), b, k).take(100) == digits[b - 1 :: k]


@settings(max_examples=200, deadline=None)
@given(
    digits=st.lists(st.integers(1, 9), max_size=80),
    cuts=st.lists(st.integers(0, 80), max_size=20),
    n=st.integers(0, 90),
    b=st.integers(1, 12),
    k=st.integers(2, 6),
    b2=st.integers(1, 4),
    k2=st.integers(2, 4),
)
@example(digits=list(range(1, 10)), cuts=[2, 4], n=8, b=5, k=2, b2=1, k2=2)
def test_chunked_pipeline_equals_list_slicing(digits, cuts, n, b, k, b2, k2):
    prefix = digits[:n]
    selected = prefix[b - 1 :: k]
    src = chunked(digits, cuts)
    chain = select_ap(limit(src, n), b, k)
    assert chain.take(len(prefix) + 1) == selected
    assert chain.emitted == len(selected)
    composed = select_ap(select_ap(chunked(digits, cuts), b, k), b2, k2)
    direct = select_ap(chunked(digits, cuts), b + (b2 - 1) * k, k * k2)
    assert composed.take(100) == direct.take(100) == digits[b - 1 :: k][b2 - 1 :: k2]


def test_precision_exhausted_through_limit_and_select_ap():
    text = "0.6180339887498948482045868343656381177203"
    certified = source_decimal_interval(text, -30).take(1000)
    assert 20 < len(certified) < 1000
    chain = select_ap(limit(source_decimal_interval(text, -30), 1000), 2, 3)
    assert chain.take(1000) == certified[1::3]
    assert chain.precision_exhausted
    # a limit that stops inside the certified digits never sees exhaustion
    short = select_ap(limit(source_decimal_interval(text, -30), 10), 2, 3)
    assert short.take(1000) == certified[1:10:3]
    assert not short.precision_exhausted


# ------------------------------------------------------ wrappers, specs

def test_limit_wrapper():
    src = limit(source_periodic((), (7,)), 5)
    assert src.take(100) == [7] * 5
    finite = limit(source_rational(7, 16), 10)
    assert finite.take(10) == [2, 3, 2]


def test_select_ap_basic():
    counting = source_periodic((), tuple(range(1, 13)))  # 1..12 repeating
    assert select_ap(counting, 1, 2).take(5) == [1, 3, 5, 7, 9]
    counting = source_periodic((), tuple(range(1, 13)))
    assert select_ap(counting, 2, 3).take(4) == [2, 5, 8, 11]
    parity = source_periodic((), (2, 1))
    assert select_ap(parity, 1, 2).take(4) == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        select_ap(source_periodic((), (1,)), 0, 2)
    with pytest.raises(ValueError):
        select_ap(source_periodic((), (1,)), 1, 1)


def test_select_ap_composition():
    # selecting every a-th then every b-th equals selecting every (a*b)-th
    base1 = source_periodic((), tuple(range(1, 30)))
    base2 = source_periodic((), tuple(range(1, 30)))
    composed = select_ap(select_ap(base1, 1, 2), 1, 3)
    direct = select_ap(base2, 1, 6)
    assert composed.take(50) == direct.take(50)


def test_select_ap_on_sources():
    parity = source_periodic((), (2, 1))
    assert select_ap(parity, 1, 2).take(6) == [2] * 6


def test_parse_source_spec_forms():
    assert parse_source_spec("rational:7/16").take(5) == [2, 3, 2]
    assert parse_source_spec("periodic:,2").take(3) == [2, 2, 2]
    assert parse_source_spec("periodic:1;2,3").take(5) == [1, 2, 3, 2, 3]
    decimal = parse_source_spec("decimal:0.6180339887:e-10")
    assert decimal.take(3) == [1, 1, 1]
    assert parse_source_spec("concat-normal").take(2) == [2, 3]
    assert parse_source_spec("random:seed=42").take(50) == source_random_real(42).take(50)
    assert parse_source_spec("random", seed=42).take(50) == source_random_real(42).take(50)
    for bad in ("random", "nope:1", "periodic:", "decimal:0.5"):
        with pytest.raises(ValueError):
            parse_source_spec(bad)


@pytest.mark.parametrize("spec", ["concat-normal", "random:seed=5", "random:", "rational:7/16"])
def test_external_seed_is_read_only_by_bare_random(spec):
    # a seed that no source reads is refused, not echoed as if it were used
    with pytest.raises(UsageError, match="--seed is read only by the bare source 'random'"):
        parse_source_spec(spec, seed=3)
