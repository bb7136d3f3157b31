"""Verification scans: lazy enumeration, first counterexample, `checked` counts."""

import re

import pytest

from cflab import UsageError, iter_words, verify


@pytest.mark.parametrize(
    "runner,check_name,family",
    [
        (verify.run_reversal, "reversal_holds", list(iter_words(3, 3))),
        (
            verify.run_dominance,
            "dominance_holds",
            [w for w in iter_words(3, 3) if w[-1] >= 2],
        ),
        (verify.run_pairwise, "pairwise_holds", list(iter_words(3, 3))),
    ],
)
def test_failed_scan_counts_words_up_to_the_first_counterexample(
    monkeypatch, runner, check_name, family
):
    bad = {family[9], family[20]}
    seen = []

    def check(w, pair):
        seen.append(w)
        return w not in bad

    monkeypatch.setattr(verify, check_name, check)
    result = runner(3, 3)
    assert not result.passed
    assert result.counterexample == family[9]
    assert result.checked == 10 == len(seen)
    assert seen == family[:10]
    assert "10 cases checked" in result.summary()


def test_passing_scan_counts_the_whole_family():
    assert verify.run_reversal(3, 3).checked == 3 + 9 + 27
    assert verify.run_dominance(3, 3).checked == (3 + 9 + 27) * 2 // 3
    assert verify.run_pairwise(3, 2).checked == 3 + 9
    # 7 last digits after each of the 8**(L-1) prefixes, L = 1..6
    assert verify.run_dominance(8, 6).checked == 262_143 == sum(7 * 8**j for j in range(6))


@pytest.mark.parametrize("runner", [verify.run_reversal, verify.run_dominance, verify.run_pairwise])
@pytest.mark.parametrize("max_digit,max_len", [(0, 3), (3, 0), (0, 0)])
def test_scan_of_an_empty_family_has_no_words_to_check(runner, max_digit, max_len):
    with pytest.raises(ValueError, match="no words to check"):
        runner(max_digit, max_len)


@pytest.mark.parametrize("runner", [verify.run_reversal, verify.run_dominance, verify.run_pairwise])
def test_scan_past_the_word_limit_is_refused_before_it_starts(monkeypatch, runner):
    # digits <= 3 and length <= 3 give 3 + 9 + 27 = 39 words, dominance's
    # 26 among them: the bound counts every digit string of the bounds
    monkeypatch.setattr(verify, "MAX_WORDS", 39)
    assert runner(3, 3).passed
    monkeypatch.setattr(verify, "MAX_WORDS", 38)
    with pytest.raises(UsageError, match="length <= 3 give 39 words; a scan checks at most 38"):
        runner(3, 3)


@pytest.mark.parametrize(
    "max_digit,max_len,count",
    [
        (1000, 5, "1,001,001,001,001,000"),
        (1, 10**8, "100,000,000"),
        (2, 10**9, "over 10**18"),
        (10**400, 1, "over 10**18"),  # nor is a huge bound echoed whole
    ],
)
def test_bounds_that_would_scan_for_years_are_refused_at_once(max_digit, max_len, count):
    # the bench's largest family, digits <= 8 and length <= 6, stays inside
    assert sum(8**j for j in range(1, 7)) == 299_592 <= verify.MAX_WORDS
    with pytest.raises(UsageError, match=re.escape(f"give {count} words")) as refused:
        verify.run_reversal(max_digit, max_len)
    assert len(str(refused.value)) < 120
