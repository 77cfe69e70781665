"""Detectors and border machinery against brute-force oracles."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipower import (
    InvalidBorderError,
    LengthDeficit,
    Word,
    all_borders,
    block_factorization,
    is_k_anti_power,
    is_k_power,
    longest_border_array,
    naive_is_k_anti_power,
    naive_is_k_power,
    root_power_from_border,
)
from antipower.detect import ends_in_anti_power, ends_in_power


def brute_borders(s: bytes) -> list[int]:
    """Oracle: all border lengths by comparing every prefix/suffix pair."""
    n = len(s)
    return [b for b in range(n - 1, -1, -1) if s[:b] == s[n - b :]]


def test_power_examples():
    assert is_k_power(Word.from_text("abab"), 2)
    assert not is_k_power(Word.from_text("0110110"), 3)  # length 7 not divisible by 3
    assert is_k_power(Word.from_text("001001001"), 3)
    assert is_k_power(Word(), 7)  # empty word: all blocks empty
    assert is_k_power(Word.from_text("0"), 1)


def test_anti_power_examples():
    assert is_k_anti_power(Word.from_text("aabaaabbbaba"), 4)
    assert is_k_anti_power(Word.from_text("011010011001011"), 3)
    assert not is_k_anti_power(Word.from_text("010101"), 3)
    assert not is_k_anti_power(Word(), 2)  # empty word is never an anti-power
    assert is_k_anti_power(Word.from_text("0"), 1)


def test_power_and_anti_power_disjoint_for_k_ge_2():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 25)
        w = Word(bytes(rng.randrange(2) for _ in range(n)))
        for k in range(2, n + 1):
            if n % k == 0:
                assert not (is_k_power(w, k) and is_k_anti_power(w, k))


def test_detectors_match_naive_oracle_exhaustively():
    for n in range(1, 13):
        for bits in product((0, 1), repeat=n):
            w = Word(bytes(bits), 2)
            for k in range(1, n + 1):
                if n % k:
                    continue
                assert is_k_power(w, k) == naive_is_k_power(w, k)
                assert is_k_anti_power(w, k) == naive_is_k_anti_power(w, k)


def naive_ends_in(check, w: Word, k: int) -> bool:
    """Oracle: does the naive detector accept some suffix of length k*b?"""
    n = len(w)
    return any(check(w[n - k * b :], k) for b in range(1, n // k + 1))


def test_suffix_checks_match_naive_oracle_exhaustively():
    for n in range(0, 11):
        for bits in product((0, 1), repeat=n):
            w = Word(bytes(bits), 2)
            for k in range(1, 5):
                assert ends_in_power(w.symbols, k) == naive_ends_in(naive_is_k_power, w, k)
                assert ends_in_anti_power(w.symbols, k) == naive_ends_in(naive_is_k_anti_power, w, k)


# fixed-seed property runs: random short ternary words, no example database
derandomized = settings(derandomize=True, database=None, max_examples=300, deadline=None)
ternary_words = st.lists(st.integers(0, 2), max_size=30).map(lambda s: Word(bytes(s), 3))


@derandomized
@given(ternary_words, st.integers(1, 6))
def test_is_k_anti_power_matches_naive_oracle_on_random_words(w, k):
    assert is_k_anti_power(w, k) == naive_is_k_anti_power(w, k)


@derandomized
@given(ternary_words, st.integers(1, 6))
def test_ends_in_power_matches_naive_oracle_on_random_words(w, l):
    assert ends_in_power(w.symbols, l) == naive_ends_in(naive_is_k_power, w, l)


@derandomized
@given(ternary_words, st.integers(1, 6))
def test_ends_in_anti_power_matches_naive_oracle_on_random_words(w, k):
    assert ends_in_anti_power(w.symbols, k) == naive_ends_in(naive_is_k_anti_power, w, k)


def test_block_factorization():
    f = block_factorization(Word.from_text("aabaaabbbaba"), 4)
    assert f.block_length == 3
    assert [b.to_text() for b in f.blocks] == ["001", "000", "111", "010"]
    with pytest.raises(ValueError):
        block_factorization(Word.from_text("abc"), 2)


def test_border_array_examples():
    assert longest_border_array(Word.from_text("aaaa")) == [0, 1, 2, 3]
    assert longest_border_array(Word.from_text("abab")) == [0, 0, 1, 2]
    assert longest_border_array(Word.from_text("aabaa")) == [0, 1, 0, 1, 2]
    with pytest.raises(ValueError):
        longest_border_array(Word())


def test_border_array_matches_brute_force():
    rng = random.Random(11)
    for alphabet in (2, 3):
        for _ in range(200):
            n = rng.randrange(1, 65)
            s = bytes(rng.randrange(alphabet) for _ in range(n))
            w = Word(s, alphabet)
            fail = longest_border_array(w)
            for p in range(1, n + 1):
                assert fail[p - 1] == brute_borders(s[:p])[0]
            assert all_borders(w) == brute_borders(s)


def test_root_power_examples():
    w = Word.from_text("aabaa")
    assert root_power_from_border(w, 2, 1) == Word.from_text("aab")
    w6 = Word.from_text("ababab")
    u = root_power_from_border(w6, 4, 3)
    assert u == Word.from_text("ab")
    assert u * 3 == w6
    refusal = root_power_from_border(w, 2, 2)
    assert isinstance(refusal, LengthDeficit)
    assert refusal.required == 6 and refusal.actual == 5


def test_root_power_errors():
    w = Word.from_text("aabaa")
    with pytest.raises(InvalidBorderError):
        root_power_from_border(w, 3, 1)  # "aab" is not a suffix
    with pytest.raises(ValueError):
        root_power_from_border(w, 5, 1)  # border must be proper
    with pytest.raises(ValueError):
        root_power_from_border(w, -1, 1)


def test_root_power_guarantee_on_random_words():
    # whenever a root is returned, its power really is a prefix
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randrange(1, 33)
        w = Word(bytes(rng.randrange(2) for _ in range(n)), 2)
        for b in all_borders(w):
            u_len = n - b
            for l in range(1, n // u_len + 1):
                u = root_power_from_border(w, b, l)
                assert isinstance(u, Word)
                assert w.symbols[: l * u_len] == u.symbols * l
