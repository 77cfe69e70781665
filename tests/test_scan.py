"""Factor scans and the bounded right-extension search."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipower import (
    FibonacciWord,
    PeriodicWord,
    RecurrentAvoiderWord,
    SparseAvoiderWord,
    ThueMorseWord,
    Word,
    anti_power_at_position,
    find_anti_power_factor,
    find_anti_power_in_word,
    max_avoiding_extension,
    naive_find_anti_power_factor,
    naive_is_k_anti_power,
)
from antipower import scan


def test_find_anti_power_examples():
    assert find_anti_power_factor(PeriodicWord(Word.from_text("0")), 2, 100) is None
    assert find_anti_power_factor(ThueMorseWord(), 2, 10) == (1, 1)
    assert find_anti_power_factor(RecurrentAvoiderWord(), 6, 3125) is None


def test_find_anti_power_matches_naive_first_hit():
    rng = random.Random(19)
    for alphabet in (2, 3):
        for _ in range(120):
            n = rng.randrange(4, 41)
            w = Word(bytes(rng.randrange(alphabet) for _ in range(n)), alphabet)
            for k in range(2, 6):
                assert find_anti_power_in_word(w, k) == naive_find_anti_power_factor(w, k)


def test_find_anti_power_names_symbols_above_the_word_length():
    # in this 6-symbol word, packing the blocks 10 and 06 in base 6 would give both the key 6
    assert find_anti_power_in_word(Word(bytes([1, 0, 0, 0, 0, 6])), 3) == (1, 2)


def cumsum_mask_scan(w: Word, k: int) -> tuple[int, int] | None:
    """Oracle: the earlier numpy scan, kept independent of the factor names.

    Per block length ell and offset m*ell, the windowed sum of the symbol
    match mask says whether the blocks at a and a+m*ell coincide.
    """
    arr = np.frombuffer(w.symbols, dtype=np.uint8)
    n = len(arr)
    for ell in range(1, n // k + 1):
        npos = n - k * ell + 1
        ok = np.ones(npos, dtype=bool)
        for m in range(1, k):
            d = m * ell
            csum = np.concatenate(([0], np.cumsum(arr[: n - d] == arr[d:], dtype=np.int64)))
            full = (csum[ell:] - csum[:-ell]) == ell
            for i in range(k - m):
                ok &= ~full[i * ell : i * ell + npos]
        if ok.any():
            return int(np.argmax(ok)) + 1, ell
    return None


def _noisy_periodic(rng: random.Random, n: int) -> Word:
    seed = [rng.randrange(3) for _ in range(rng.randrange(2, 8))]
    symbols = [seed[i % len(seed)] for i in range(n)]
    for _ in range(rng.randrange(1, 6)):
        symbols[rng.randrange(n)] = rng.randrange(3)
    return Word(bytes(symbols), 3)


def _random_over(symbols, alphabet: int):
    return lambda rng, n: Word(bytes(rng.choice(symbols) for _ in range(n)), alphabet)


MEDIUM_WORDS = {
    "thue-morse": lambda rng, n: ThueMorseWord().prefix(n),
    "fibonacci": lambda rng, n: FibonacciWord().prefix(n),
    "recurrent-avoider": lambda rng, n: RecurrentAvoiderWord().prefix(n),
    "sparse-avoider": lambda rng, n: SparseAvoiderWord().prefix(n),
    "noisy-periodic": _noisy_periodic,
    "random-2": _random_over(range(2), 2),
    "random-3": _random_over(range(3), 3),
    "random-256": _random_over(range(256), 256),
    "sparse-255": _random_over((0, 0, 0, 0, 0, 0, 255), 256),
}


@pytest.mark.parametrize("family", sorted(MEDIUM_WORDS))
def test_find_anti_power_matches_the_cumsum_mask_scan_on_medium_words(family):
    rng = random.Random(family)
    for k in range(2, 9):
        w = MEDIUM_WORDS[family](rng, rng.randrange(500, 4001))
        assert find_anti_power_in_word(w, k) == cumsum_mask_scan(w, k), (k, len(w))


@pytest.mark.parametrize("gather_keys", [1, 7])
def test_survivor_batches_keep_the_first_hit(monkeypatch, gather_keys):
    # small gathers check the survivors one or a few rows at a time
    monkeypatch.setattr(scan, "_GATHER_KEYS", gather_keys)
    rng = random.Random(29)
    for _ in range(150):
        w = _noisy_periodic(rng, rng.randrange(4, 60))
        for k in range(2, 7):
            assert find_anti_power_in_word(w, k) == naive_find_anti_power_factor(w, k)


@st.composite
def near_periodic_words(draw):
    """(word, k) with n // k >= 2^j + 1, so block lengths 2^j - 1, 2^j, 2^j + 1 are in range."""
    j = draw(st.integers(1, 5))
    k = draw(st.integers(2, min(7, 89 // (2**j + 1))))
    n = draw(st.integers(k * (2**j + 1), 89))
    seed = draw(st.lists(st.sampled_from((0, 1, 2, 255)), min_size=1, max_size=5))
    symbols = [seed[i % len(seed)] for i in range(n)]
    for pos, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), max_size=3)):
        symbols[pos] = c
    return Word(bytes(symbols), 256), k


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(near_periodic_words())
def test_find_anti_power_matches_naive_on_near_periodic_words(case):
    w, k = case
    assert find_anti_power_in_word(w, k) == naive_find_anti_power_factor(w, k)


def test_find_anti_power_validates_arguments():
    with pytest.raises(ValueError):
        find_anti_power_factor(ThueMorseWord(), 1, 10)
    with pytest.raises(ValueError):
        find_anti_power_factor(ThueMorseWord(), 3, 2)


def test_anti_power_at_position_on_thue_morse():
    tm = ThueMorseWord()
    assert anti_power_at_position(tm, 3, 1, 100) == 5  # shortest 3-anti-power prefix has length 15
    assert anti_power_at_position(tm, 2, 1, 100) == 1


def test_anti_power_at_position_matches_brute_force():
    fib = FibonacciWord()
    got = anti_power_at_position(fib, 3, 1, 100)
    w = fib.prefix(3 * 100)
    brute = next(ell for ell in range(1, 101) if naive_is_k_anti_power(w[: 3 * ell], 3))
    assert got == brute == 2
    # interior positions too
    tm = ThueMorseWord()
    w = tm.prefix(7 + 4 * 60)
    for pos in (2, 3, 7):
        got = anti_power_at_position(tm, 4, pos, 60)
        brute = next(
            ell
            for ell in range(1, 61)
            if naive_is_k_anti_power(w[pos - 1 : pos - 1 + 4 * ell], 4)
        )
        assert got == brute


def test_anti_power_at_position_not_found_is_none():
    x = PeriodicWord(Word.from_text("0"))
    assert anti_power_at_position(x, 2, 1, 50) is None


def test_extension_dead_seeds():
    out = max_avoiding_extension(Word.from_text("abc"), 3, 3, 10)
    assert out.status == "exhausted" and out.depth == 0
    # brute force over all binary extensions: some 4 appended letters
    # survive, every 5 end in a 3-anti-power at an appended position
    out = max_avoiding_extension(Word.from_text("1001"), 3, 2, 20)
    assert out.status == "exhausted" and out.depth == 4


def test_extension_open_seed():
    out = max_avoiding_extension(Word.from_text("0"), 3, 2, 30)
    assert out.status == "open" and out.depth == 30


def test_extension_checks_suffixes_at_the_newest_letter_only():
    # 00|01|10 is a 3-anti-power, so the bare seed dies immediately...
    assert naive_is_k_anti_power(Word.from_text("000110"), 3)
    out = max_avoiding_extension(Word.from_text("000110"), 3, 2, 5)
    assert out.status == "exhausted" and out.depth == 0
    # ...but buried one letter deep it is the caller's concern, not ours:
    # 0001100 has no anti-power suffix ending at its last letter and 0001100+1
    # survives the incremental check, so the search stays alive
    out = max_avoiding_extension(Word.from_text("0001100"), 3, 2, 1)
    assert out.status == "open" and out.depth == 1


def test_extension_runs_deeper_than_the_recursion_limit():
    # 0^n never ends in a 2-anti-power, so the search descends straight to the cap
    # depth_cap=0 puts a live seed at the limit before any letter is tried
    for depth_cap in (1500, 0):
        out = max_avoiding_extension(Word.from_text("0"), 2, 2, depth_cap)
        assert out.status == "open" and out.depth == depth_cap


def test_extension_rejects_alphabets_beyond_a_byte():
    with pytest.raises(ValueError):
        max_avoiding_extension(Word.from_text("0"), 3, 300, 5)
