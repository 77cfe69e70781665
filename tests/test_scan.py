"""Factor scans and the bounded right-extension search."""

import random

import pytest

from antipower import (
    FibonacciWord,
    PeriodicWord,
    RecurrentAvoiderWord,
    ThueMorseWord,
    Word,
    anti_power_at_position,
    find_anti_power_factor,
    find_anti_power_in_word,
    max_avoiding_extension,
    naive_find_anti_power_factor,
    naive_is_k_anti_power,
)


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
