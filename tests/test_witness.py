"""Power-witness extraction and the executable dichotomy."""

import random
from math import comb

import pytest

from antipower import (
    AntiPowerReport,
    BudgetExhaustedError,
    FibonacciWord,
    LiteralWord,
    PeriodicWord,
    ThueMorseWord,
    Word,
    WitnessEvidence,
    extract_power_witness,
    naive_is_k_anti_power,
    verify_witness,
)


def assert_power_occurs(x, ev):
    """Independent check: u**l really sits at the stated position of x."""
    u = ev.u.symbols
    pos0 = ev.occurrence_position - 1
    window = x.prefix(pos0 + ev.l * len(u)).symbols
    assert window[pos0:] == u * ev.l


def test_unary_word_gives_trivial_root():
    x = PeriodicWord(Word.from_text("0"))
    ev = extract_power_witness(x, 2, 10)
    assert isinstance(ev, WitnessEvidence)
    assert ev.u == Word.from_text("0")
    assert_power_occurs(x, ev)


def test_period_two_word_k3_l5():
    x = PeriodicWord(Word.from_text("01"))
    ev = extract_power_witness(x, 3, 5)
    assert isinstance(ev, WitnessEvidence)
    assert 1 <= len(ev.u) <= ev.M == 6
    assert_power_occurs(x, ev)
    verify_witness(x, ev)


def test_thue_morse_takes_the_anti_power_branch():
    # t is cube-free, so no u with u**3 a factor exists; every window the
    # scan visits must be blocked by an anti-power index
    x = ThueMorseWord()
    rep = extract_power_witness(x, 3, 3, budget=400)
    assert isinstance(rep, AntiPowerReport)
    assert rep.total_found > 0
    for m in rep.anti_power_lengths:
        assert naive_is_k_anti_power(x.prefix(3 * m), 3)


def test_budget_exhausted_when_no_window_fits():
    x = PeriodicWord(Word.from_text("01"))
    with pytest.raises(BudgetExhaustedError):
        extract_power_witness(x, 3, 5, budget=36)  # (l+1)*M = 36 leaves nothing to scan


def test_random_periodic_words_always_certify_one_branch():
    rng = random.Random(101)
    for _ in range(60):
        seed_len = rng.randrange(1, 17)
        seed = Word(bytes(rng.randrange(2) for _ in range(seed_len)), 2)
        x = PeriodicWord(seed)
        res = extract_power_witness(x, 3, 3, budget=300)
        if isinstance(res, WitnessEvidence):
            assert 1 <= len(res.u) <= 6
            assert_power_occurs(x, res)
            verify_witness(x, res)
        else:
            for m in res.anti_power_lengths[:5]:
                assert naive_is_k_anti_power(x.prefix(3 * m), 3)


def test_scan_finds_the_first_free_window_by_naive_oracle():
    # a window is C(k,2)+1 consecutive block lengths with no anti-power
    # prefix; the scan must return the first one, or report every
    # anti-power length up to the first one at or past the budget
    rng = random.Random(5)
    words = [ThueMorseWord(), FibonacciWord()]
    for _ in range(40):
        head = bytes(rng.randrange(3) for _ in range(rng.randrange(0, 40)))
        tail = bytes(rng.randrange(3) for _ in range(rng.randrange(1, 12)))
        words.append(LiteralWord(Word(head, 3), Word(tail, 3)))
    for x in words:
        for k, l in ((2, 1), (3, 1), (3, 2)):
            c = comb(k, 2)
            first, budget = (l + 1) * (k - 1) * c + 1, 60
            is_ap = {m: naive_is_k_anti_power(x.prefix(k * m), k) for m in range(first, budget + c + 1)}
            starts = [m for m in range(first, budget + 1) if not any(is_ap[t] for t in range(m, m + c + 1))]
            res = extract_power_witness(x, k, l, budget=budget)
            if starts:
                assert isinstance(res, WitnessEvidence) and res.window_start == starts[0]
            else:
                end = min(m for m in is_ap if m >= budget and is_ap[m])
                lengths = [m for m in range(first, end + 1) if is_ap[m]]
                assert isinstance(res, AntiPowerReport)
                assert (list(res.anti_power_lengths), res.total_found) == (lengths[:24], len(lengths))


def test_avoider_words_force_the_power_branch():
    # a word with no 4-anti-power factors has an empty anti-power prefix set,
    # so the very first window is free and a root must come out
    from antipower import RecurrentAvoiderWord, SparseAvoiderWord

    x = SparseAvoiderWord()
    ev = extract_power_witness(x, 4, 2)
    assert isinstance(ev, WitnessEvidence)
    verify_witness(x, ev)
    assert_power_occurs(x, ev)

    x = RecurrentAvoiderWord()
    ev = extract_power_witness(x, 6, 2)
    assert isinstance(ev, WitnessEvidence)
    verify_witness(x, ev)
    assert_power_occurs(x, ev)


def test_overlap_free_word_forces_the_report_branch_at_order_two():
    # every 2m-prefix of Thue-Morse splits into two distinct halves, so no
    # window is ever free of anti-power indexes: every scanned start blocks
    rep = extract_power_witness(ThueMorseWord(), 2, 3, budget=200)
    assert isinstance(rep, AntiPowerReport)
    assert rep.anti_power_lengths[0] == 5  # first block length past (l+1)*M = 4
    assert rep.total_found == 196  # one confirmed anti-power per scanned window start


def test_witness_serialization_schema():
    x = PeriodicWord(Word.from_text("01"))
    ev = extract_power_witness(x, 3, 5)
    data = ev.to_json()
    assert set(data) == {"u", "l", "k", "M", "r", "s", "i", "j", "position"}
    assert data["l"] == 5 and data["k"] == 3 and data["M"] == 6
    assert data["position"] == ev.occurrence_position
