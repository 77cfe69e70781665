"""Prefix index sets and density estimates."""

import random
from fractions import Fraction

import pytest

from antipower import (
    FibonacciWord,
    IndexSet,
    LiteralWord,
    MaterializationCapError,
    PeriodicWord,
    ThueMorseWord,
    Word,
    anti_power_at_position,
    ap_min,
    ap_set,
    density_estimate,
    extract_power_witness,
    naive_is_k_anti_power,
    naive_is_k_power,
    p_set,
    parse_generator,
)
from antipower.hashing import PrefixHashes


def test_ap_set_of_01_omega_is_empty():
    x = LiteralWord(Word.from_text("0"), Word.from_text("1"))
    for k in (3, 4, 5):
        assert ap_set(x, k, 40).members == ()
        assert p_set(x, k, 40).members == ()


def test_ap_set_order_one_is_everything():
    assert ap_set(ThueMorseWord(), 1, 10).members == tuple(range(1, 11))
    assert p_set(ThueMorseWord(), 1, 10).members == tuple(range(1, 11))


def test_ap_set_thue_morse_minimum():
    s = ap_set(ThueMorseWord(), 3, 10)
    assert min(s.members) == 5


def test_p_set_examples():
    s = p_set(PeriodicWord(Word.from_text("01")), 2, 6)
    assert s.members == (2, 4, 6)
    assert p_set(ThueMorseWord(), 3, 100).members == ()  # t is cube-free


def test_sets_match_naive_prefix_checks():
    for x in (ThueMorseWord(), PeriodicWord(Word.from_text("0011"))):
        for k in (2, 3, 4):
            w = x.prefix(k * 30)
            ap = ap_set(x, k, 30).members
            pw = p_set(x, k, 30).members
            for m in range(1, 31):
                assert (m in ap) == naive_is_k_anti_power(w[: k * m], k)
                assert (m in pw) == naive_is_k_power(w[: k * m], k)
            assert not set(ap) & set(pw)


def test_sets_match_naive_oracles_exhaustively():
    words = (
        ThueMorseWord(),
        FibonacciWord(),
        PeriodicWord(Word.from_text("0120121")),
        PeriodicWord(Word.from_text("001")),
        LiteralWord(Word.from_text("0110"), Word.from_text("01")),
    )
    horizon = 60
    for x in words:
        for k in range(2, 7):
            w = x.prefix(k * horizon)
            ap = set(ap_set(x, k, horizon).members)
            pw = set(p_set(x, k, horizon).members)
            for m in range(1, horizon + 1):
                assert (m in ap) == naive_is_k_anti_power(w[: k * m], k), (x.name, k, m)
                assert (m in pw) == naive_is_k_power(w[: k * m], k), (x.name, k, m)


def test_ap_min_values():
    tm = ThueMorseWord()
    assert ap_min(tm, 2, 10) == 1
    assert ap_min(tm, 7, 50) == 11
    assert ap_min(tm, 100, 200) == 97
    x = PeriodicWord(Word.from_text("01"))
    assert ap_min(x, 3, 100) is None


def test_ap_min_is_the_position_one_scan():
    words = (ThueMorseWord, FibonacciWord, lambda: PeriodicWord(Word.from_text("0120121")))
    for make in words:
        for k in range(2, 12):
            assert ap_min(make(), k, 150) == anti_power_at_position(make(), k, 1, 150), (make().name, k)


def test_length_batches_stop_at_the_cap():
    # the answer fits under the cap: no batch may reach past it
    assert ap_min(ThueMorseWord(cap=15), 3, 100) == 5
    assert anti_power_at_position(ThueMorseWord(cap=15), 3, 1, 100) == 5
    assert anti_power_at_position(ThueMorseWord(cap=23), 3, 9, 100) == 5
    # no answer under the cap: the error names the first length past it, as a one-length scan would
    with pytest.raises(MaterializationCapError, match="length 51 exceeds"):
        ap_min(PeriodicWord(Word.from_text("01"), cap=50), 3, 50)
    with pytest.raises(MaterializationCapError, match="length 52 exceeds"):
        anti_power_at_position(PeriodicWord(Word.from_text("01"), cap=50), 3, 2, 50)
    with pytest.raises(MaterializationCapError, match="length 501 exceeds"):
        extract_power_witness(ThueMorseWord(cap=500), 3, 2, 20000)
    with pytest.raises(MaterializationCapError, match="length 57 exceeds"):
        extract_power_witness(PeriodicWord(Word.from_text("0"), cap=50), 3, 2, 20000)
    assert ap_min(PeriodicWord(Word.from_text("01"), cap=48), 3, 16) is None  # the limit comes first


def test_anti_power_order_is_monotone_on_thue_morse():
    # km-prefix a k-anti-power => its first k-1 blocks form a (k-1)-anti-power
    tm = ThueMorseWord()
    for k in range(3, 11):
        members = set(ap_set(tm, k, 50).members)
        w = tm.prefix(k * 50)
        for m in members:
            assert naive_is_k_anti_power(w[: (k - 1) * m], k - 1)


def test_density_everything_and_nothing():
    full = IndexSet("anti-power", ThueMorseWord(), 1, 12, tuple(range(1, 13)))
    est = density_estimate(full)
    assert set(est.ratios) == {Fraction(1)}
    assert est.min_tail == 1
    empty = IndexSet("anti-power", ThueMorseWord(), 3, 12, ())
    est = density_estimate(empty)
    assert set(est.ratios) == {Fraction(0)}
    assert est.min_tail == 0


def test_density_of_even_numbers():
    evens = IndexSet("power", PeriodicWord(Word.from_text("01")), 2, 100, tuple(range(2, 101, 2)))
    est = density_estimate(evens)
    assert est.ratios[99] == Fraction(1, 2)
    assert est.min_tail <= est.ratios[99]
    assert all(0 <= d <= 1 for d in est.ratios)


def test_density_requires_horizon_two():
    s = IndexSet("anti-power", ThueMorseWord(), 1, 1, (1,))
    with pytest.raises(ValueError):
        density_estimate(s)


def fraction_trace(members, horizon):
    """d_1 .. d_horizon and their tail-half minimum, one Fraction per n: an independent oracle."""
    ratios, count = [], 0
    for n in range(1, horizon + 1):
        count += n in members
        ratios.append(Fraction(count, n))
    return ratios, min(ratios[(horizon + 1) // 2 - 1 :])


def test_density_trace_matches_a_fraction_loop():
    rng = random.Random(21)
    horizons = list(range(2, 41)) + [rng.randrange(41, 500) for _ in range(20)] + [499, 500]
    for horizon in horizons:
        cases = [set(), set(range(1, horizon + 1))]
        cases += [{n for n in range(1, horizon + 1) if rng.random() < p} for p in (0.03, 0.3, 0.5, 0.9)]
        cases.append(set(range(rng.randrange(1, horizon + 1), horizon + 1)))  # a late run: its minimum is early
        for members in cases:
            s = IndexSet("anti-power", ThueMorseWord(), 2, horizon, tuple(sorted(members)))
            est = density_estimate(s)
            ratios, low = fraction_trace(members, horizon)
            assert est.numerators == tuple(d.numerator for d in ratios), horizon
            assert est.denominators == tuple(d.denominator for d in ratios), horizon
            assert all(type(v) is int for v in est.numerators + est.denominators)
            assert est.ratios == tuple(ratios)
            assert est.min_tail == low and type(est.min_tail) is Fraction, horizon


def test_p_set_across_batches_matches_the_oracle():
    # past the first batch of 16 rows the power check extends the last confirmed period
    names = (
        "periodic:0201011",
        "periodic:001",
        "periodic:0",
        "literal:0000000:1",  # period 1 dies at n = 8
        "literal:00000000000:01",  # period 1 dies, period 2 takes over
        "literal:010:0100101001",
        "thue-morse",
        "fibonacci",
    )
    horizon = 150  # batches of 16, 32, 64 and 38 rows
    for name in names:
        for k in range(2, 7):
            w = parse_generator(name).prefix(k * horizon)
            want = tuple(m for m in range(1, horizon + 1) if naive_is_k_power(w[: k * m], k))
            assert p_set(parse_generator(name), k, horizon).members == want, (name, k)
    rng = random.Random(6)
    for _ in range(60):
        head = "".join(rng.choice("01") for _ in range(rng.randrange(13)))
        tail = "".join(rng.choice("012"[: rng.randrange(1, 4)]) for _ in range(rng.randrange(1, 6)))
        name = f"literal:{head}:{tail}"
        k = rng.randrange(2, 7)
        w = parse_generator(name).prefix(k * 60)
        want = tuple(m for m in range(1, 61) if naive_is_k_power(w[: k * m], k))
        assert p_set(parse_generator(name), k, 60).members == want, (name, k)


def test_p_set_compares_only_past_the_known_period(monkeypatch):
    # the 10m-prefix of (0201011)^omega is a 10-power exactly when 7 | m; each
    # such row costs one comparison, of the symbols past the last power only
    calls = []
    equal_blocks = PrefixHashes.equal_blocks

    def counting(self, a, b, length):
        calls.append(length)
        return equal_blocks(self, a, b, length)

    monkeypatch.setattr(PrefixHashes, "equal_blocks", counting)
    s = p_set(parse_generator("periodic:0201011"), 10, 100_000)
    assert s.members == tuple(range(7, 100_001, 7))
    assert len(calls) == 14_285
    assert sum(calls) < 10**7  # each whole-period comparison would make it ~6.4e9


def test_index_set_serialization():
    s = p_set(PeriodicWord(Word.from_text("01")), 2, 6)
    assert s.members == (2, 4, 6)
