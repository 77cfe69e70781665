"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is exact; stated runtime budgets
are asserted as hard bounds (all run with large margins).
"""

import functools
import random
import time
from itertools import product

from antipower import (
    FibonacciWord,
    PeriodicWord,
    RecurrentAvoiderWord,
    SearchParams,
    SparseAvoiderWord,
    ThueMorseWord,
    Word,
    WitnessEvidence,
    all_borders,
    anti_power_at_position,
    ap_min,
    compute_n,
    extract_power_witness,
    find_anti_power_factor,
    find_anti_power_in_word,
    is_k_anti_power,
    is_k_power,
    lower_bound_witness,
    max_avoiding_extension,
    naive_has_k_anti_power_factor,
    naive_has_k_power_factor,
    naive_is_k_anti_power,
    naive_is_k_power,
    root_power_from_border,
    verify_witness,
)
from antipower.detect import ends_in_anti_power, ends_in_power
from antipower.ramsey import extension_dfs

TM_SHORTEST_ANTI_POWER_PREFIX = {
    3: 15, 4: 20, 5: 25, 6: 30, 7: 77, 8: 88, 9: 99, 10: 110, 11: 121, 12: 132,
    13: 143, 14: 154, 15: 195, 16: 208, 17: 221, 18: 234, 19: 247, 20: 260,
    30: 870, 50: 2450, 100: 9700,
}

EXACT_N_VALUES = [(2, 2, 2), (3, 2, 3), (2, 3, 4), (3, 3, 9), (4, 3, 12)]


def criterion(num, description, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - started
                if budget_s is not None:
                    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
            except BaseException:
                print(f"[criterion {num:2d}] FAIL {description}")
                raise
            print(f"[criterion {num:2d}] PASS {description} ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, "shortest k-anti-power prefixes of Thue-Morse: 21 exact lengths", budget_s=10)
def test_criterion_01_shortest_prefix_lengths():
    tm = ThueMorseWord()
    for k, length in TM_SHORTEST_ANTI_POWER_PREFIX.items():
        m = ap_min(tm, k, 400)
        assert m is not None and k * m == length, f"k={k}: got m={m}, want length {length}"


@criterion(2, "exact N(2,2), N(3,2), N(2,3), N(3,3), N(4,3) with full enumeration cross-check", budget_s=60)
def test_criterion_02_exact_values():
    for l, k, n in EXACT_N_VALUES:
        out = compute_n(SearchParams(l=l, k=k))
        assert out.status == "exact" and out.value == n, f"N({l},{k})={out.value}, want {n}"

        def contains_either(bits):
            w = Word(bytes(bits), 2)
            return naive_has_k_power_factor(w, l) or naive_has_k_anti_power_factor(w, k)

        assert any(not contains_either(bits) for bits in product((0, 1), repeat=n - 1))
        assert all(contains_either(bits) for bits in product((0, 1), repeat=n))


@criterion(3, "length-17 binary avoiders certify N(3,4) > 16 and N(4,4) > 16", budget_s=60)
def test_criterion_03_strict_inequalities():
    for l in (3, 4):
        out = compute_n(SearchParams(l=l, k=4, length_cap=17))
        assert out.status == "lower-bound", f"(l={l}, k=4) exhausted below 17"
        w = out.max_avoiding_word
        assert len(w) >= 17
        assert not naive_has_k_power_factor(w, l)
        assert not naive_has_k_anti_power_factor(w, 4)


@criterion(4, "explicit witness (0^(k-1)1)^(k-2) 0^(k-2) 1 0^(k-1) avoids both, k = 3..12")
def test_criterion_04_lower_bound_witness():
    for k in range(3, 13):
        w = lower_bound_witness(k)
        n = len(w)
        assert n == k * k - 2
        # detector route: every factor, fast predicates; anti-powers also via the scanner
        for b in range(1, n // k + 1):
            span = k * b
            for start in range(n - span + 1):
                factor = w[start : start + span]
                assert not is_k_power(factor, k)
                assert not is_k_anti_power(factor, k)
        assert find_anti_power_in_word(w, k) is None
        # independent naive-oracle confirmation
        assert not naive_has_k_power_factor(w, k)
        assert not naive_has_k_anti_power_factor(w, k)


@criterion(5, "avoidance scans: sparse avoider has no 4-anti-power to 20000, recurrent none of order 6 to 15625", budget_s=300)
def test_criterion_05_avoidance_constructions():
    assert find_anti_power_factor(SparseAvoiderWord(), 4, 20000) is None
    assert find_anti_power_factor(RecurrentAvoiderWord(), 6, 15625) is None


@criterion(6, "anti-powers of order <= 8 start at every position <= 64 of Thue-Morse and Fibonacci", budget_s=120)
def test_criterion_06_every_position():
    for x in (ThueMorseWord(), FibonacciWord()):
        for k in range(2, 9):
            for pos in range(1, 65):
                ell = anti_power_at_position(x, k, pos, 2000)
                assert ell is not None and ell <= 2000, f"{x.name}: k={k} pos={pos}"


@criterion(7, "dichotomy on 1000 random periodic words (k=3, l=3): one branch, fully re-verified")
def test_criterion_07_dichotomy():
    rng = random.Random(2024)
    witnesses = 0
    reports = 0
    for _ in range(1000):
        seed_len = rng.randrange(1, 33)
        seed = Word(bytes(rng.randrange(2) for _ in range(seed_len)), 2)
        x = PeriodicWord(seed)
        res = extract_power_witness(x, 3, 3, budget=400)
        if isinstance(res, WitnessEvidence):
            witnesses += 1
            assert 1 <= len(res.u) <= 6
            verify_witness(x, res)  # block equalities symbol-by-symbol
            pos0 = res.occurrence_position - 1
            window = x.prefix(pos0 + 3 * len(res.u)).symbols
            assert window[pos0:] == res.u.symbols * 3
        else:
            reports += 1
            assert res.total_found > 0
            for m in res.anti_power_lengths[:3]:
                assert naive_is_k_anti_power(x.prefix(3 * m), 3)
    assert witnesses + reports == 1000


@criterion(8, "border-root guarantee u^l-is-a-prefix, exhaustive over 16383 binary words of length <= 14")
def test_criterion_08_border_oracle():
    # first letter fixed to 0: borders are invariant under the 0<->1 swap,
    # so these 2^14 - 1 words cover every binary word of length <= 14
    total = 0
    for n in range(1, 15):
        for bits in product((0, 1), repeat=n - 1):
            w = Word(bytes((0,) + bits), 2)
            total += 1
            for border_len in all_borders(w):
                u_len = n - border_len
                for l in range(1, n // u_len + 1):
                    u = root_power_from_border(w, border_len, l)
                    assert isinstance(u, Word)
                    assert w.symbols[: l * u_len] == u.symbols * l
    assert total == 16383


@criterion(9, "forced extensions die: abc (ternary) and 10^n1 / 01^n0 seeds, k=3")
def test_criterion_09_forced_extensions():
    out = max_avoiding_extension(Word.from_text("abc"), 3, 3, 10)
    assert out.status == "exhausted" and out.depth == 0
    for n in range(2, 11):
        cap = 3 * n + 12
        for seed_text in ("1" + "0" * n + "1", "0" + "1" * n + "0"):
            out = max_avoiding_extension(Word.from_text(seed_text), 3, 2, cap)
            assert out.status == "exhausted", f"seed {seed_text} still open at depth {cap}"


@criterion(10, "detector / naive-oracle agreement on all binary words of length <= 16, all divisor orders")
def test_criterion_10_detector_equivalence():
    for n in range(1, 17):
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for bits in product((0, 1), repeat=n):
            w = Word(bytes(bits), 2)
            for k in divisors:
                assert is_k_power(w, k) == naive_is_k_power(w, k)
                assert is_k_anti_power(w, k) == naive_is_k_anti_power(w, k)


@criterion(11, "N(5,4) = 26 and N(3,5) = 41: the chunk engine and one stack DFS over the whole tree agree", budget_s=60)
def test_criterion_11_pinned_n_values_agree_across_engines():
    for l, k, n in [(5, 4, 26), (3, 5, 41)]:
        out = compute_n(SearchParams(l=l, k=k))
        dies = lambda t: ends_in_power(t, l) or ends_in_anti_power(t, k)  # noqa: E731
        deepest, nodes, hits = extension_dfs(b"", 0, 2, 64, dies)
        assert not hits and len(deepest) + 1 == n
        assert (out.status, out.value) == ("exact", n), f"N({l},{k})={out.value}, want {n}"
        assert (out.max_avoiding_word.symbols, out.nodes_explored) == (deepest, nodes)
        assert not naive_has_k_power_factor(out.max_avoiding_word, l)
        assert not naive_has_k_anti_power_factor(out.max_avoiding_word, k)
