"""Exhaustive N(l,k) computation, bounds, and the explicit lower-bound word."""

import time
from itertools import product

import numpy as np
import pytest

from antipower import ramsey
from antipower.detect import ends_in_anti_power, ends_in_power
from antipower import (
    SearchParams,
    Word,
    compute_n,
    lower_bound_witness,
    naive_has_k_anti_power_factor,
    naive_has_k_power_factor,
    naive_is_k_anti_power,
    naive_is_k_power,
    theoretical_upper_bound,
)


def word_contains_either(bits, l, k):
    w = Word(bytes(bits), 2)
    return naive_has_k_power_factor(w, l) or naive_has_k_anti_power_factor(w, k)


@pytest.mark.parametrize("l,k,n", [(2, 2, 2), (3, 2, 3), (2, 3, 4), (3, 3, 9), (4, 3, 12)])
def test_exact_binary_values(l, k, n):
    out = compute_n(SearchParams(l=l, k=k))
    assert out.status == "exact"
    assert out.value == n
    assert len(out.max_avoiding_word) == n - 1


def test_exact_values_cross_checked_by_enumeration():
    # some word of length N-1 avoids both; every word of length N contains one
    for l, k, n in [(2, 2, 2), (3, 2, 3), (2, 3, 4), (3, 3, 9)]:
        assert any(not word_contains_either(bits, l, k) for bits in product((0, 1), repeat=n - 1))
        assert all(word_contains_either(bits, l, k) for bits in product((0, 1), repeat=n))


def level_by_level_n(l, k, alphabet_size=2):
    """N(l, k) and the lex-least word of length N - 1 avoiding both, over all words.

    Shares no code with the search engine: no symmetry breaking, no stack,
    and a word dies when any suffix is an l-power or a k-anti-power by the
    naive oracles.  Live words are kept one length at a time, in lex order.
    """

    def dies(s):
        n = len(s)
        tail = lambda m: Word(s[n - m :], alphabet_size)  # noqa: E731
        return any(naive_is_k_power(tail(l * b), l) for b in range(1, n // l + 1)) or any(
            naive_is_k_anti_power(tail(k * b), k) for b in range(1, n // k + 1)
        )

    level = [b""]
    while True:
        longer = [s + bytes((c,)) for s in level for c in range(alphabet_size)]
        longer = [s for s in longer if not dies(s)]
        if not longer:
            return len(level[0]) + 1, level[0]
        level = longer


@pytest.mark.parametrize("l,k,n", [(5, 3, 12), (3, 4, 19), (4, 4, 24)])
def test_search_agrees_with_level_by_level_enumeration(l, k, n):
    out = compute_n(SearchParams(l=l, k=k))
    assert (out.status, out.value, out.max_avoiding_word.symbols) == ("exact", *level_by_level_n(l, k))
    assert out.value == n


def test_cap_limited_searches_certify_strict_bounds():
    for l in (3, 4):
        out = compute_n(SearchParams(l=l, k=4, length_cap=17))
        assert out.status == "lower-bound"
        assert out.value == 17  # so N(l,4) > 17 > 16
        w = out.max_avoiding_word
        assert len(w) == 17
        assert not naive_has_k_power_factor(w, l)
        assert not naive_has_k_anti_power_factor(w, 4)


def test_witness_is_lexicographically_least():
    out = compute_n(SearchParams(l=3, k=3))
    best = min(
        bytes(bits)
        for bits in product((0, 1), repeat=out.value - 1)
        if not word_contains_either(bits, 3, 3)
    )
    assert out.max_avoiding_word.symbols == best


def dies(l, k):
    return lambda t: ends_in_power(t, l) or ends_in_anti_power(t, k)


def extension_dfs_nodes(l, k, a, cap):
    """Nodes of one undivided search from the empty word, stopping at the first cap word."""
    return ramsey.extension_dfs(b"", 0, a, cap, dies(l, k))[1]


def stack_dfs_outcome(l, k, a, cap):
    """compute_n's JSON outcome with every subtree searched by the stack DFS.

    The frontier of compute_n, then ramsey.extension_dfs on each root's
    subtree in lex order, stopping at the first root that reaches the cap.
    """
    deepest, nodes, roots = ramsey.extension_dfs(b"", 0, a, min(3, cap - 1), dies(l, k), collect=True)
    hits = []
    for root, used in roots:
        word, more, hits = ramsey.extension_dfs(root, used, a, cap, dies(l, k))
        nodes += more
        if len(word) > len(deepest):
            deepest = word
        if hits:
            break
    return {
        "l": l,
        "k": k,
        "alphabet_size": a,
        "status": "lower-bound" if hits else "exact",
        "N_or_bound": len(deepest) if hits else len(deepest) + 1,
        "witness": Word(deepest, a).to_json_value(),
        "nodes_explored": nodes,
    }


NSEARCH_ROWS = [(l, k, 2, 64) for l in (3, 4, 5) for k in (3, 4)]
NSEARCH_ROWS += [(3, 5, 2, 64), (3, 4, 3, 64), (4, 4, 3, 64), (2, 6, 3, 64), (5, 5, 2, 48), (3, 6, 2, 50)]
SMALL_CAPS = [(l, k, a, cap) for cap in (1, 2, 3, 4, 5) for l, k, a in ((3, 3, 2), (2, 2, 2), (2, 30, 3), (3, 5, 2), (5, 5, 2))]


@pytest.mark.parametrize("l,k,a,cap", NSEARCH_ROWS + SMALL_CAPS + [(2, 30, 3, 20), (2, 40, 3, 1100)])
def test_chunk_engine_matches_the_stack_dfs(l, k, a, cap):
    # value, witness and node count, on exact and capped rows alike
    assert compute_n(SearchParams(l=l, k=k, alphabet_size=a, length_cap=cap)).to_json() == stack_dfs_outcome(l, k, a, cap)


@pytest.mark.parametrize("a,k,length", [(2, 2, 200), (2, 3, 60), (3, 4, 80), (4, 5, 60), (256, 2, 40)])
def test_row_anti_power_check_matches_the_suffix_check(a, k, length):
    # long blocks (b * ceil(log2 a) > 64) take the pairwise path, short ones packed keys
    rng = np.random.default_rng(a * 100 + k)
    words = rng.integers(0, a, (300, length), dtype=np.uint8)
    words[::3, length // 2 :] = words[::3, : length - length // 2]  # rows whose halves repeat
    # one 1, then zeros: for k = 2 only the whole word can be an anti-power, so long blocks decide
    words[1::3] = 0
    words[1::3, 0] = 1
    seen = set()
    for m in range(1, length + 1):
        got = ramsey._ends_in_anti_power_rows(np.ascontiguousarray(words[:, :m]), k, a).tolist()
        assert got == [ends_in_anti_power(w.tobytes(), k) for w in words[:, :m]], m
        seen.update(got)
    assert seen == {False, True}


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_chunk_boundaries_do_not_change_the_outcome(monkeypatch, cells):
    # narrow chunks split every generation, so the capped count crosses chunk edges
    monkeypatch.setattr(ramsey, "_CHUNK_CELLS", cells)
    for l, k, a, cap in [(3, 4, 2, 64), (4, 4, 2, 30), (3, 5, 2, 30), (2, 6, 3, 25), (2, 30, 3, 40)]:
        for root, used in ramsey.extension_dfs(b"", 0, a, 3, dies(l, k), collect=True)[2]:
            want = ramsey.extension_dfs(root, used, a, cap, dies(l, k))
            assert ramsey.chunk_dfs(root, used, l, k, a, cap) == want, (l, k, a, cap, root)


def test_parallel_matches_sequential():
    # workers only choose where the frontier's roots run: the outcome, node
    # count included, is the same on exact rows, capped rows and caps at or
    # below the frontier depth
    rows = [(4, 3, 2, 64), (3, 3, 2, 64), (3, 4, 3, 64), (3, 4, 2, 14), (3, 5, 2, 30), (2, 30, 3, 20)]
    rows += [(l, k, a, cap) for cap in (1, 2, 3, 4) for l, k, a in ((3, 3, 2), (2, 2, 2), (2, 30, 3))]
    for l, k, a, cap in rows:
        seq = compute_n(SearchParams(l=l, k=k, alphabet_size=a, length_cap=cap, workers=1))
        par = compute_n(SearchParams(l=l, k=k, alphabet_size=a, length_cap=cap, workers=2))
        assert par.to_json() == seq.to_json(), (l, k, a, cap)
    # an exhausted tree is counted whole
    assert compute_n(SearchParams(l=4, k=3)).nodes_explored == extension_dfs_nodes(4, 3, 2, 64)
    # a capped run counts the whole frontier, then stops at the first root
    # that reaches the cap: N(3,4) at cap 14 tries 24 extensions, 3 past the
    # 21 that a search stopping at the first cap word would try
    capped = compute_n(SearchParams(l=3, k=4, length_cap=14))
    assert (capped.status, capped.value, capped.nodes_explored) == ("lower-bound", 14, 24)
    assert extension_dfs_nodes(3, 4, 2, 14) == 21
    # caps at or below the frontier depth search from a frontier one letter short of the cap
    assert [compute_n(SearchParams(l=3, k=3, length_cap=cap)).nodes_explored for cap in (1, 2, 3, 4)] == [1, 2, 5, 8]


def test_capped_parallel_search_does_not_wait_for_running_roots():
    # the first root reaches the cap within milliseconds while the second
    # root's subtree takes seconds; leaving the pool must stop that worker
    started = time.perf_counter()
    out = compute_n(SearchParams(l=5, k=5, length_cap=48, workers=2))
    elapsed = time.perf_counter() - started
    assert (out.status, out.value, out.nodes_explored) == ("lower-bound", 48, 1936)
    assert out.max_avoiding_word.to_text() == "000010000100010000100001000100010000100001000100"
    assert elapsed < 2.0, elapsed
    assert compute_n(SearchParams(l=5, k=5, length_cap=48, workers=1)).to_json() == out.to_json()


@pytest.mark.parametrize("workers", [1, 2])
def test_caps_deeper_than_the_recursion_limit(workers):
    # square-free ternary words of any length exist and k=40 is far off, so
    # the search runs straight down to the cap
    out = compute_n(SearchParams(l=2, k=40, alphabet_size=3, length_cap=1100, workers=workers))
    assert out.status == "lower-bound" and out.value == 1100
    assert len(out.max_avoiding_word) == 1100


def test_ternary_alphabet_square_free_case():
    # squares are avoidable over three letters, so with a huge anti-power
    # order the search must hit any cap we set
    out = compute_n(SearchParams(l=2, k=30, alphabet_size=3, length_cap=20))
    assert out.status == "lower-bound" and out.value == 20


def test_lower_bound_witness_expansions():
    assert lower_bound_witness(3).to_text() == "0010100"
    assert lower_bound_witness(4).to_text() == "00010001001000"
    assert len(lower_bound_witness(5)) == 23


def test_lower_bound_witness_avoids_both():
    for k in range(3, 10):
        w = lower_bound_witness(k)
        assert len(w) == k * k - 2
        assert not naive_has_k_power_factor(w, k)
        assert not naive_has_k_anti_power_factor(w, k)
    with pytest.raises(ValueError):
        lower_bound_witness(2)


def test_theoretical_upper_bound_values():
    assert theoretical_upper_bound(2) == 8
    assert theoretical_upper_bound(3) == 81
    assert theoretical_upper_bound(4) == 384


def test_sandwich_bounds_for_small_k():
    out3 = compute_n(SearchParams(l=3, k=3))
    assert 3 * 3 - 1 <= out3.value <= theoretical_upper_bound(3)
    out4 = compute_n(SearchParams(l=4, k=4, length_cap=17))
    lower = out4.value if out4.status == "exact" else out4.value + 1
    assert 4 * 4 - 1 <= lower <= theoretical_upper_bound(4)


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(l=1, k=2)
    with pytest.raises(ValueError):
        SearchParams(l=2, k=2, alphabet_size=1)
    with pytest.raises(ValueError):
        SearchParams(l=2, k=2, length_cap=0)
    with pytest.raises(ValueError):  # words store one byte per symbol: refuse before searching
        SearchParams(l=3, k=3, alphabet_size=300)


def test_worker_pool_is_bounded_by_the_frontier(monkeypatch):
    with pytest.raises(ValueError):
        SearchParams(l=3, k=3, workers=0)
    sizes = []

    class RecordingPool:  # runs the roots in this process and records the size asked for
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(ramsey, "Pool", RecordingPool)
    roots = ramsey.extension_dfs(b"", 0, 2, 3, dies(4, 3), collect=True)[2]
    seq = compute_n(SearchParams(l=4, k=3))
    assert sizes == []  # workers=1 runs the roots in this process
    par = compute_n(SearchParams(l=4, k=3, workers=10**6))
    assert sizes == [len(roots)] and 2 <= len(roots) <= 5
    assert par.to_json() == seq.to_json()
    # every binary word of length 2 holds a square or a 2-anti-power: no roots, no pool
    out = compute_n(SearchParams(l=2, k=2, workers=10**6))
    assert sizes == [len(roots)]
    assert (out.status, out.value) == ("exact", 2)


def test_outcome_serialization():
    out = compute_n(SearchParams(l=3, k=3))
    data = out.to_json()
    assert data == {
        "l": 3,
        "k": 3,
        "alphabet_size": 2,
        "status": "exact",
        "N_or_bound": 9,
        "witness": "00101001",
        "nodes_explored": data["nodes_explored"],
    }
    assert data["nodes_explored"] > 0
