"""Exhaustive search for the least length forcing an l-power or a k-anti-power.

N(l, k) is the least N such that every word of length N (over the given
alphabet) contains an l-power or a k-anti-power as a factor.  The search is
a depth-first extension of words one letter at a time; a branch dies as
soon as some suffix ending at the newest letter is an l-power or a
k-anti-power, and letter-renaming symmetry is quotiented away by requiring
first occurrences of distinct letters in increasing order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

from .detect import (
    ends_in_anti_power,
    ends_in_power,
    naive_has_k_anti_power_factor,
    naive_has_k_power_factor,
)
from .words import Word

EXACT = "exact"
LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class SearchParams:
    l: int
    k: int
    alphabet_size: int = 2
    length_cap: int = 64
    parallel_depth: int = 0  # 0 = sequential; otherwise fan out below this depth
    workers: int = 2

    def __post_init__(self) -> None:
        if self.l < 2 or self.k < 2:
            raise ValueError("need l >= 2 and k >= 2")
        if not 2 <= self.alphabet_size <= 256:
            raise ValueError("alphabet_size must be in 2..256")
        if self.length_cap < 1:
            raise ValueError("length_cap must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Either the exact N (tree exhausted) or a certified strict lower bound.

    max_avoiding_word is a longest word found avoiding both patterns,
    lexicographically least among those; with status "exact" its length is
    N - 1, with status "lower-bound" it certifies N(l, k) > value.
    """

    params: SearchParams
    status: str
    value: int
    max_avoiding_word: Word
    nodes_explored: int

    def to_json(self) -> dict:
        return {
            "l": self.params.l,
            "k": self.params.k,
            "alphabet_size": self.params.alphabet_size,
            "status": self.status,
            "N_or_bound": self.value,
            "witness": self.max_avoiding_word.to_json_value(),
            "nodes_explored": self.nodes_explored,
        }


def _search_subtree(root: bytes, used: int, l: int, k: int, a: int, cap: int):
    """Exhaust the subtree under ``root`` (already known to avoid both).

    Returns (deepest_len, deepest_word, nodes, cap_word) where cap_word is
    the first word that reached ``cap``, or None; when cap_word is not None
    the subtree was abandoned at that point.
    """
    nodes = 0
    deepest = root
    cap_word = None

    def go(s: bytes, used: int) -> bool:
        nonlocal nodes, deepest, cap_word
        if len(s) > len(deepest):
            deepest = s
        if len(s) == cap:
            cap_word = s
            return True
        for c in range(min(used + 1, a)):
            t = s + bytes((c,))
            nodes += 1
            if ends_in_power(t, l) or ends_in_anti_power(t, k):
                continue
            if go(t, used + (1 if c == used else 0)):
                return True
        return False

    go(root, used)
    return len(deepest), deepest, nodes, cap_word


def _worker(args) -> tuple:
    return _search_subtree(*args)


def _frontier(depth: int, l: int, k: int, a: int):
    """All canonical avoiding words of exactly ``depth`` letters, in lex order.

    Also returns the deepest dead-end word shorter than ``depth`` and the
    node count spent building the frontier.
    """
    nodes = 0
    deepest = b""
    roots: list[tuple[bytes, int]] = []

    def go(s: bytes, used: int) -> None:
        nonlocal nodes, deepest
        if len(s) > len(deepest):
            deepest = s
        if len(s) == depth:
            roots.append((s, used))
            return
        for c in range(min(used + 1, a)):
            t = s + bytes((c,))
            nodes += 1
            if ends_in_power(t, l) or ends_in_anti_power(t, k):
                continue
            go(t, used + (1 if c == used else 0))

    go(b"", 0)
    return roots, deepest, nodes


def compute_n(params: SearchParams) -> SearchOutcome:
    """Run the search; Exact(N) when exhausted below the cap, else a lower bound."""
    l, k, a, cap = params.l, params.k, params.alphabet_size, params.length_cap
    if params.parallel_depth > 0 and params.parallel_depth < cap:
        roots, deepest, nodes = _frontier(params.parallel_depth, l, k, a)
        cap_word = None
        if roots:
            jobs = [(root, used, l, k, a, cap) for root, used in roots]
            with ProcessPoolExecutor(max_workers=max(1, params.workers)) as pool:
                for dlen, dword, dnodes, cword in pool.map(_worker, jobs):
                    nodes += dnodes
                    if dlen > len(deepest) or (dlen == len(deepest) and dword < deepest):
                        deepest = dword
                    if cword is not None and (cap_word is None or cword < cap_word):
                        cap_word = cword
        if cap_word is not None:
            deepest = cap_word  # lex-least cap word, matching the sequential result
    else:
        _, deepest, nodes, cap_word = _search_subtree(b"", 0, l, k, a, cap)

    witness = Word(deepest, a)
    if naive_has_k_power_factor(witness, l) or naive_has_k_anti_power_factor(witness, k):
        raise AssertionError("search produced a witness rejected by the naive oracle")
    if cap_word is not None:
        return SearchOutcome(params, LOWER_BOUND, len(deepest), witness, nodes)
    return SearchOutcome(params, EXACT, len(deepest) + 1, witness, nodes)


def lower_bound_witness(k: int) -> Word:
    """The explicit word (0^(k-1) 1)^(k-2) 0^(k-2) 1 0^(k-1) of length k*k - 2.

    For k >= 3 it avoids both k-powers and k-anti-powers, certifying
    N(k, k) >= k*k - 1.
    """
    if k < 3:
        raise ValueError("the construction needs k >= 3")
    zeros = b"\x00"
    one = b"\x01"
    symbols = (zeros * (k - 1) + one) * (k - 2) + zeros * (k - 2) + one + zeros * (k - 1)
    word = Word(symbols, 2)
    if len(word) != k * k - 2:
        raise AssertionError("witness length mismatch")
    return word


def theoretical_upper_bound(k: int) -> int:
    """k**3 * C(k, 2), the proof's upper bound for N(k, k)."""
    if k < 2:
        raise ValueError("need k >= 2")
    return k**3 * comb(k, 2)
