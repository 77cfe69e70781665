"""Exhaustive search for the least length forcing an l-power or a k-anti-power.

N(l, k) is the least N such that every word of length N (over the given
alphabet) contains an l-power or a k-anti-power as a factor.  The search is
a depth-first extension of words one letter at a time; a branch dies as
soon as some suffix ending at the newest letter is an l-power or a
k-anti-power, and letter-renaming symmetry is quotiented away by requiring
first occurrences of distinct letters in increasing order.

compute_n has one path: the live words of length 3 (cap - 1 for lower caps)
root subtrees searched in lex order up to the first that reaches the cap,
in this process or on ``workers`` processes with the same outcome; the one
engine is extension_dfs, an explicit-stack DFS (scan uses it too).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from math import comb
from multiprocessing import Pool

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
    workers: int = 1  # processes that search the frontier's subtrees

    def __post_init__(self) -> None:
        if self.l < 2 or self.k < 2:
            raise ValueError("need l >= 2 and k >= 2")
        if not 2 <= self.alphabet_size <= 256:
            raise ValueError("alphabet_size must be in 2..256")
        if self.length_cap < 1:
            raise ValueError("length_cap must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Either the exact N (tree exhausted) or a certified strict lower bound.

    max_avoiding_word is a longest word found avoiding both patterns,
    lexicographically least among those; with status "exact" its length is
    N - 1, with status "lower-bound" it certifies N(l, k) > value.

    nodes_explored counts every one-letter extension tried up to the
    frontier, plus the tries in each root's subtree up to and including the
    first root that reaches the cap (all of them when none does).
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


def extension_dfs(root: bytes, used: int, alphabet_size: int, limit: int, dead, collect: bool = False):
    """Depth-first search over the right-extensions of ``root`` that ``dead`` spares.

    ``root`` is taken as live.  Letters are tried in increasing order, a new
    letter only as the next of the ``used`` ones, so first occurrences come
    in increasing order; ``used = alphabet_size`` turns this off.  The stack
    holds (word, remaining letters) pairs, so ``limit`` is not bounded by
    Python's recursion limit; a live word of ``limit`` letters is a leaf.

    Returns (deepest, nodes, hits): the first longest live word, the number
    of one-letter extensions tried, and the live (word, used) pairs of
    ``limit`` letters in lex order, only the first unless ``collect``, in
    which case the search goes on past each of them.
    """
    if len(root) >= limit:
        return root, 0, [(root, used)]
    children = {
        u: [(bytes((c,)), u + (c == u)) for c in range(min(u + 1, alphabet_size))]
        for u in range(used, alphabet_size + 1)
    }
    deepest, nodes, hits = root, 0, []
    stack = [(root, iter(children[used]))]
    while stack:
        s, pending = stack[-1]
        for letter, now_used in pending:
            t = s + letter
            nodes += 1
            if dead(t):
                continue
            if len(t) > len(deepest):
                deepest = t
            if len(t) < limit:
                stack.append((t, iter(children[now_used])))
                break
            hits.append((t, now_used))
            if not collect:
                return deepest, nodes, hits
        else:
            stack.pop()
    return deepest, nodes, hits


def _search_root(job: tuple) -> tuple:
    """extension_dfs under the N(l, k) pruning rule, picklable for worker processes."""
    root, used, l, k, alphabet_size, limit, collect = job
    return extension_dfs(
        root, used, alphabet_size, limit, lambda t: ends_in_power(t, l) or ends_in_anti_power(t, k), collect
    )


def compute_n(params: SearchParams) -> SearchOutcome:
    """Run the search; Exact(N) when exhausted below the cap, else a lower bound."""
    l, k, a, cap = params.l, params.k, params.alphabet_size, params.length_cap
    # every live word of the frontier roots one job, in lex order
    deepest, nodes, roots = _search_root((b"", 0, l, k, a, min(3, cap - 1), True))
    jobs = [(root, used, l, k, a, cap, False) for root, used in roots]
    processes = min(params.workers, len(jobs))
    hits = []
    # leaving the block terminates a pool's workers, running roots included
    with ExitStack() as stack:
        run = stack.enter_context(Pool(processes)).imap if processes > 1 else map
        for dword, dnodes, hits in run(_search_root, jobs):
            nodes += dnodes
            if len(dword) > len(deepest):
                deepest = dword
            if hits:  # the first root to reach the cap holds the lex-least cap word
                break

    witness = Word(deepest, a)
    if naive_has_k_power_factor(witness, l) or naive_has_k_anti_power_factor(witness, k):
        raise AssertionError("search produced a witness rejected by the naive oracle")
    if hits:
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
