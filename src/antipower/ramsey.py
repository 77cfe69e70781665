"""Exhaustive search for the least length forcing an l-power or a k-anti-power.

N(l, k) is the least N such that every word of length N (over the given
alphabet) contains an l-power or a k-anti-power as a factor.  The search is
a depth-first extension of words one letter at a time; a branch dies as
soon as some suffix ending at the newest letter is an l-power or a
k-anti-power, and letter-renaming symmetry is quotiented away by requiring
first occurrences of distinct letters in increasing order.

compute_n has one path: the live words of length 3 (cap - 1 for lower caps)
root subtrees searched in lex order up to the first that reaches the cap,
in this process or on ``workers`` processes with the same outcome.  Two
engines share the work and give the same outcome, node count included.
extension_dfs, an explicit-stack DFS over one word at a time, builds the
frontier and runs scan's max_avoiding_extension.  chunk_dfs searches each
root's subtree depth-first over chunks of words held as numpy matrices.
A chunk holds at most _CHUNK_CELLS letters (16 KB), plus per word its
power runs (up to cap // l of them, in the least unsigned type that holds
cap) and 16 bytes of counts; the stack holds at most alphabet_size chunks
per word length.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from math import comb
from multiprocessing import Pool

import numpy as np

from .detect import ends_in_anti_power, ends_in_power, naive_has_k_power_factor
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

    It builds compute_n's frontier and runs max_avoiding_extension; the
    frontier's subtrees run on chunk_dfs, which returns what this search
    returns under the N(l, k) pruning rule.
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


# rows x word length of a chunk: wide enough to amortize numpy's per-call
# cost, narrow enough that a deep, thin tree is not searched as a beam
_CHUNK_CELLS = 16384


def _ends_in_anti_power_rows(words: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """ends_in_anti_power for each row of ``words``, comparing blocks exactly.

    The k blocks of each length b are compared through packed keys of b
    letters of ceil(log2 alphabet_size) bits each, or pairwise when those do
    not fit in 64 bits.  Lengths with alphabet_size**b < k are skipped: k
    pairwise distinct blocks cannot fit there.
    """
    rows, m = words.shape
    hit = np.zeros(rows, dtype=bool)
    bits = (alphabet_size - 1).bit_length()
    for b in range(1, m // k + 1):
        if alphabet_size**b < k:
            continue
        blocks = words[:, m - k * b :].reshape(rows, k, b)
        if b * bits <= 64:
            key_type = np.min_scalar_type((1 << b * bits) - 1)
            keys = blocks @ (key_type.type(1) << np.arange(0, b * bits, bits, dtype=key_type))
            keys.sort(axis=1)
            hit |= (keys[:, 1:] != keys[:, :-1]).all(axis=1)
        else:
            distinct = np.ones(rows, dtype=bool)
            for i in range(k):
                for j in range(i + 1, k):
                    distinct &= (blocks[:, i] != blocks[:, j]).any(axis=1)
            hit |= distinct
    return hit


def chunk_dfs(root: bytes, used: int, l: int, k: int, alphabet_size: int, limit: int):
    """extension_dfs under the N(l, k) pruning rule, run on chunks of words.

    A chunk holds live words of one length in lex order: a uint8 matrix of
    rows, each row's count of used letters, its parent's row in the chunk
    popped before it one length shorter, and its power runs: for each shift
    b, how many trailing letters equal the letter b before them.  A suffix
    of b * l letters is an l-power exactly when the run at shift b reaches
    (l - 1) * b, and a child's runs are its parent's plus one where its new
    letter equals the letter b back, else 0.

    Popping a chunk builds all its children in (parent, letter) order under
    the first-occurrence rule, drops those with an l-power or k-anti-power
    suffix, and pushes the rest back as chunks of at most _CHUNK_CELLS
    letters, leftmost on top.  Chunks are contiguous lex ranges popped in
    preorder, so the first live word of ``limit`` letters is the lex-least
    one, and the first row of the longest length reached is extension_dfs's
    ``deepest``.

    Returns extension_dfs's (deepest, nodes, hits) without ``collect``.
    ``nodes`` is what extension_dfs counts: every child built, or, once a
    word reaches the limit, the children built up to and including that
    word's ancestor at each length, found through the parent rows.
    """
    if len(root) >= limit:
        return root, 0, [(root, used)]
    a = alphabet_size
    shifts = limit // l  # no word is tested for an l-power of longer blocks
    runs = [[_run(root, b) for b in range(1, min(len(root), shifts) + 1)]]
    stack = [
        (
            np.frombuffer(root, dtype=np.uint8).reshape(1, -1),
            np.array(runs, dtype=np.min_scalar_type(limit)),
            np.array([used]),
            np.zeros(1, dtype=np.intp),
        )
    ]
    deepest, nodes = root, 0
    popped = {}  # word length -> (used, parents) of the last chunk popped at that length
    while stack:
        words, runs, now_used, parents = stack.pop()
        rows, n = words.shape
        popped[n] = now_used, parents
        kid_parent = np.repeat(np.arange(rows), a)
        letter = np.tile(np.arange(a, dtype=np.uint8), rows)
        first = letter <= now_used[kid_parent]  # a new letter only as the next of the used ones
        kid_parent, letter = kid_parent[first], letter[first]
        nodes += len(letter)
        m = n + 1
        kids = np.empty((len(letter), m), dtype=np.uint8)
        kids[:, :n] = words[kid_parent]
        kids[:, n] = letter
        width = runs.shape[1]
        kid_runs = np.zeros((len(kids), min(m, shifts)), dtype=runs.dtype)
        kid_runs[:, :width] = np.where(kids[:, n - width : n][:, ::-1] == kids[:, n:], runs[kid_parent] + 1, 0)
        dead = (kid_runs[:, : m // l] >= (l - 1) * np.arange(1, m // l + 1)).any(axis=1)
        live = np.flatnonzero(~(dead | _ends_in_anti_power_rows(kids, k, a)))
        if not len(live):
            continue
        kid_used = now_used[kid_parent] + (letter == now_used[kid_parent])
        if m > len(deepest):
            deepest = kids[live[0]].tobytes()
        if m == limit:
            skipped = _built_after(deepest, int(kid_parent[live[0]]), popped, a)
            return deepest, nodes - skipped, [(deepest, int(kid_used[live[0]]))]
        # each chunk owns its rows, so popping it frees them
        step = max(1, _CHUNK_CELLS // m)
        for start in reversed(range(0, len(live), step)):
            part = live[start : start + step]
            stack.append((kids[part], kid_runs[part], kid_used[part], kid_parent[part]))
    return deepest, nodes, []


def _run(s: bytes, b: int) -> int:
    """How many trailing letters of s equal the letter b before them."""
    run = 0
    while run < len(s) - b and s[-1 - run] == s[-1 - run - b]:
        run += 1
    return run


def _built_after(word: bytes, row: int, popped: dict, alphabet_size: int) -> int:
    """The children chunk_dfs built after ``word``'s ancestor at each length.

    ``popped[n]`` is the (used, parents) of the last chunk popped with words
    of n letters, the one holding ``word[:n]``; ``row`` is that word's row
    for the longest n.  extension_dfs stops at ``word`` before building
    any of these children.
    """
    skipped = 0
    for n in sorted(popped, reverse=True):
        used, parents = popped[n]
        counts = np.minimum(used + 1, alphabet_size)
        skipped += int(counts[row + 1 :].sum()) + int(counts[row]) - (word[n] + 1)
        row = int(parents[row])
    return skipped


def _search_root(job: tuple) -> tuple:
    """One root's subtree under the N(l, k) pruning rule, picklable for worker processes."""
    return chunk_dfs(*job)


def compute_n(params: SearchParams) -> SearchOutcome:
    """Run the search; Exact(N) when exhausted below the cap, else a lower bound."""
    l, k, a, cap = params.l, params.k, params.alphabet_size, params.length_cap
    # every live word of the frontier roots one job, in lex order
    deepest, nodes, roots = extension_dfs(
        b"", 0, a, min(3, cap - 1), lambda t: ends_in_power(t, l) or ends_in_anti_power(t, k), collect=True
    )
    jobs = [(root, used, l, k, a, cap) for root, used in roots]
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

    from .scan import find_anti_power_in_word  # scan imports this module

    # a second method, independent of the search's suffix checks and packed keys
    witness = Word(deepest, a)
    if naive_has_k_power_factor(witness, l) or find_anti_power_in_word(witness, k) is not None:
        raise AssertionError("search produced a witness rejected by an independent check")
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
