"""Sliding scans for anti-power factors and the bounded extension search.

The extension search has no loop of its own: it runs on the explicit-stack
DFS engine ramsey.extension_dfs that also builds the N(l, k) search's
frontier.

The factor scan is exact and reads no hash (only the prefix it scans is
hashed, as ``words`` hashes every symbol it materializes).  It names every
factor of a power-of-two length p by its rank among those factors
(Karp-Miller-Rosenberg doubling), so a block of length p <= ell < 2p is
named by the pair (name at its start, name of its last p symbols), and two
blocks are equal exactly when their pairs are.  Per block length, one
comparison of names ell apart, one OR and k-2 strided ANDs leave the start
positions whose adjacent blocks all differ; sorting the k packed pair keys
of each survivor settles the other pairs.  This follows Badkobeh, Fici and
Puglisi, "Algorithms for anti-powers in strings" (2018): n/k block lengths
of O(k*n) vector work, plus O(n log n) to rank each of the log(n/k) levels.
It certifies the recurrent avoider (k=6) to 5^8 = 390 625 symbols in 17 s
(one core of a 2-vCPU VM, Python 3.11, numpy 2.4).

Memory, beside the word itself (tracemalloc, numpy 2.4): the names and
three position masks hold 11 bytes a symbol; ranking a level holds 49 more
while np.unique sorts, so a scan peaks at about 61 bytes a symbol.  The
survivor check gathers k keys a survivor at 32 bytes a key, in batches of
at most _GATHER_KEYS keys (512 KB); the avoiders leave at most a few
hundred survivors per block length, but a word of period 2*ell keeps
every start position of block length ell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import ends_in_anti_power, naive_is_k_anti_power
from .ramsey import extension_dfs
from .sets import _scan_lengths
from .words import InfiniteWord, Word

# keys gathered per batch of survivors in the factor scan (32 bytes each at the peak)
_GATHER_KEYS = 1 << 14


def find_anti_power_in_word(w: Word, k: int) -> tuple[int, int] | None:
    """First k-anti-power factor of w, as (1-based position, block length).

    Block lengths are tried ascending and, within a block length, start
    positions ascending: the (block_length, position) lexicographic order.
    """
    if k < 2:
        raise ValueError("order k must be >= 2")
    n = len(w)
    base = n + 256  # above every symbol and every rank, so a key packs two names
    # names[a] ranks the length-p factor at a among all length-p factors
    names = np.frombuffer(w.symbols, dtype=np.uint8).astype(np.int64)
    p = 1
    unequal = np.empty(n, dtype=bool)
    differs = np.empty(n, dtype=bool)
    ok = np.empty(n, dtype=bool)
    offsets = np.arange(k)
    batch = max(1, _GATHER_KEYS // k)
    for ell in range(1, n // k + 1):
        if ell == 2 * p:
            names = np.unique(names[:-p] * base + names[p:], return_inverse=True)[1]
            p = ell
        # as p <= ell < 2p, the block at a has the key (names[a], names[a+ell-p]), so the
        # blocks at a and a+ell differ iff the names ell apart differ at a or at a+ell-p
        e = unequal[: len(names) - ell]
        np.not_equal(names[:-ell], names[ell:], out=e)
        d = differs[: n - 2 * ell + 1]
        np.logical_or(e[: len(d)], e[ell - p : ell - p + len(d)], out=d)
        npos = n - k * ell + 1
        survivors = ok[:npos]
        survivors[:] = d[:npos]
        for i in range(1, k - 1):
            survivors &= d[i * ell : i * ell + npos]
        starts = np.flatnonzero(survivors)
        # the adjacent blocks of each survivor differ; sorting its k keys checks every
        # pair, for a batch of survivors at a time so that the gather stays bounded
        for lo in range(0, starts.size, batch):
            at = starts[lo : lo + batch, None] + ell * offsets
            rows = np.sort(names[at] * base + names[at + (ell - p)], axis=1)
            distinct = (rows[:, 1:] != rows[:, :-1]).all(axis=1)
            if distinct.any():
                hit = int(at[np.argmax(distinct), 0])
                if not naive_is_k_anti_power(w[hit : hit + k * ell], k):  # exactness guard
                    raise AssertionError("vectorized scan disagreed with the naive oracle")
                return hit + 1, ell
    return None


def find_anti_power_factor(x: InfiniteWord, k: int, max_prefix: int) -> tuple[int, int] | None:
    """First k-anti-power factor inside the length-``max_prefix`` prefix of x."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    if max_prefix < k:
        raise ValueError("max_prefix must be at least k")
    return find_anti_power_in_word(x.prefix(max_prefix), k)


def anti_power_at_position(x: InfiniteWord, k: int, pos: int, limit: int) -> int | None:
    """Least block length ell <= limit with x[pos .. pos+k*ell-1] a k-anti-power.

    Returns None when no such ell exists up to the limit; that is a normal
    outcome, never an error; omega-power-free words start an anti-power of
    every order at every position, but with no a-priori bound on ell.
    """
    if k < 2 or pos < 1 or limit < 1:
        raise ValueError("need k >= 2, pos >= 1, limit >= 1")
    start = pos - 1
    hits = _scan_lengths(x, k, start, 1, limit, lambda ph, k, ell: ph.distinct_blocks(start, ell, k))
    return next((ell for ell, ap in hits if ap), None)


@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of the right-extension search.

    status "exhausted": every extension branch died; depth is the deepest
    number of appended letters any surviving node reached (0 when the seed
    itself already ends in a k-anti-power, or admits no live extension).
    status "open": some branch survived to depth_cap appended letters.
    """

    status: str
    depth: int


def max_avoiding_extension(w: Word, k: int, alphabet_size: int, depth_cap: int) -> ExtensionOutcome:
    """DFS over right-extensions of w, pruning any that end in a k-anti-power.

    Only suffixes ending at the newest letter are checked (a k-anti-power
    factor of an extension either lies inside w (the caller's concern) or
    ends at an appended position); the seed's own last position is checked
    up front, so a seed that is itself a k-anti-power is exhausted(0).
    The search is ramsey.extension_dfs with no symmetry breaking, so
    depth_cap is not limited by Python's recursion limit; letters are tried
    in increasing order and a sibling only after its elder's subtree died.
    """
    if k < 2 or not 2 <= alphabet_size <= 256 or depth_cap < 0:
        raise ValueError("need k >= 2, 2 <= alphabet_size <= 256, depth_cap >= 0")
    if ends_in_anti_power(w.symbols, k):
        return ExtensionOutcome(status="exhausted", depth=0)
    deepest, _, hits = extension_dfs(
        w.symbols, alphabet_size, alphabet_size, len(w) + depth_cap, lambda t: ends_in_anti_power(t, k)
    )
    if hits:
        return ExtensionOutcome(status="open", depth=depth_cap)
    return ExtensionOutcome(status="exhausted", depth=len(deepest) - len(w))
