"""Sliding scans for anti-power factors and the bounded extension search.

The extension search has no loop of its own: it runs on the explicit-stack
DFS engine ramsey.extension_dfs that also builds the N(l, k) search's
frontier.

The factor scan is exact: for each block length it decides block equality
by direct symbol comparison, vectorized with numpy (windowed cumulative
sums of per-offset match masks), so no probabilistic step is involved.
A pure-Python call like find_anti_power_factor(x, 4, 20000) would need
tens of millions of per-position checks; this path does it in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import ends_in_anti_power, naive_is_k_anti_power
from .ramsey import extension_dfs
from .words import InfiniteWord, Word


def find_anti_power_in_word(w: Word, k: int) -> tuple[int, int] | None:
    """First k-anti-power factor of w, as (1-based position, block length).

    Block lengths are tried ascending and, within a block length, start
    positions ascending: the (block_length, position) lexicographic order.
    """
    if k < 2:
        raise ValueError("order k must be >= 2")
    arr = np.frombuffer(w.symbols, dtype=np.uint8)
    n = len(arr)
    for ell in range(1, n // k + 1):
        span = k * ell
        npos = n - span + 1
        ok = np.ones(npos, dtype=bool)
        for m in range(1, k):
            d = m * ell
            match = arr[: n - d] == arr[d:]
            csum = np.concatenate(([0], np.cumsum(match, dtype=np.int64)))
            # full[a] <=> the length-ell blocks at a and a+d coincide
            full = (csum[ell:] - csum[:-ell]) == ell
            for i in range(k - m):
                ok &= ~full[i * ell : i * ell + npos]
        hit = int(np.argmax(ok)) if ok.any() else -1
        if hit >= 0:
            found = w[hit : hit + span]
            if not naive_is_k_anti_power(found, k):  # exactness guard
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
    for ell in range(1, limit + 1):
        if x.hashes(start + k * ell).distinct_blocks(start, ell, k):
            return ell
    return None


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
