"""Power / anti-power detectors, border machinery, and their naive oracles.

The fast detectors compare byte slices directly: a word is a k-anti-power
when the set of its k blocks has k members, and the suffix checks
``ends_in_power`` / ``ends_in_anti_power`` used by the extension searches
test every suffix ending at the last letter the same way.  No hashing is
involved; the one hash-filtered check, batched over the block lengths of
prefixes, positions and witness scans, is ``PrefixHashes.distinct_blocks``.
The ``naive_*`` functions are deliberately independent quadratic
re-implementations kept as oracles; do not "optimize" them to share code
with the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word


@dataclass(frozen=True)
class BlockFactorization:
    """A word cut into k consecutive equal-length blocks."""

    source: Word
    k: int
    block_length: int
    blocks: tuple[Word, ...]


def block_factorization(w: Word, k: int) -> BlockFactorization:
    """Cut w into k equal blocks; requires k >= 1 and k | |w|."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    n = len(w)
    if n % k:
        raise ValueError(f"length {n} is not divisible by k={k}")
    b = n // k
    blocks = tuple(w[t * b : (t + 1) * b] for t in range(k))
    return BlockFactorization(source=w, k=k, block_length=b, blocks=blocks)


def is_k_power(w: Word, k: int) -> bool:
    """True iff w is a concatenation of k identical blocks.

    The empty word is a k-power for every k (all blocks empty).
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    n = len(w)
    if n % k:
        return False
    b = n // k
    return w.symbols == w.symbols[:b] * k


def is_k_anti_power(w: Word, k: int) -> bool:
    """True iff w is non-empty and splits into k pairwise distinct equal blocks."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    n = len(w)
    if n == 0 or n % k:
        return False
    b = n // k
    s = w.symbols
    return len({s[t * b : (t + 1) * b] for t in range(k)}) == k


def ends_in_power(s: bytes, l: int) -> bool:
    """Is some suffix of s an l-power of a non-empty block?"""
    n = len(s)
    for b in range(1, n // l + 1):
        if s[n - l * b :] == s[n - l * b : n - (l - 1) * b] * l:
            return True
    return False


def ends_in_anti_power(s: bytes, k: int) -> bool:
    """Does some suffix of s split into k pairwise distinct equal blocks?"""
    n = len(s)
    for b in range(1, n // k + 1):
        start = n - k * b
        if len({s[start + t * b : start + (t + 1) * b] for t in range(k)}) == k:
            return True
    return False


def naive_is_k_power(w: Word, k: int) -> bool:
    """Oracle: plain block comparison, no hashing."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if len(w) % k:
        return False
    blocks = block_factorization(w, k).blocks
    return all(blk == blocks[0] for blk in blocks)


def naive_is_k_anti_power(w: Word, k: int) -> bool:
    """Oracle: quadratic pairwise block comparison, no hashing."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if len(w) == 0 or len(w) % k:
        return False
    blocks = block_factorization(w, k).blocks
    for i in range(k):
        for j in range(i + 1, k):
            if blocks[i] == blocks[j]:
                return False
    return True


def naive_find_anti_power_factor(w: Word, k: int) -> tuple[int, int] | None:
    """Oracle: first (position, block_length) of a k-anti-power factor of w.

    Scans block lengths ascending, then 1-based start positions ascending,
    matching the fast scanner's tie-breaking.
    """
    n = len(w)
    for b in range(1, n // k + 1):
        span = k * b
        for start in range(n - span + 1):
            if naive_is_k_anti_power(w[start : start + span], k):
                return start + 1, b
    return None


def naive_has_k_anti_power_factor(w: Word, k: int) -> bool:
    return naive_find_anti_power_factor(w, k) is not None


def naive_has_k_power_factor(w: Word, k: int) -> bool:
    """Oracle: does w contain a k-power of a non-empty block as a factor?"""
    n = len(w)
    s = w.symbols
    for b in range(1, n // k + 1):
        span = k * b
        for start in range(n - span + 1):
            if s[start : start + span] == s[start : start + b] * k:
                return True
    return False


def longest_border_array(w: Word) -> list[int]:
    """Failure function: entry i is the longest border length of the prefix of length i + 1."""
    s = w.symbols
    n = len(s)
    if n == 0:
        raise ValueError("border array needs a non-empty word")
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    return fail


def all_borders(w: Word) -> list[int]:
    """All border lengths of w, longest first, ending with 0 (the empty border)."""
    fail = longest_border_array(w)
    out = []
    b = fail[-1]
    while b > 0:
        out.append(b)
        b = fail[b - 1]
    out.append(0)
    return out


class InvalidBorderError(ValueError):
    """The stated prefix is not a suffix of the word."""


@dataclass(frozen=True)
class LengthDeficit:
    """Refusal detail: w is too short for root**exponent to fit as a prefix."""

    root: Word
    exponent: int
    required: int
    actual: int


def root_power_from_border(w: Word, border_len: int, l: int) -> Word | LengthDeficit:
    """Peel the border v (of the given length) off w = u v and return the root u.

    When |w| >= l * |u| the return value u is guaranteed to satisfy
    "u**l is a prefix of w"; otherwise a LengthDeficit refusal is returned.
    """
    n = len(w)
    if not 0 <= border_len < n:
        raise ValueError(f"border length must be in 0..{n - 1}, got {border_len}")
    if l < 1:
        raise ValueError("exponent must be >= 1")
    if border_len and w.symbols[:border_len] != w.symbols[n - border_len :]:
        raise InvalidBorderError(f"prefix of length {border_len} is not a suffix")
    u = w[: n - border_len]
    if n >= l * len(u):
        return u
    return LengthDeficit(root=u, exponent=l, required=l * len(u), actual=n)
