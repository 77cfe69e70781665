"""Polynomial rolling hashes over two fixed 61-bit prime moduli.

A hash match is never taken as proof of equality: every equality decision
made through :meth:`PrefixHashes.equal_blocks` or
:meth:`PrefixHashes.distinct_blocks` falls back to a direct
symbol-by-symbol comparison once the two hash pairs agree.  Hash mismatch,
on the other hand, is a sound proof of inequality.  The moduli and bases
are fixed constants so that runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Iterable

_MOD1 = 2305843009213693951  # 2**61 - 1 (Mersenne prime)
_MOD2 = 2305843009213693921  # largest prime below it
_BASE1 = 1_000_003
_BASE2 = 1_000_033


class PrefixHashes:
    """Append-only prefix hashes of a symbol sequence.

    Supports O(1) hashing of any block (contiguous run) of the symbols seen
    so far, plus exact block-equality queries.  Symbols are small ints.
    """

    __slots__ = ("_sym", "_h1", "_h2", "_p1", "_p2")

    def __init__(self, symbols: Iterable[int] = b"") -> None:
        self._sym = bytearray()
        self._h1 = [0]
        self._h2 = [0]
        self._p1 = [1]
        self._p2 = [1]
        if symbols:
            self.extend(symbols)

    def __len__(self) -> int:
        return len(self._sym)

    def extend(self, symbols: Iterable[int]) -> None:
        """Append symbols, growing the hash and power tables."""
        h1 = self._h1[-1]
        h2 = self._h2[-1]
        p1 = self._p1[-1]
        p2 = self._p2[-1]
        ah1 = self._h1.append
        ah2 = self._h2.append
        ap1 = self._p1.append
        ap2 = self._p2.append
        for c in symbols:
            h1 = (h1 * _BASE1 + c + 1) % _MOD1
            h2 = (h2 * _BASE2 + c + 1) % _MOD2
            p1 = (p1 * _BASE1) % _MOD1
            p2 = (p2 * _BASE2) % _MOD2
            ah1(h1)
            ah2(h2)
            ap1(p1)
            ap2(p2)
        self._sym.extend(symbols)

    def block(self, start: int, length: int) -> tuple[int, int]:
        """Hash pair of the block ``symbols[start : start + length]`` (0-based)."""
        end = start + length
        v1 = (self._h1[end] - self._h1[start] * self._p1[length]) % _MOD1
        v2 = (self._h2[end] - self._h2[start] * self._p2[length]) % _MOD2
        return v1, v2

    def equal_blocks(self, a: int, b: int, length: int) -> bool:
        """Exact equality of the two length-``length`` blocks at ``a`` and ``b``.

        The hash pair acts as a filter; agreement is always confirmed by a
        direct comparison of the underlying symbols.
        """
        if a == b:
            return True
        if self.block(a, length) != self.block(b, length):
            return False
        return self._sym[a : a + length] == self._sym[b : b + length]

    def distinct_blocks(self, start: int, length: int, k: int) -> bool:
        """Are the k consecutive length-``length`` blocks from ``start`` pairwise distinct?

        Blocks are bucketed by hash pair; a block sharing a bucket is
        compared symbol by symbol with every earlier block in it.
        """
        buckets: dict[tuple[int, int], list[int]] = {}
        for t in range(k):
            a = start + t * length
            bucket = buckets.setdefault(self.block(a, length), [])
            for other in bucket:
                if self.symbols(other, length) == self.symbols(a, length):
                    return False
            bucket.append(a)
        return True

    def symbols(self, start: int, length: int) -> bytes:
        """Raw symbols of a block, for direct comparisons."""
        return bytes(self._sym[start : start + length])
