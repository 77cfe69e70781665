"""Polynomial prefix hashes modulo one fixed 31-bit prime, built with numpy.

The hash of the first i symbols is h[i] = sum_{j<i} (c_j + 1) * B**(i-1-j)
mod p.  A table is built in fixed-size chunks: inside a chunk,
h[lo + i] = B**i * (h[lo] + S_i) with S_i the int64 cumsum of
(c_{lo+j} + 1) * B**-(j+1), so temporaries stay bounded and no sum
overflows.  The hashes live in ``array('i')``, 4 bytes each: every hash is
reduced mod p < 2**31, so it fits a signed 32-bit int, and the gathers
upcast it against the int64 powers.  B**length is the product of
two small tables: the fixed B**j for j <= _CHUNK, which with the B**-j table
is all a build needs, and each table's own B**(q * _CHUNK) for
q <= len // _CHUNK, grown by ``extend`` under the table's lock.  The
module's own tables are fixed at import.

:meth:`PrefixHashes.block_keys` is the batch filter: the hashes of many
blocks in one vectorized pass, which :meth:`PrefixHashes.block` gives for
one block.  Distinct keys prove distinct blocks; equal keys prove nothing.

A hash match is never taken as proof of equality: ``equal_blocks``
compares the symbols themselves, and ``distinct_blocks``, the one
hash-filtered distinctness check, confirms one pair per shared-key row
through ``equal_blocks``: the first two of the row's blocks that carry
its least shared key, the pair a stable sort of the row's keys would put
first.  It compares all of the row's blocks only on a collision.  That is
why one modulus is enough: a collision costs a comparison, never a wrong
answer, so a second modulus would only make the rare collision rarer, at
twice the table and the arithmetic.  The modulus and base are fixed
constants so that runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable

import numpy as np

_MOD = 2147483647  # 2**31 - 1 (Mersenne prime)
_BASE = 1_000_003

_CHUNK = 1 << 14  # symbols per build step, and the span of _POW


def _doubling(table: np.ndarray, have: int, base: int) -> np.ndarray:
    """Fill table[have:] with base**i mod p, given table[:have] (have >= 1)."""
    while have < len(table):
        step = min(have, len(table) - have)
        shift = int(table[have - 1]) * base % _MOD  # base**have
        table[have : have + step] = table[:step] * shift % _MOD
        have += step
    return table


_POW = _doubling(np.ones(_CHUNK + 1, dtype=np.int64), 1, _BASE)  # B**j for one chunk
_INV = _doubling(np.ones(_CHUNK + 1, dtype=np.int64), 1, pow(_BASE, -1, _MOD))  # B**-j for one chunk


class PrefixHashes:
    """Append-only prefix hashes of a symbol sequence.

    Supports O(1) hashing of any block (contiguous run) of the symbols seen
    so far, batched block keys, and exact block-equality queries.  Symbols
    are small ints.
    """

    __slots__ = ("_sym", "_h", "_high", "_lock")

    def __init__(self, symbols: Iterable[int] = b"") -> None:
        self._sym = bytearray()
        self._h = array("i", [0])
        self._high = np.ones(1, dtype=np.int64)  # B**(q * _CHUNK) for q <= len // _CHUNK
        # held while the tables are resized or a buffer view of them is alive
        self._lock = threading.Lock()
        self.extend(symbols)

    def __len__(self) -> int:
        return len(self._sym)

    def extend(self, symbols: Iterable[int]) -> None:
        """Append symbols, growing the hash table one numpy chunk at a time."""
        data = bytes(symbols)
        if not data:
            return
        with self._lock:
            last = self._h[-1]
            for lo in range(0, len(data), _CHUNK):
                c = np.frombuffer(data, dtype=np.uint8, count=min(_CHUNK, len(data) - lo), offset=lo)
                n = len(c)
                s = np.cumsum((c.astype(np.int64) + 1) * _INV[1 : n + 1])
                s += last
                s %= _MOD
                s *= _POW[1 : n + 1]
                s %= _MOD
                self._h.frombytes(memoryview(s.astype(np.int32)).cast("B"))
                last = int(s[-1])
            self._sym.extend(data)
            have, need = len(self._high), len(self._sym) // _CHUNK + 1
            if have < need:
                grown = np.empty(need, dtype=np.int64)
                grown[:have] = self._high
                self._high = _doubling(grown, have, int(_POW[_CHUNK]))

    def block(self, start: int, length: int) -> int:
        """Hash of the block ``symbols[start : start + length]`` (0-based)."""
        return int(self.block_keys(start, length))

    def block_keys(self, starts, lengths) -> np.ndarray:
        """Hashes (keys) of the blocks at ``starts`` with ``lengths``.

        ``starts`` and ``lengths`` are int arrays (or scalars) that broadcast
        together; key equality is exactly ``block`` equality.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        ends = starts + lengths
        high, low = np.divmod(lengths, _CHUNK)
        # the lock must outlive every buffer view of h: extend cannot resize
        # an array that still exports its buffer
        with self._lock:
            pw = _POW[low] * self._high[high] % _MOD  # B**length; the product is < 2**62
            hv = np.frombuffer(self._h, dtype=np.int32)
            try:
                return (hv[ends] - hv[starts] * pw) % _MOD  # |.| < 2**62
            finally:
                del hv  # also when indexing raises, so no traceback keeps the view

    def equal_blocks(self, a: int, b: int, length: int) -> bool:
        """Exact equality of the two length-``length`` blocks at ``a`` and ``b``.

        A direct comparison of the symbols, without copying them: callers
        reach it with a pair whose keys already agree, or with short blocks.
        """
        if a == b:
            return True
        with self._lock:
            return self._sym.startswith(memoryview(self._sym)[b : b + length], a)

    def distinct_blocks(self, start: int, lengths: int | np.ndarray, k: int) -> bool | np.ndarray:
        """Are the k consecutive blocks of each length from ``start`` pairwise distinct?

        An int of ``lengths`` gets a bool, an int array a bool array.  A row
        whose k keys all differ is distinct; any other row is settled by the
        first two of its blocks that carry its least shared key or, if that
        pair is a collision, by all k blocks.
        """
        m = np.reshape(lengths, (-1, 1))
        keys = self.block_keys(start + m * np.arange(k), m)
        ranked = np.sort(keys, axis=1)
        shared = ranked[:, 1:] == ranked[:, :-1]
        distinct = ~shared.any(axis=1)
        rows = np.flatnonzero(~distinct)
        if rows.size:  # none if k = 1
            least = ranked[rows, shared[rows].argmax(axis=1)]  # each row's least shared key
            carry = keys[rows] == least[:, None]  # the blocks that carry it
            first, second = carry.argmax(axis=1), (carry.cumsum(axis=1) == 2).argmax(axis=1)
        else:
            first = second = rows
        m = m[rows, 0]
        a, b = start + first * m, start + second * m
        for r, length, i, j in zip(rows.tolist(), m.tolist(), a.tolist(), b.tolist()):
            if not self.equal_blocks(i, j, length):  # a hash collision: compare every block
                distinct[r] = len({self.symbols(start + t * length, length) for t in range(k)}) == k
        return distinct if np.ndim(lengths) else bool(distinct[0])

    def symbols(self, start: int, length: int) -> bytes:
        """Raw symbols of a block, for direct comparisons."""
        return bytes(self._sym[start : start + length])
