"""Anti-power / power prefix index sets and finite lower-density estimates.

For an infinite word x and order k, the anti-power set collects the block
lengths m whose km-prefix is a k-anti-power; the power set is its k-power
mirror.  Densities are finite-horizon estimates only: the true lower
density is a liminf and is not finitely computable.

One loop, ``_scan_lengths``, hands block lengths in doubling batches to
a row check for these sets, ``ap_min``, ``scan.anti_power_at_position`` and
the witness scan.  Anti-power rows go through the exact
``PrefixHashes.distinct_blocks``.  A km-prefix is a k-power exactly when
it has period m.  ``p_set`` compares symbols only for a row whose two
period blocks share a key, and one ``equal_blocks`` call settles such a
row.  Once its scan knows a prefix of period q, a row whose length is a
multiple of q compares only the symbols past that prefix, since a prefix
of period q has every multiple of q as a period.  Any other row compares
its whole period, and so does a row whose extension fails, in a second
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hashing import PrefixHashes
from .words import InfiniteWord

ANTI_POWER_SET = "anti-power"
POWER_SET = "power"

_FIRST_ROWS = 16  # block lengths in the first batch of _scan_lengths; later batches double
_BATCH_KEYS = 1 << 16  # block keys the doubling stops at


@dataclass(frozen=True)
class IndexSet:
    """Finite truncation of one of the prefix index sets, up to ``horizon``."""

    kind: str
    x: InfiniteWord
    k: int
    horizon: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class DensityEstimate:
    """d_n = |X intersect {1..n}| / n for n = 1..horizon, as exact rationals.

    ``numerators[n - 1] / denominators[n - 1]`` is d_n in lowest terms (0 is
    0/1), and ``ratios`` gives the same values as ``Fraction``s.
    ``min_tail`` is the minimum of d_n over the back half-window
    [ceil(horizon/2), horizon], a surrogate for the liminf, clearly not
    the liminf itself.
    """

    horizon: int
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    min_tail: Fraction

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        """d_1 .. d_horizon as ``Fraction``s."""
        return tuple(map(Fraction, self.numerators, self.denominators))


def prefix_is_k_anti_power(ph: PrefixHashes, k: int, m: int | np.ndarray) -> bool | np.ndarray:
    """Is the km-prefix (under the given hash table) a k-anti-power?  ``m`` may be an int array."""
    return ph.distinct_blocks(0, m, k)


def prefix_is_k_power(ph: PrefixHashes, k: int, m: int) -> bool:
    """Is the km-prefix (under the given hash table) a k-power, that is, of period m?"""
    return ph.equal_blocks(0, m, (k - 1) * m)


def _power_rows():
    """A fresh k-power row check for one ``p_set`` scan: period blocks with equal keys, confirmed exactly.

    Across batches the check keeps the last confirmed period q and a prefix
    length ``reach`` known to have period q; a key-equal row r with q | r
    first tries to extend that period from ``reach`` to kr.
    """
    q = reach = 0  # no prefix of known period yet

    def power(ph: PrefixHashes, k: int, r: int) -> bool:
        nonlocal q, reach
        if q and r % q == 0 and ph.equal_blocks(reach - q, reach, k * r - reach):
            reach = k * r
            return True
        if prefix_is_k_power(ph, k, r):
            q, reach = r, k * r
            return True
        return False

    def check(ph: PrefixHashes, k: int, m: np.ndarray) -> np.ndarray:
        flags = ph.block_keys(0, (k - 1) * m) == ph.block_keys(m, (k - 1) * m)
        flags[flags] = [power(ph, k, r) for r in m[flags].tolist()]
        return flags

    return check


def _scan_lengths(x: InfiniteWord, k: int, start: int, first: int, last: int, check):
    """Yield (m, check(ph, k, m)) for the block lengths m = first .. last, in order.

    ``check`` answers an int array of lengths.  A batch ends at the last
    length whose k blocks from ``start`` fit under x's cap; the next
    length raises x's cap error, as its own table would.
    """
    rows = _FIRST_ROWS
    while first <= last:
        hi = min(first + rows - 1, last, (x.cap - start) // k)
        ph = x.hashes(start + k * max(first, hi))  # raises past the cap
        yield from zip(range(first, hi + 1), check(ph, k, np.arange(first, hi + 1)).tolist())
        first = hi + 1
        rows = min(2 * rows, max(_FIRST_ROWS, _BATCH_KEYS // k))


def _prefix_set(kind: str, check, x: InfiniteWord, k: int, horizon: int) -> IndexSet:
    """All m <= horizon whose km-prefix of x passes the row check ``check``."""
    if k < 1 or horizon < 1:
        raise ValueError("k and horizon must be >= 1")
    x.hashes(k * horizon)  # one build, and the cap error before any work
    members = tuple(m for m, hit in _scan_lengths(x, k, 0, 1, horizon, check) if hit)
    return IndexSet(kind=kind, x=x, k=k, horizon=horizon, members=members)


def ap_set(x: InfiniteWord, k: int, horizon: int) -> IndexSet:
    """All m <= horizon whose km-prefix of x is a k-anti-power."""
    return _prefix_set(ANTI_POWER_SET, prefix_is_k_anti_power, x, k, horizon)


def p_set(x: InfiniteWord, k: int, horizon: int) -> IndexSet:
    """All m <= horizon whose km-prefix of x is a k-power."""
    return _prefix_set(POWER_SET, _power_rows(), x, k, horizon)


def ap_min(x: InfiniteWord, k: int, limit: int) -> int | None:
    """Least m <= limit whose km-prefix is a k-anti-power, or None.

    Materializes lazily, so a huge limit only costs what the answer needs.
    """
    if k < 1 or limit < 1:
        raise ValueError("k and limit must be >= 1")
    return next((m for m, ap in _scan_lengths(x, k, 0, 1, limit, prefix_is_k_anti_power) if ap), None)


def density_estimate(s: IndexSet) -> DensityEstimate:
    """Exact rational d_n for n = 1..horizon plus the tail-half minimum."""
    if s.horizon < 2:
        raise ValueError("horizon must be >= 2")
    horizon = s.horizon
    members = np.asarray(s.members, dtype=np.int64)
    marks = np.zeros(horizon, dtype=np.int64)
    marks[members[(members >= 1) & (members <= horizon)] - 1] = 1  # only members in 1..horizon count
    counts = np.cumsum(marks)  # c_n = |X intersect {1..n}|
    n = np.arange(1, horizon + 1)
    g = np.gcd(counts, n)
    # the least c_i / i over the tail, by exact cross-multiplication
    first = -(-horizon // 2)  # ceil(horizon / 2)
    best, low = first, int(counts[first - 1])
    for i, c in enumerate(counts[first:].tolist(), start=first + 1):
        if c * best < low * i:
            best, low = i, c
    return DensityEstimate(
        horizon=horizon,
        numerators=tuple((counts // g).tolist()),
        denominators=tuple((n // g).tolist()),
        min_tail=Fraction(low, best),
    )
