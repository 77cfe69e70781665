"""Anti-power / power prefix index sets and finite lower-density estimates.

For an infinite word x and order k, the anti-power set collects the block
lengths m whose km-prefix is a k-anti-power; the power set is its k-power
mirror.  Densities are finite-horizon estimates only: the true lower
density is a liminf and is not finitely computable.

``ap_set``, ``p_set`` and the witness scan first count the distinct hash
keys of each row's k blocks in one numpy batch (``distinct_key_counts``);
only the rows the keys cannot settle reach the exact per-m checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hashing import PrefixHashes
from .words import InfiniteWord

ANTI_POWER_SET = "anti-power"
POWER_SET = "power"

_FILTER_KEYS = 1 << 16  # block keys per numpy batch of distinct_key_counts


@dataclass(frozen=True)
class IndexSet:
    """Finite truncation of one of the prefix index sets, up to ``horizon``."""

    kind: str
    x: InfiniteWord
    k: int
    horizon: int
    members: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "generator": self.x.name,
            "k": self.k,
            "horizon": self.horizon,
            "members": list(self.members),
        }

    def to_csv(self) -> str:
        return "m\n" + "".join(f"{m}\n" for m in self.members)


@dataclass(frozen=True)
class DensityEstimate:
    """d_n = |X intersect {1..n}| / n for n = 1..horizon, as exact rationals.

    ``min_tail`` is the minimum of d_n over the back half-window
    [ceil(horizon/2), horizon], a surrogate for the liminf, clearly not
    the liminf itself.
    """

    horizon: int
    ratios: tuple[Fraction, ...]
    min_tail: Fraction


def prefix_is_k_anti_power(ph: PrefixHashes, k: int, m: int) -> bool:
    """Is the km-prefix (under the given hash table) a k-anti-power?"""
    return ph.distinct_blocks(0, m, k)


def prefix_is_k_power(ph: PrefixHashes, k: int, m: int) -> bool:
    """Is the km-prefix (under the given hash table) a k-power?"""
    return all(ph.equal_blocks(0, t * m, m) for t in range(1, k))


def distinct_key_counts(ph: PrefixHashes, k: int, lo: int, hi: int) -> np.ndarray:
    """For m = lo .. hi-1: how many distinct hash keys the k length-m blocks of the km-prefix have.

    Distinct keys prove distinct blocks, so a count of k proves a
    k-anti-power and a count above 1 proves a non-power.  The other rows
    (two blocks share a key) are decided by the exact checks.
    """
    counts = np.ones(max(0, hi - lo), dtype=np.int64)
    t = np.arange(k, dtype=np.int64)
    step = max(1, _FILTER_KEYS // k)
    for a in range(lo, hi, step):
        m = np.arange(a, min(a + step, hi), dtype=np.int64)[:, None]
        keys = ph.block_keys(m * t, m)
        keys.sort(axis=1)
        counts[a - lo : a - lo + len(m)] += (keys[:, 1:] != keys[:, :-1]).sum(axis=1)
    return counts


def ap_set(x: InfiniteWord, k: int, horizon: int) -> IndexSet:
    """All m <= horizon whose km-prefix of x is a k-anti-power."""
    if k < 1 or horizon < 1:
        raise ValueError("k and horizon must be >= 1")
    ph = x.hashes(k * horizon)
    counts = distinct_key_counts(ph, k, 1, horizon + 1).tolist()
    members = tuple(m for m, c in enumerate(counts, 1) if c == k or prefix_is_k_anti_power(ph, k, m))
    return IndexSet(kind=ANTI_POWER_SET, x=x, k=k, horizon=horizon, members=members)


def p_set(x: InfiniteWord, k: int, horizon: int) -> IndexSet:
    """All m <= horizon whose km-prefix of x is a k-power."""
    if k < 1 or horizon < 1:
        raise ValueError("k and horizon must be >= 1")
    ph = x.hashes(k * horizon)
    counts = distinct_key_counts(ph, k, 1, horizon + 1).tolist()
    members = tuple(m for m, c in enumerate(counts, 1) if c == 1 and prefix_is_k_power(ph, k, m))
    return IndexSet(kind=POWER_SET, x=x, k=k, horizon=horizon, members=members)


def ap_min(x: InfiniteWord, k: int, limit: int) -> int | None:
    """Least m <= limit whose km-prefix is a k-anti-power, or None.

    Materializes lazily, so a huge limit only costs what the answer needs.
    """
    if k < 1 or limit < 1:
        raise ValueError("k and limit must be >= 1")
    for m in range(1, limit + 1):
        ph = x.hashes(k * m)
        if prefix_is_k_anti_power(ph, k, m):
            return m
    return None


def density_estimate(s: IndexSet) -> DensityEstimate:
    """Exact rational d_n for n = 1..horizon plus the tail-half minimum."""
    if s.horizon < 2:
        raise ValueError("horizon must be >= 2")
    ratios = []
    count = 0
    members = set(s.members)
    for n in range(1, s.horizon + 1):
        if n in members:
            count += 1
        ratios.append(Fraction(count, n))
    tail_start = -(-s.horizon // 2)  # ceil(horizon / 2)
    min_tail = min(ratios[tail_start - 1 :])
    return DensityEstimate(horizon=s.horizon, ratios=tuple(ratios), min_tail=min_tail)
