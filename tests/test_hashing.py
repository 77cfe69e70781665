"""Rolling-hash table: block hashing, extension, and mandatory confirmation."""

import random
from concurrent.futures import ThreadPoolExecutor

from antipower import ThueMorseWord, Word, naive_is_k_anti_power
from antipower.hashing import PrefixHashes
from antipower.sets import prefix_is_k_anti_power


class CollidingHashes(PrefixHashes):
    """Degenerate table whose hash filter always fires, forcing confirmation."""

    def block(self, start, length):
        return (0, 0)


def test_block_hash_equality_matches_block_equality():
    rng = random.Random(5)
    data = bytes(rng.randrange(2) for _ in range(400))
    ph = PrefixHashes(data)
    for _ in range(2000):
        length = rng.randrange(1, 40)
        a = rng.randrange(0, len(data) - length)
        b = rng.randrange(0, len(data) - length)
        same = data[a : a + length] == data[b : b + length]
        assert (ph.block(a, length) == ph.block(b, length)) == same
        assert ph.equal_blocks(a, b, length) == same


def test_extension_matches_bulk_construction():
    rng = random.Random(6)
    data = bytes(rng.randrange(3) for _ in range(256))
    whole = PrefixHashes(data)
    grown = PrefixHashes()
    for cut in (0, 17, 100, 256):
        grown.extend(data[len(grown) : cut])
        assert len(grown) == cut
    for length in (1, 5, 31):
        for start in range(0, 256 - length, 7):
            assert whole.block(start, length) == grown.block(start, length)


def test_equality_is_exact_even_when_every_hash_collides():
    # the hash is only a filter: with a constant "hash", every decision falls
    # through to the direct comparison and answers must not change
    rng = random.Random(7)
    data = bytes(rng.randrange(2) for _ in range(120))
    honest = PrefixHashes(data)
    colliding = CollidingHashes(data)
    for _ in range(500):
        length = rng.randrange(1, 30)
        a = rng.randrange(0, len(data) - length)
        b = rng.randrange(0, len(data) - length)
        assert colliding.equal_blocks(a, b, length) == honest.equal_blocks(a, b, length)
    for k in (2, 3, 4):
        for m in range(1, len(data) // k):
            assert prefix_is_k_anti_power(colliding, k, m) == prefix_is_k_anti_power(honest, k, m)
    for k in (2, 3, 5):
        for length in range(1, 9):
            for start in range(1, len(data) - k * length + 1, 3):
                want = naive_is_k_anti_power(Word(data[start : start + k * length], 2), k)
                assert colliding.distinct_blocks(start, length, k) == want
                assert honest.distinct_blocks(start, length, k) == want


def test_concurrent_materialization_is_consistent():
    x = ThueMorseWord()
    reference = ThueMorseWord().prefix(20000)

    def grab(n):
        return x.prefix(n)

    with ThreadPoolExecutor(max_workers=8) as pool:
        sizes = [20000, 1, 7777, 15000, 20000, 3, 12345, 9999] * 4
        results = list(pool.map(grab, sizes))
    for n, w in zip(sizes, results):
        assert w.symbols == reference.symbols[:n]
