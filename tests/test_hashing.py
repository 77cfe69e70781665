"""Rolling-hash table: block hashing, extension, and mandatory confirmation."""

import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipower import (
    FibonacciWord,
    LiteralWord,
    MaterializationCapError,
    PeriodicWord,
    ThueMorseWord,
    Word,
    anti_power_at_position,
    ap_min,
    ap_set,
    extract_power_witness,
    naive_is_k_anti_power,
    naive_is_k_power,
    p_set,
)
from antipower import hashing
from antipower.hashing import PrefixHashes
from antipower.sets import prefix_is_k_anti_power

BASE, MOD = 1_000_003, 2147483647


def reference_block(data, start, length):
    """The block hash from its definition, in Python ints: an independent oracle."""
    v = 0
    for c in data[start : start + length]:
        v = (v * BASE + c + 1) % MOD
    return v


class CollidingHashes(PrefixHashes):
    """Degenerate table whose hash filter always fires, forcing confirmation."""

    def block(self, start, length):
        return 0

    def block_keys(self, starts, lengths):
        return np.zeros(np.broadcast_shapes(np.shape(starts), np.shape(lengths)), dtype=np.int64)


class CollidingKeys(PrefixHashes):
    """Honest scalar hashes, but a batch filter that gives every block the same key."""

    def block_keys(self, starts, lengths):
        return np.full(np.broadcast_shapes(np.shape(starts), np.shape(lengths)), 7, dtype=np.int64)


def with_table(x, table_class):
    x._hashes = table_class()
    return x


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
    # the hash is only a filter: CollidingHashes.block_keys gives every block
    # the same key, so every shared-key row falls through to the direct
    # comparison, and answers must not change
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


def test_blocks_match_the_definition_across_build_chunks():
    rng = random.Random(8)
    data = bytes(rng.randrange(256) for _ in range(2 * hashing._CHUNK + 77))
    ph = PrefixHashes(data)
    for _ in range(300):
        length = rng.randrange(1, 60)
        a = rng.randrange(0, len(data) - length)
        assert ph.block(a, length) == reference_block(data, a, length)
    # blocks straddling the chunk seams
    for seam in (hashing._CHUNK, 2 * hashing._CHUNK):
        for a in range(seam - 5, seam + 1):
            assert ph.block(a, 9) == reference_block(data, a, 9)


def test_powers_split_at_chunk_multiples_match_the_definition():
    # B**length is B**(length mod _CHUNK) * B**(_CHUNK * (length // _CHUNK));
    # uneven extends grow the table's high powers several times
    chunk = hashing._CHUNK
    rng = random.Random(13)
    data = bytes(rng.randrange(3) for _ in range(3 * chunk + 500))
    ph = PrefixHashes()
    steps = iter((1, chunk - 3, 7, chunk + 5, 2, 3 * chunk))
    high = []
    while len(ph) < len(data):
        ph.extend(data[len(ph) : len(ph) + next(steps)])
        high.append(len(ph._high))
    assert high[-1] == 4 and len(set(high)) == 4
    for q in (1, 2, 3):
        for length in (q * chunk - 1, q * chunk, q * chunk + 1):
            last = len(data) - length
            # starts on both sides of a chunk seam, where they fit
            starts = sorted({0, 1, last} | {s for s in (chunk - 1, chunk, chunk + 1) if s <= last})
            want = [reference_block(data, a, length) for a in starts]
            assert [ph.block(a, length) for a in starts] == want
            # a scalar length broadcasts over many starts
            keys = ph.block_keys(np.array(starts), length).tolist()
            assert keys == want
    starts = rng.sample(range(len(data) - chunk - 1), 40)
    lengths = [rng.choice((chunk - 1, chunk, chunk + 1)) for _ in starts]
    keys = ph.block_keys(np.array(starts), np.array(lengths)).tolist()
    for a, length, key in zip(starts, lengths, keys):
        assert key == reference_block(data, a, length)


def test_a_deleted_table_frees_its_memory():
    n = 2_000_000
    data = ThueMorseWord().prefix(n).symbols
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ph = PrefixHashes(data)
        held = tracemalloc.get_traced_memory()[0] - before
        del ph
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1 << 20, left
    # 1 byte of symbols and a 4-byte hash per symbol
    assert held < 6 * n, held / n


@pytest.mark.parametrize("make", [ThueMorseWord, FibonacciWord])
def test_a_hashed_word_keeps_its_symbols_once(make):
    n = 2_000_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = make()
        ph = x.hashes(n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ph._h.itemsize == 4  # np.frombuffer reads the hashes as int32
    assert held < 6 * len(ph), held / len(ph)


def test_block_keys_are_the_scalar_hashes():
    rng = random.Random(9)
    data = bytes(rng.randrange(3) for _ in range(3000))
    ph = PrefixHashes(data)
    starts = np.array([rng.randrange(0, 2000) for _ in range(400)])
    lengths = np.array([rng.randrange(1, 1000) for _ in range(400)])
    keys = ph.block_keys(starts, lengths).tolist()
    for a, length, key in zip(starts.tolist(), lengths.tolist(), keys):
        assert key == ph.block(a, length)
    # a scalar length broadcasts over many starts
    assert ph.block_keys(starts, 5).tolist() == [ph.block_keys(a, 5) for a in starts.tolist()]


def test_a_failed_batch_query_leaves_the_table_extendable():
    ph = PrefixHashes(b"\x00\x01" * 10)
    try:
        ph.block_keys([15], 10)  # runs past the end
    except IndexError as exc:
        kept = exc  # its traceback keeps the failed query's frame alive
    ph.extend(b"\x01" * 5)
    assert len(ph) == 25 and kept.__traceback__ is not None
    assert ph.block(15, 10) == PrefixHashes(b"\x00\x01" * 10 + b"\x01" * 5).block(15, 10)


def test_iterators_are_materialized_before_hashing():
    rng = random.Random(10)
    data = bytes(rng.randrange(2) for _ in range(32))
    whole = PrefixHashes(data)
    from_iter = PrefixHashes(iter(data))
    grown = PrefixHashes()
    grown.extend(c for c in data[:20])
    grown.extend(iter(data[20:]))
    for ph in (from_iter, grown):
        assert len(ph) == len(whole) == 32
        assert ph.symbols(0, 32) == data
        for length in (1, 4, 11):
            for start in range(32 - length + 1):
                assert ph.block(start, length) == whole.block(start, length)


def test_many_small_extends_equal_one_bulk_build():
    rng = random.Random(11)
    data = bytes(rng.randrange(3) for _ in range(hashing._CHUNK + 4000))
    whole = PrefixHashes(data)
    grown = PrefixHashes()
    while len(grown) < len(data):
        step = rng.choice((1, 2, 3, 17, 250, 4000))
        grown.extend(data[len(grown) : len(grown) + step])
    assert len(grown) == len(data)
    assert grown._h == whole._h
    starts = np.arange(0, len(data) - 300, 97)
    assert (grown.block_keys(starts, 300) == whole.block_keys(starts, 300)).all()


def test_concurrent_builds_equal_a_serial_build():
    rng = random.Random(12)
    datas = [bytes(rng.randrange(4) for _ in range(n)) for n in (5000, 20000, 700, 41000, 13000, 9000)]
    barrier = threading.Barrier(len(datas))

    def build(data):
        barrier.wait(timeout=60)
        ph = PrefixHashes()
        for cut in range(0, len(data), 3001):
            ph.extend(data[cut : cut + 3001])
        return ph

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(datas)) as pool:
            tables = list(pool.map(build, datas, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for data, ph in zip(datas, tables):
        serial = PrefixHashes(data)
        assert ph._h == serial._h
        for _ in range(50):
            length = rng.randrange(1, 400)
            a = rng.randrange(0, len(data) - length)
            assert ph.block(a, length) == serial.block(a, length) == reference_block(data, a, length)


def test_one_word_hashed_and_queried_from_many_threads():
    # growth of a word's table must not break batch keys or confirmations
    # running at the same time on the same table
    x = ThueMorseWord()
    t = ThueMorseWord().prefix(60000).symbols

    def work(n):
        ph = x.hashes(n)
        m = n // 3
        batch = ph.distinct_blocks(0, np.arange(m - 20, m), 3)
        exact = [x.hashes(n).distinct_blocks(0, r, 3) for r in range(m - 20, m)]
        same = x.hashes(n).equal_blocks(0, m, m) == (t[:m] == t[m : 2 * m])
        return batch.tolist(), exact, same

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            sizes = [300 + 997 * i for i in range(60)]
            results = list(pool.map(work, sizes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for n, (batch, exact, same) in zip(sizes, results):
        m = n // 3
        assert same
        for r, b, e in zip(range(m - 20, m), batch, exact):
            assert b == e == naive_is_k_anti_power(Word(t[: 3 * r], 2), 3)


def test_shared_key_filter_is_only_a_filter():
    # a batch filter that gives every block the same key must not change a
    # single answer: every row then goes to the exact checks
    for make, k, l, budget in ((ThueMorseWord, 3, 3, 150), (FibonacciWord, 5, 2, 200)):
        for table_class in (CollidingKeys, CollidingHashes):
            assert ap_set(with_table(make(), table_class), k, 60).members == ap_set(make(), k, 60).members
            assert p_set(with_table(make(), table_class), k, 60).members == p_set(make(), k, 60).members
            fake = extract_power_witness(with_table(make(), table_class), k, l, budget)
            honest = extract_power_witness(make(), k, l, budget)
            assert type(fake) is type(honest)
            assert fake.to_json() == honest.to_json()
    periodic = lambda: PeriodicWord(Word.from_text("0010"))  # noqa: E731
    literal = lambda: LiteralWord(Word.from_text("01"), Word.from_text("1"))  # noqa: E731
    for make in (periodic, literal):
        for k in (1, 2, 4):
            assert ap_set(with_table(make(), CollidingHashes), k, 40).members == ap_set(make(), k, 40).members
            assert p_set(with_table(make(), CollidingHashes), k, 40).members == p_set(make(), k, 40).members


def test_geometric_hash_growth_stays_under_the_cap():
    x = ThueMorseWord(cap=100)
    assert len(x.hashes(40)) == 40
    assert len(x.hashes(41)) == 80  # doubled
    assert len(x.hashes(81)) == 100  # clamped to the cap, no error
    assert x.hashes(100) is x.hashes(1)
    with pytest.raises(MaterializationCapError):
        x.hashes(101)


# words over one to three letters
small_alphabet_words = st.integers(1, 3).flatmap(
    lambda a: st.binary(min_size=1, max_size=60).map(lambda b: bytes(c % a for c in b))
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_alphabet_words, st.integers(0, 59), st.integers(1, 6))
def test_batched_distinct_blocks_match_the_scalar_form_and_the_oracle(data, start, k):
    ph = PrefixHashes(data)
    start = min(start, len(data) - 1)
    lengths = np.arange(1, (len(data) - start) // k + 1)  # up to the end of the table
    batch = ph.distinct_blocks(start, lengths, k)
    assert batch.dtype == bool and batch.shape == lengths.shape
    for length, got in zip(lengths.tolist(), batch.tolist()):
        scalar = ph.distinct_blocks(start, length, k)
        assert type(scalar) is bool
        assert got == scalar == naive_is_k_anti_power(Word(data[start : start + k * length], 3), k)


class TiedKeys(PrefixHashes):
    """Honest hashes, but the first two blocks of every row from 0 share the smallest key."""

    def block_keys(self, starts, lengths):
        keys = super().block_keys(starts, lengths)
        return np.where(np.asarray(starts) < 2 * np.asarray(lengths), -1, keys)


def test_a_tied_unequal_pair_does_not_hide_an_equal_pair():
    # blocks 0 and 1 differ but tie, and sort first; blocks 2 and 3 are equal
    for data, m in ((b"\x00\x01\x02\x02", 1), (b"\x00\x00\x00\x01\x01\x01\x01\x01", 2)):
        ph = TiedKeys(data)
        assert ph.block_keys(0, m) == ph.block_keys(m, m) and not ph.equal_blocks(0, m, m)
        assert ph.distinct_blocks(0, m, 4) is False
        assert ph.distinct_blocks(0, np.array([m]), 4).tolist() == [False]
    # with no equal pair behind the tie, the row is distinct
    ph = TiedKeys(b"\x00\x01\x02\x03")
    assert ph.distinct_blocks(0, 1, 4) is True
    assert ph.distinct_blocks(0, np.array([1]), 4).tolist() == [True]


def stable_pairs(ph, start, lengths, k):
    """The (a, b, length) that a stable argsort of each row's keys confirms first: a reference."""
    m = lengths[:, None]
    keys = ph.block_keys(start + m * np.arange(k), m)
    order = keys.argsort(axis=1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=1)
    pairs = []
    for r, length in enumerate(lengths.tolist()):
        shared = np.flatnonzero(ranked[r, 1:] == ranked[r, :-1])
        if shared.size:
            i, j = order[r, shared[0]], order[r, shared[0] + 1]
            pairs.append((start + int(i) * length, start + int(j) * length, length))
    return pairs


def test_distinct_blocks_confirms_the_pair_a_stable_sort_picks(monkeypatch):
    seen = []
    equal_blocks = PrefixHashes.equal_blocks

    def recording(self, a, b, length):
        seen.append((a, b, length))
        return equal_blocks(self, a, b, length)

    monkeypatch.setattr(PrefixHashes, "equal_blocks", recording)
    rng = random.Random(11)
    for table_class in (PrefixHashes, CollidingHashes, CollidingKeys):
        for _ in range(40):
            alphabet = rng.randrange(1, 4)
            data = bytes(rng.randrange(alphabet) for _ in range(rng.randrange(2, 120)))
            ph = table_class(data)
            start = rng.randrange(len(data) // 2)
            k = rng.randrange(2, 7)
            lengths = np.arange(1, (len(data) - start) // k + 1)
            if not lengths.size:
                continue
            want = stable_pairs(ph, start, lengths, k)
            seen.clear()
            got = ph.distinct_blocks(start, lengths, k)
            assert seen == want, (table_class.__name__, data, start, k)
            oracle = [naive_is_k_anti_power(Word(data[start : start + k * m], 3), k) for m in lengths.tolist()]
            assert got.tolist() == oracle


def colliding_blocks(length, n, seed):
    """Two distinct blocks of one length with equal keys, from a seeded random word of n bytes."""
    data = random.Random(seed).randbytes(n)
    keys = PrefixHashes(data).block_keys(np.arange(n - length + 1), length)
    order = keys.argsort(kind="stable")
    for i in np.flatnonzero(keys[order][1:] == keys[order][:-1]).tolist():
        u, v = (data[a : a + length] for a in order[i : i + 2].tolist())
        if u != v:
            return u, v
    return None


def test_a_real_collision_changes_no_answer():
    # 31-bit keys: a birthday search among 200 000 blocks finds equal keys of
    # distinct blocks, and the word u.v.u.v... puts such a pair side by side
    found = colliding_blocks(8, 200_000, seed=1)
    assert found is not None, "no colliding pair of blocks"
    u, v = found
    x = PeriodicWord(Word(u + v, 256))
    sym = x.prefix(400).symbols
    ph = PrefixHashes(sym)
    assert ph.block_keys(0, 8) == ph.block_keys(8, 8) and not ph.equal_blocks(0, 8, 8)

    def anti_power(start, k, m):
        return naive_is_k_anti_power(Word(sym[start : start + k * m], 256), k)

    for k in (2, 3, 4):
        lengths = np.arange(1, 400 // k + 1)
        want = [anti_power(0, k, m) for m in lengths.tolist()]
        assert ph.distinct_blocks(0, lengths, k).tolist() == want
        assert ph.distinct_blocks(0, 8, k) is want[7]
        assert ap_set(x, k, 40).members == tuple(m for m in range(1, 41) if want[m - 1])
        assert ap_min(x, k, 40) == next((m for m in range(1, 41) if want[m - 1]), None)
        powers = tuple(m for m in range(1, 41) if naive_is_k_power(Word(sym[: k * m], 256), k))
        assert p_set(x, k, 40).members == powers
        for pos in range(1, 17):
            first = next((e for e in range(1, 21) if anti_power(pos - 1, k, e)), None)
            assert anti_power_at_position(x, k, pos, 20) == first
    assert ph.distinct_blocks(0, 8, 2) is True  # u and v: equal keys, distinct blocks
    assert 8 not in p_set(x, 2, 40).members


def test_one_word_materialized_hashed_and_compared_from_many_threads():
    # prefix copies the symbols out of the table that hashes grows and
    # equal_blocks reads, all on the same word at the same time
    x = FibonacciWord()
    f = FibonacciWord().prefix(80000).symbols

    def work(i):
        n = 200 + 1327 * i
        if i % 3 == 0:
            return x.prefix(n).symbols == f[:n]
        if i % 3 == 1:
            ph = x.hashes(n)
            return len(ph) >= n and ph.block(0, n) == reference_block(f, 0, n)
        m = n // 2
        return x.hashes(n).equal_blocks(0, m, m) == (f[:m] == f[m : 2 * m]) and x.hashes(n).equal_blocks(1, 6, 4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(work, range(60), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
