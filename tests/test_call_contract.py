"""The calls that the hashing and word layers receive from the set, scan and witness code.

``PrefixHashes.equal_blocks`` gets three plain ints and returns a bool;
``PrefixHashes.extend`` gets one positional buffer of symbols; and
``InfiniteWord.prefix`` and ``InfiniteWord.hashes`` get one plain int.  A
numpy scalar or array slipping through would still compute the right
answers, but code that wraps these methods and does scalar work on their
arguments (for instance a profiler's hooks) would then break.
"""

from collections import Counter

import pytest

from antipower import (
    FibonacciWord,
    PeriodicWord,
    ThueMorseWord,
    Word,
    anti_power_at_position,
    ap_min,
    ap_set,
    extract_power_witness,
    p_set,
)
from antipower.hashing import PrefixHashes
from antipower.words import InfiniteWord


def _plain_ints(name, args, kwargs, count):
    assert not kwargs, f"{name} got keyword arguments {kwargs}"
    assert len(args) == count, f"{name} got {len(args)} positional arguments"
    for a in args:
        assert type(a) is int, f"{name} got {type(a).__name__} {a!r}, not a plain int"


@pytest.fixture
def calls(monkeypatch):
    seen = Counter()
    equal_blocks, extend = PrefixHashes.equal_blocks, PrefixHashes.extend
    prefix, hashes = InfiniteWord.prefix, InfiniteWord.hashes

    def checked_equal_blocks(self, *args, **kwargs):
        _plain_ints("equal_blocks", args, kwargs, 3)
        seen["equal_blocks"] += 1
        result = equal_blocks(self, *args)
        assert type(result) is bool, f"equal_blocks returned {type(result).__name__}"
        return result

    def checked_extend(self, *args, **kwargs):
        assert not kwargs and len(args) == 1, "extend takes one positional buffer"
        assert isinstance(args[0], (bytes, bytearray)), f"extend got {type(args[0]).__name__}"
        seen["extend"] += 1
        return extend(self, *args)

    def checked(name, method):
        def wrapper(self, *args, **kwargs):
            _plain_ints(name, args, kwargs, 1)
            seen[name] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(PrefixHashes, "equal_blocks", checked_equal_blocks)
    monkeypatch.setattr(PrefixHashes, "extend", checked_extend)
    monkeypatch.setattr(InfiniteWord, "prefix", checked("prefix", prefix))
    monkeypatch.setattr(InfiniteWord, "hashes", checked("hashes", hashes))
    return seen


WORDS = (ThueMorseWord, FibonacciWord, lambda: PeriodicWord(Word.from_text("001")))


def test_prefix_position_and_witness_scans_call_with_plain_ints(calls):
    for make in WORDS:
        for k in (2, 3, 5):
            ap_set(make(), k, 300)
            p_set(make(), k, 300)
            ap_min(make(), k, 200)
            for pos in (1, 4, 9):
                anti_power_at_position(make(), k, pos, 200)
        for k, l, budget in ((3, 2, 400), (3, 50, 2000), (4, 2, 600)):
            extract_power_witness(make(), k, l, budget)  # the periodic word gives evidence
    assert min(calls[name] for name in ("equal_blocks", "extend", "prefix", "hashes")) > 0, calls
