"""Finite words and lazy infinite-word generators.

Symbols are small non-negative integers (letter indexes below the alphabet
size).  Infinite words are 1-based: x = x_1 x_2 x_3 ...  Each generator's
one hook ``_bulk(lo, hi)`` is a pure function of the positions; it serves
``symbol_at(n)`` as ``_bulk(n, n)`` and prefix materialization, which
caches symbols internally but is observationally pure.  Fibonacci's
``_bulk`` builds the whole word up to hi afresh on each call, so its
``symbol_at`` is a closed form instead.  Thue-Morse and the recurrent
avoider join whole aligned runs chosen by the digits of each run's index:
c symbols peak at 5c bytes, the result included (tracemalloc).

Ultimately periodic words head . tail^omega, the shape of every word that
avoids 3-anti-powers, come from one generator, ``LiteralWord``, which tiles
the tail in bulk; ``PeriodicWord`` is the case with an empty head.

Memory: a word keeps its materialized symbols once, in its prefix-hash
table, and ``prefix`` copies them out of it, so every materialized symbol
is hashed.  That costs ~5 bytes per symbol (the symbol and its 4-byte
hash; tracemalloc, Thue-Morse and Fibonacci), and the table's own power
table stays under 10 KB.  A word hashed to DEFAULT_CAP holds ~51 MB, with
a peak RSS of ~100 MB, all freed with the word; ``prefix(DEFAULT_CAP)``
alone takes ~0.4 s and the same ~100 MB.
"""

from __future__ import annotations

import string
import threading
from dataclasses import dataclass
from math import isqrt
from typing import Iterable

from .hashing import PrefixHashes

DEFAULT_CAP = 10_000_000

_LETTERS = string.ascii_lowercase

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# symbol -> ASCII character, for Word.to_text
_DIGITS = bytes.maketrans(bytes(range(10)), string.digits.encode())
_ALPHA = bytes.maketrans(bytes(range(26)), _LETTERS.encode())


class MaterializationCapError(RuntimeError):
    """Asked to materialize more symbols than the configured cap allows.

    The cap guards against accidental unbounded generation; callers that
    really need a longer prefix must construct the word with a larger cap.
    """


class Word:
    """Immutable finite word over an integer alphabet.

    Stored as one byte per symbol, which bounds alphabet sizes at 256 (every
    construction in this package is binary or ternary).  Treat instances as
    immutable; equality and hashing look only at the symbol sequence.
    """

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols: Iterable[int] = b"", alphabet_size: int | None = None) -> None:
        data = bytes(symbols)
        if alphabet_size is None:
            alphabet_size = (max(data) + 1) if data else 1
        if not 1 <= alphabet_size <= 256:
            raise ValueError(f"alphabet_size must be in 1..256, got {alphabet_size}")
        if data and max(data) >= alphabet_size:
            raise ValueError("symbol value out of alphabet range")
        self.symbols = data
        self.alphabet_size = alphabet_size

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse an ASCII rendering: digits 0-9 map to 0-9, letters a-z to 0-25."""
        if any(c.isalpha() for c in text):
            if not all(c in _LETTERS for c in text):
                raise ValueError(f"cannot parse word literal {text!r}")
            values = bytes(_LETTERS.index(c) for c in text)
        elif all(c in string.digits for c in text):
            values = bytes(int(c) for c in text)
        else:
            raise ValueError(f"cannot parse word literal {text!r}")
        return cls(values)

    def to_text(self) -> str:
        """ASCII rendering: digits for alphabets up to 10, letters up to 26."""
        if self.alphabet_size > 26:
            raise ValueError("no ASCII rendering for alphabets larger than 26; serialize as integers")
        table = _DIGITS if self.alphabet_size <= 10 else _ALPHA
        return self.symbols.translate(table).decode("ascii")

    def to_json_value(self):
        """JSON form: ASCII string for small alphabets, list of ints otherwise."""
        if self.alphabet_size <= 10:
            return self.to_text()
        return list(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.symbols[index], self.alphabet_size)
        return self.symbols[index]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols, max(self.alphabet_size, other.alphabet_size))

    def __mul__(self, times: int) -> "Word":
        return Word(self.symbols * times, self.alphabet_size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        try:
            return f"Word({self.to_text()!r})"
        except ValueError:
            return f"Word({list(self.symbols)!r})"


def _label(w: Word) -> str:
    """A word as generator names spell it: ASCII for alphabets up to 26, else comma-separated integers."""
    return w.to_text() if w.alphabet_size <= 26 else ",".join(map(str, w.symbols))


class InfiniteWord:
    """Deterministic indexable symbol source with cached prefix materialization.

    Subclasses implement ``_bulk(lo, hi)``: the symbols at positions lo..hi
    inclusive, 1 <= lo <= hi.  ``prefix`` and ``hashes`` share one cache,
    the word's prefix-hash table; repeated calls agree on the common prefix,
    and caching is invisible to callers (safe under concurrency).
    """

    alphabet_size = 2
    name = "?"

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        self.cap = int(cap)
        self._hashes = PrefixHashes()  # the one store of the materialized symbols
        self._lock = threading.Lock()  # taken before the table's own lock

    def symbol_at(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions are 1-based")
        return self._bulk(n, n)[0]

    def _ensure(self, n: int) -> None:
        """Grow the table to n symbols or more: at least doubled, so one extend per doubling, never past the cap."""
        if n > self.cap:
            raise MaterializationCapError(
                f"{self.name}: prefix of length {n} exceeds the materialization cap {self.cap}; "
                "construct the generator with a larger cap to proceed"
            )
        with self._lock:
            have = len(self._hashes)
            if have < n:
                self._hashes.extend(self._bulk(have + 1, min(self.cap, max(n, 2 * have))))

    def prefix(self, n: int) -> Word:
        """The first n symbols as a finite word."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        self._ensure(n)
        return Word(self._hashes.head(n), self.alphabet_size)

    def hashes(self, n: int) -> PrefixHashes:
        """Shared prefix-hash table covering at least the first n symbols."""
        self._ensure(n)
        return self._hashes

    def __repr__(self) -> str:
        return f"<InfiniteWord {self.name}>"


def _aligned_runs(lo: int, hi: int, size: int, run) -> bytes:
    """Positions lo..hi of the word whose aligned run of ``size`` symbols with index q is run(q)."""
    first = (lo - 1) // size
    out = b"".join(map(run, range(first, (hi - 1) // size + 1)))
    start = lo - 1 - first * size
    return out[start : start + hi - lo + 1]


class ThueMorseWord(InfiniteWord):
    """t = 0110100110010110...; symbol n is the bit-parity of n - 1."""

    name = "thue-morse"

    def _bulk(self, lo: int, hi: int) -> bytes:
        # the aligned run of 2^j symbols with index q is t_1..t_{2^j}, complemented when q has odd bit parity
        run = b"\x00"
        while 2 * len(run) <= hi - lo + 1:
            run += run.translate(_FLIP)
        runs = (run, run.translate(_FLIP))
        return _aligned_runs(lo, hi, len(run), lambda q: runs[q.bit_count() & 1])


class FibonacciWord(InfiniteWord):
    """Fixed point of the morphism 0 -> 01, 1 -> 0, starting 0100101001001..."""

    name = "fibonacci"

    def _bulk(self, lo: int, hi: int) -> bytes:
        # S_{m+1} = S_m + S_{m-1}; every S_m is a prefix of the fixed point
        prev, cur = b"\x00", b"\x00\x01"
        while len(cur) < hi:
            prev, cur = cur, cur + prev
        return cur[lo - 1 : hi]

    def symbol_at(self, n: int) -> int:
        """Symbol n is 2 + floor(n phi) - floor((n + 1) phi): no buffer grows, whatever n."""
        if n < 1:
            raise ValueError("positions are 1-based")
        return 2 + _floor_phi(n) - _floor_phi(n + 1)


def _floor_phi(n: int) -> int:
    """floor(n * (1 + sqrt 5) / 2) in exact integers."""
    return (n + isqrt(5 * n * n)) // 2


@dataclass(frozen=True)
class GeneratorConfig:
    """Closed-form marker positions a_i = alpha1 * growth**(i-1).

    growth >= 5 keeps consecutive markers at least a factor of five apart,
    which is what the sparse avoider's 4-anti-power-freeness rests on.
    """

    alpha1: int = 1
    growth: int = 5

    def __post_init__(self) -> None:
        if self.alpha1 < 1:
            raise ValueError("alpha1 must be >= 1")
        if self.growth < 5:
            raise ValueError("growth must be >= 5")


class SparseAvoiderWord(InfiniteWord):
    """1 exactly at the marker positions of a fast-growing geometric sequence.

    Aperiodic, and free of 4-anti-power factors.  A range is zeros with the
    markers inside it set, O(log n) work beyond the range itself.
    """

    def __init__(self, config: GeneratorConfig | None = None, cap: int = DEFAULT_CAP) -> None:
        super().__init__(cap)
        self.config = config or GeneratorConfig()
        if self.config == GeneratorConfig():
            self.name = "sparse-avoider"
        else:
            self.name = f"sparse-avoider:{self.config.alpha1}:{self.config.growth}"

    def _bulk(self, lo: int, hi: int) -> bytes:
        out = bytearray(hi - lo + 1)
        marker = self.config.alpha1
        while marker <= hi:
            if marker >= lo:
                out[marker - lo] = 1
            marker *= self.config.growth
        return bytes(out)


def _digits_0_or_4(q: int) -> bool:
    while q and q % 5 in (0, 4):
        q //= 5
    return not q


class RecurrentAvoiderWord(InfiniteWord):
    """Limit of w_0 = 0, w_m = w_{m-1} 1^{3*5^(m-1)} w_{m-1}.

    Recurrent, aperiodic, and free of 6-anti-power factors; |w_m| = 5^m.
    """

    name = "recurrent-avoider"

    def _bulk(self, lo: int, hi: int) -> bytes:
        # the aligned run of 5^j symbols with index q is w_j when every base-5 digit of q is 0 or 4, else all 1s
        w = b"\x00"
        while 5 * len(w) <= hi - lo + 1:
            w += b"\x01" * (3 * len(w)) + w
        ones = b"\x01" * len(w)
        return _aligned_runs(lo, hi, len(w), lambda q: w if _digits_0_or_4(q) else ones)


class LiteralWord(InfiniteWord):
    """Finite head followed by a repeated tail: head . tail^omega."""

    def __init__(self, head: Word, tail: Word, cap: int = DEFAULT_CAP) -> None:
        if len(tail) == 0:
            raise ValueError("literal tail must be non-empty")
        super().__init__(cap)
        self.head = head
        self.tail = tail
        self.alphabet_size = max(head.alphabet_size, tail.alphabet_size)
        self.name = f"literal:{_label(head)}:{_label(tail)}"

    def _bulk(self, lo: int, hi: int) -> bytes:
        head, tail = self.head.symbols, self.tail.symbols
        first = max(lo, len(head) + 1)  # first position in the tail part
        count = max(0, hi - first + 1)
        start = (first - len(head) - 1) % len(tail)
        tiled = tail * (count // len(tail) + 2)
        return head[lo - 1 : hi] + tiled[start : start + count]


class PeriodicWord(LiteralWord):
    """seed repeated forever: x_n = seed[(n - 1) mod |seed|], a literal word with an empty head."""

    def __init__(self, seed: Word, cap: int = DEFAULT_CAP) -> None:
        if len(seed) == 0:
            raise ValueError("periodic seed must be non-empty")
        super().__init__(Word(), seed, cap)
        self.seed = seed
        self.name = f"periodic:{_label(seed)}"


def parse_generator(text: str, cap: int = DEFAULT_CAP) -> InfiniteWord:
    """Build a generator from its command-line name.

    Recognized: thue-morse, fibonacci, periodic:<seed>, sparse-avoider
    (optionally sparse-avoider:<alpha1>:<growth>), recurrent-avoider, and
    literal:<head>:<tail> for an ultimately periodic word head.tail^omega
    (the head may be empty).
    """
    name, _, arg = text.partition(":")
    if name == "thue-morse":
        word = ThueMorseWord(cap)
    elif name == "fibonacci":
        word = FibonacciWord(cap)
    elif name == "periodic":
        word = PeriodicWord(Word.from_text(arg), cap)
    elif name == "sparse-avoider":
        if arg:
            a1_text, sep, g_text = arg.partition(":")
            if not sep:
                raise ValueError("sparse-avoider takes two arguments: <alpha1>:<growth>")
            config = GeneratorConfig(int(a1_text), int(g_text))
        else:
            config = None
        word = SparseAvoiderWord(config, cap)
    elif name == "recurrent-avoider":
        word = RecurrentAvoiderWord(cap)
    elif name == "literal":
        head_text, sep, tail_text = arg.partition(":")
        if not sep:
            raise ValueError("literal generator takes <head>:<tail> (head may be empty)")
        word = LiteralWord(Word.from_text(head_text), Word.from_text(tail_text), cap)
    else:
        raise ValueError(f"unknown generator {text!r}")
    return word
