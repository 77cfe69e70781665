"""Generators and finite words: fixed expansions plus structural laws."""

import random
import tracemalloc

import pytest

from antipower import (
    FibonacciWord,
    GeneratorConfig,
    LiteralWord,
    MaterializationCapError,
    PeriodicWord,
    RecurrentAvoiderWord,
    SparseAvoiderWord,
    ThueMorseWord,
    Word,
    parse_generator,
)

TM_46 = "0110100110010110100101100110100110010110011010"


def fib_by_morphism(n):
    """Oracle: iterate 0 -> 01, 1 -> 0 until the prefix is long enough."""
    s = "0"
    while len(s) < n:
        s = "".join("01" if c == "0" else "0" for c in s)
    return s[:n]


def test_word_round_trip():
    w = Word.from_text("aabaaabbbaba")
    assert w.alphabet_size == 2
    assert w.to_text() == "001000111010"
    assert Word.from_text("0110").to_text() == "0110"
    assert len(Word.from_text("")) == 0
    with pytest.raises(ValueError):
        Word.from_text("a1")
    with pytest.raises(ValueError):
        Word([3], alphabet_size=2)


def test_word_literals_are_ascii_only():
    assert Word.from_text("0123456789").symbols == bytes(range(10))
    assert Word.from_text("zab").symbols == bytes((25, 0, 1))
    # Arabic-Indic, fullwidth and superscript digits are not word letters
    for text in ("\u0661\u0662", "\uff101", "\u00b2", "0\u0661"):
        with pytest.raises(ValueError, match="cannot parse word literal"):
            Word.from_text(text)


def test_word_rendering_beyond_small_alphabets():
    w = Word(bytes([0, 11, 25]), alphabet_size=26)
    assert w.to_text() == "alz"
    assert w.to_json_value() == [0, 11, 25]
    big = Word(bytes([0, 200]), alphabet_size=256)
    with pytest.raises(ValueError):
        big.to_text()
    assert big.to_json_value() == [0, 200]


def test_to_text_renders_each_symbol():
    rng = random.Random(6)
    for alphabet in range(1, 27):
        w = Word(bytes(rng.randrange(alphabet) for _ in range(500)) + bytes([alphabet - 1]), alphabet)
        chars = "0123456789" if alphabet <= 10 else "abcdefghijklmnopqrstuvwxyz"
        assert w.to_text() == "".join(chars[c] for c in w.symbols), alphabet
        assert Word.from_text(w.to_text()).symbols == w.symbols


def test_to_text_peaks_at_a_few_bytes_per_symbol():
    n = 1_000_000
    w = ThueMorseWord().prefix(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = w.to_text()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(text) == n and set(text) == {"0", "1"}
    assert peak < 4 * n, peak / n


def test_word_slicing_and_concat():
    w = Word.from_text("01101")
    assert w[1] == 1
    assert w[1:4] == Word.from_text("110")
    assert (w[:2] + w[2:]) == w
    assert (Word.from_text("01") * 3).to_text() == "010101"


def test_thue_morse_prefix_known_expansion():
    assert ThueMorseWord().prefix(0).to_text() == ""
    assert ThueMorseWord().prefix(16).to_text() == "0110100110010110"
    assert ThueMorseWord().prefix(46).to_text() == TM_46


def test_thue_morse_recurrence():
    # t(2i) = t(i), t(2i+1) = 1 - t(i), 0-based, against the popcount rule
    t = ThueMorseWord()
    w = t.prefix(2 * 10**4).symbols
    for i in range(10**4):
        assert w[2 * i] == w[i]
        assert w[2 * i + 1] == 1 - w[i]


def test_fibonacci_prefix_matches_morphism_oracle():
    assert FibonacciWord().prefix(1).to_text() == "0"
    assert FibonacciWord().prefix(7).to_text() == "0100101"
    assert FibonacciWord().prefix(13).to_text() == "0100101001001"
    assert FibonacciWord().prefix(500).to_text() == fib_by_morphism(500)


def test_periodic_word():
    x = PeriodicWord(Word.from_text("01"))
    assert x.prefix(5).to_text() == "01010"
    assert x.symbol_at(1) == 0 and x.symbol_at(2) == 1 and x.symbol_at(4) == 1
    with pytest.raises(ValueError):
        PeriodicWord(Word.from_text(""))


def test_sparse_avoider_symbols():
    x = SparseAvoiderWord()
    assert x.symbol_at(1) == 1
    assert x.symbol_at(5) == 1
    assert x.symbol_at(7) == 0
    marks = [n for n in range(1, 700) if x.symbol_at(n)]
    assert marks == [1, 5, 25, 125, 625]
    x = SparseAvoiderWord(GeneratorConfig(alpha1=3, growth=6))
    marks = [n for n in range(1, 700) if x.symbol_at(n)]
    assert marks == [3, 18, 108, 648]


def test_sparse_avoider_ones_count():
    # number of 1s in prefix(n) is floor(log5 n) + 1 under the defaults
    x = SparseAvoiderWord()
    w = x.prefix(10**5).symbols
    ones = 0
    threshold = 1  # next power of 5
    expected = 0
    for n in range(1, 10**5 + 1):
        ones += w[n - 1]
        if n == threshold:
            threshold *= 5
            expected += 1
        assert ones == expected


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(growth=4)
    with pytest.raises(ValueError):
        GeneratorConfig(alpha1=0)


def test_recurrent_avoider_expansions():
    x = RecurrentAvoiderWord()
    assert x.symbol_at(1) == 0
    assert x.prefix(5).to_text() == "01110"
    assert x.prefix(25).to_text() == "01110" + "1" * 15 + "01110"


def test_recurrent_avoider_self_similar_structure():
    # prefix(5^n) = prefix(5^(n-1)) . 1^(3*5^(n-1)) . prefix(5^(n-1)) for n = 1..7
    x = RecurrentAvoiderWord()
    whole = x.prefix(5**7).symbols
    for n in range(1, 8):
        p = whole[: 5 ** (n - 1)]
        assert whole[: 5**n] == p + b"\x01" * (3 * 5 ** (n - 1)) + p


def test_literal_word():
    x = LiteralWord(Word.from_text("0"), Word.from_text("1"))
    assert x.prefix(6).to_text() == "011111"
    x = LiteralWord(Word.from_text(""), Word.from_text("10"))
    assert x.prefix(5).to_text() == "10101"
    with pytest.raises(ValueError):
        LiteralWord(Word.from_text("0"), Word.from_text(""))


def test_generators_over_large_alphabets():
    # generator names spell words over more than 26 letters as comma-separated integers
    x = PeriodicWord(Word(bytes([30, 1]), 31))
    assert x.name == "periodic:30,1"
    assert list(x.prefix(5)) == [30, 1, 30, 1, 30]
    head, tail = bytes([200, 7, 7]), bytes([0, 255, 31])
    y = LiteralWord(Word(head, 256), Word(tail, 256))
    assert y.name == "literal:200,7,7:0,255,31"
    # grown in uneven steps, so each step starts inside the head or at another tail offset
    for n in (1, 2, 4, 5, 9, 10, 31, 100):
        assert y.prefix(n).symbols == (head + tail * n)[:n]


@pytest.mark.parametrize(
    "spec",
    ["thue-morse", "fibonacci", "periodic:01", "sparse-avoider", "recurrent-avoider", "literal:0:1"],
)
def test_determinism_across_instances(spec):
    a = parse_generator(spec)
    b = parse_generator(spec)
    n = 10**5
    assert a.prefix(n) == b.prefix(n)


@pytest.mark.parametrize(
    "spec",
    ["thue-morse", "fibonacci", "periodic:011", "sparse-avoider", "recurrent-avoider"],
)
def test_prefix_consistency(spec):
    x = parse_generator(spec)
    long = x.prefix(2048).symbols
    for n in (0, 1, 7, 100, 777, 2047):
        assert x.prefix(n).symbols == long[:n]


def test_symbol_at_agrees_with_prefix():
    specs = ("thue-morse", "fibonacci", "sparse-avoider", "recurrent-avoider", "periodic:011", "literal:0110:01")
    for spec in specs:
        x = parse_generator(spec)
        w = x.prefix(200).symbols
        assert all(x.symbol_at(n) == w[n - 1] for n in range(1, 201))


def zeckendorf_fibonacci_at(n):
    # 1 exactly where the Zeckendorf representation of n - 1 ends in the part 1
    fibs = [1, 2]
    while fibs[-1] <= n - 1:
        fibs.append(fibs[-1] + fibs[-2])
    rest, smallest = n - 1, 0
    for f in reversed(fibs):
        if f <= rest:
            rest, smallest = rest - f, f
    return int(smallest == 1)


def test_fibonacci_symbol_at_is_closed_form():
    x = FibonacciWord()
    w = x.prefix(10**5).symbols
    assert all(x.symbol_at(n) == w[n - 1] for n in range(1, 10**5 + 1))
    # far past the cap, nothing is materialized and no buffer grows
    capped = FibonacciWord(cap=100)
    for n in (10**12, 10**12 + 1, 10**18 + 7):
        assert capped.symbol_at(n) == zeckendorf_fibonacci_at(n), n
    assert len(capped._hashes) == 0
    with pytest.raises(ValueError):
        capped.symbol_at(0)


def test_materialization_cap():
    x = ThueMorseWord(cap=100)
    assert len(x.prefix(100)) == 100
    with pytest.raises(MaterializationCapError):
        x.prefix(101)
    # a bigger cap on a fresh generator unlocks the same prefix
    assert ThueMorseWord(cap=200).prefix(101).symbols[:100] == x.prefix(100).symbols


def test_parse_generator_rejects_unknown():
    with pytest.raises(ValueError):
        parse_generator("bogus")
    with pytest.raises(ValueError):
        parse_generator("literal:01")  # needs head:tail
    assert parse_generator("sparse-avoider:2:7").name == "sparse-avoider:2:7"


def thue_morse_at(n):
    return (n - 1).bit_count() & 1


def recurrent_avoider_at(n):
    # 0 exactly where every base-5 digit of n - 1 is 0 or 4
    i = n - 1
    while i:
        if i % 5 in (1, 2, 3):
            return 1
        i //= 5
    return 0


def sparse_avoider_at(n, alpha1=1, growth=5):
    return int(any(n == alpha1 * growth**i for i in range(64)))


@pytest.mark.parametrize(
    "make,at",
    [
        (ThueMorseWord, thue_morse_at),
        (RecurrentAvoiderWord, recurrent_avoider_at),
        (SparseAvoiderWord, sparse_avoider_at),
        (lambda: SparseAvoiderWord(GeneratorConfig(alpha1=3, growth=6)), lambda n: sparse_avoider_at(n, 3, 6)),
    ],
)
def test_bulk_generation_matches_per_position_definitions(make, at):
    x = make()
    # uneven steps, so prefixes end just before, on and just after 2^j and 5^j seams
    seams = sorted({s + d for j in range(1, 14) for s in (2**j, 5 ** (j // 2 + 1)) for d in (-1, 0, 1)})
    ends = sorted({n for n in seams if n <= 20_000} | {3, 7, 12_000, 20_000})
    grown = b"".join(x.prefix(b).symbols[a:] for a, b in zip([0] + ends, ends))
    assert grown == bytes(at(n) for n in range(1, 20_001))
    positions = [2**j + d for j in range(40) for d in (-1, 0, 1)] + [5**j + d for j in range(18) for d in (-1, 0, 1)]
    positions += [3 * 6**j for j in range(16)] + [10**12, 10**12 - 1]
    rng = random.Random(5)
    positions += [rng.randrange(1, 10**12) for _ in range(100)]
    for n in (n for n in positions if 1 <= n <= 10**12):
        assert x.symbol_at(n) == at(n), n
