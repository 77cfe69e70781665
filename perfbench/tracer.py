"""Per-module tracing installed from outside the program.

``Tracer.install`` replaces the package's public functions and methods with
wrappers at every name they are looked up under (``cli`` and ``witness``
bind names with ``from .x import f``, so the defining module alone is not
enough), and ``uninstall`` puts the originals back.  Coarse calls record
spans (name, start, end, parent, job, pass); fine-grained calls only add to
counters and busy time.  Everything stays in memory until the run ends.

Busy time is inclusive; self time subtracts the time of wrapped calls made
inside.  Work counts that the program does not expose are derived from
arguments and results at the boundary, never from program internals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict
from math import comb

LAYERS = ("words", "hashing", "detect", "sets", "scan", "witness", "ramsey", "cli")

# symbols in the generator whose hash table ``bytes_per_symbol`` measures
_MEMORY_PROBE_SYMBOLS = 100_000


def scan_bytes_moved(n: int, k: int, lengths: int) -> int:
    """Bytes the O(k*n^2) numpy passes of find_anti_power_in_word move, from array sizes.

    Per block length ell and offset m*ell: the uint8 match mask, its int64
    cumsum and padded copy, the windowed difference with its comparison,
    and k-m negate-and-AND passes over the position mask.
    """
    total = 0
    for ell in range(1, lengths + 1):
        npos = n - k * ell + 1
        total += 3 * npos  # the position mask, any() and argmax()
        for m in range(1, k):
            size = n - m * ell
            total += 28 * size + 8 + 33 * (size + 1 - ell) + 5 * npos * (k - m)
    return total


class Tracer:
    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = -1
        self.pass_no = 0
        self._frames: list[list] = []
        self._open_spans: list[int] = []
        self._ids = itertools.count()
        self._marks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple] = []

    def reset(self) -> None:
        """Zero the counters for a new pass; spans accumulate across passes."""
        self.count.clear()
        self.busy.clear()
        self.self_time.clear()
        self._marks = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ wrappers

    def _timed(self, name: str, fn, span: bool, after):
        perf = time.perf_counter
        count, busy, self_time, frames = self.count, self.busy, self.self_time, self._frames
        spans, open_spans, ids = self.spans, self._open_spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[name] += 1
            if span:
                sid = next(ids)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frame = [0.0]  # time spent in wrapped calls made inside this one
            frames.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                dt = end - start
                busy[name] += dt
                self_time[name] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if span:
                    open_spans.pop()
                    spans.append((sid, name, start, end, parent, self.job, self.pass_no))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn, after):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, modules, defining: str, attr: str, name: str, *, span=False, after=None, sites=None):
        fn = getattr(modules[defining], attr)
        fn = getattr(fn, "__wrapped__", fn)  # already wrapped at another site
        wrapper = self._timed(name, fn, span, after)
        for site in sites or modules:
            if getattr(modules[site], attr, None) is fn:
                self._patch(modules[site], attr, wrapper)

    def _wrap_method(self, cls, attr: str, name: str, *, timed=True, after=None):
        fn = cls.__dict__[attr]
        wrapper = self._timed(name, fn, False, after) if timed else self._counted(name, fn, after)
        self._patch(cls, attr, wrapper)

    # ------------------------------------------------------------ result hooks

    def _add(self, name: str, value) -> None:
        self.count[name] += value

    def _mark_symbols(self, args, kwargs, result) -> None:
        word, n = args[0], args[1]
        seen = self._marks.get(word, 0)
        if n > seen:
            self._marks[word] = n
            self.count["words.symbols"] += n - seen

    def _scan_work(self, args, kwargs, hit) -> None:
        n, k = len(args[0]), args[1]
        lengths = hit[1] if hit else n // k
        self.count["scan.block_lengths"] += lengths
        self.count["scan.bytes_moved"] += scan_bytes_moved(n, k, lengths)

    def _witness_lengths(self, args, kwargs, res) -> None:
        if hasattr(res, "window_start"):
            scanned = res.window_start - (res.l + 1) * res.M
        else:
            scanned = res.scanned_to - (res.l + 1) * (res.k - 1) * comb(res.k, 2)
        self.count["witness.block_lengths_scanned"] += scanned

    def _confirm(self, args, kwargs, equal) -> None:
        # a != b with equal blocks means both hashes agreed and the symbols were compared
        if equal and args[1] != args[2]:
            self.count["hashing.confirms"] += 1

    # ------------------------------------------------------------ install

    def install(self) -> None:
        pkg = sys.modules["antipower"]
        m = {layer: sys.modules[f"antipower.{layer}"] for layer in LAYERS}
        m["antipower"] = pkg
        words, hashing = m["words"], m["hashing"]
        w = self._wrap

        w(m, "ramsey", "compute_n", "ramsey.search", span=True,
          after=lambda a, kw, r: self._add("ramsey.nodes", r.nodes_explored))
        # the naive oracles the program itself calls, not the ones the gate calls
        w(m, "detect", "naive_has_k_power_factor", "detect.naive", sites=("ramsey",))
        w(m, "detect", "naive_has_k_anti_power_factor", "detect.naive", sites=("ramsey",))
        w(m, "detect", "naive_is_k_anti_power", "detect.naive", sites=("scan",))
        w(m, "detect", "is_k_anti_power", "detect.fast")
        w(m, "detect", "is_k_power", "detect.fast")

        self._wrap_method(words.InfiniteWord, "prefix", "words.prefix", after=self._mark_symbols)
        self._wrap_method(words.InfiniteWord, "hashes", "words.hashes", after=self._mark_symbols)

        self._wrap_method(hashing.PrefixHashes, "extend", "hashing.extend",
                          after=lambda a, kw, r: self._add("hashing.build_symbols", len(a[1])))
        self._wrap_method(hashing.PrefixHashes, "block", "hashing.block", timed=False)
        self._wrap_method(hashing.PrefixHashes, "equal_blocks", "hashing.equal_blocks", timed=False,
                          after=self._confirm)
        self._wrap_method(hashing.PrefixHashes, "symbols", "hashing.symbols", timed=False)

        w(m, "sets", "prefix_is_k_anti_power", "sets.prefix_check", sites=("sets",))
        w(m, "sets", "prefix_is_k_power", "sets.prefix_check", sites=("sets",))
        w(m, "sets", "ap_set", "sets.ap_set", span=True)
        w(m, "sets", "p_set", "sets.p_set", span=True)
        w(m, "sets", "ap_min", "sets.ap_min", span=True)
        w(m, "sets", "density_estimate", "sets.density", span=True)

        w(m, "scan", "find_anti_power_factor", "scan.factor", span=True)
        w(m, "scan", "find_anti_power_in_word", "scan.scan", span=True, after=self._scan_work)
        w(m, "scan", "anti_power_at_position", "scan.position", span=True)
        w(m, "scan", "max_avoiding_extension", "scan.extension", span=True)

        w(m, "witness", "extract_power_witness", "witness.extract", span=True, after=self._witness_lengths)
        w(m, "sets", "prefix_is_k_anti_power", "witness.ap_check", sites=("witness",))
        w(m, "witness", "verify_witness", "witness.verify", sites=("witness",))

        w(m, "cli", "main", "cli.main", span=True)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """Per-layer metrics of the pass since the last reset."""
        c, busy, own = self.count, self.busy, self.self_time
        search_s = busy["ramsey.search"]
        fast_s = busy["detect.fast"]
        lengths = c["witness.block_lengths_scanned"]
        return {
            "ramsey.searches": c["ramsey.search"],
            "ramsey.nodes": c["ramsey.nodes"],
            "ramsey.search_s": search_s,
            "ramsey.nodes_per_s": c["ramsey.nodes"] / search_s if search_s else 0.0,
            "detect.naive_calls": c["detect.naive"],
            "detect.naive_s": busy["detect.naive"],
            "detect.calls": c["detect.fast"],
            "detect.busy_s": fast_s,
            "detect.us_per_call": 1e6 * fast_s / c["detect.fast"] if c["detect.fast"] else 0.0,
            "words.prefix_calls": c["words.prefix"],
            "words.symbols": c["words.symbols"],
            "words.materialize_s": own["words.prefix"] + own["words.hashes"],
            "hashing.build_symbols": c["hashing.build_symbols"],
            "hashing.build_s": busy["hashing.extend"],
            "hashing.block_calls": c["hashing.block"],
            "hashing.equal_blocks_calls": c["hashing.equal_blocks"],
            # each confirmation through symbols() fetches both blocks
            "hashing.confirm_compares": c["hashing.confirms"] + c["hashing.symbols"] // 2,
            "sets.prefix_checks": c["sets.prefix_check"],
            "sets.check_s": busy["sets.prefix_check"],
            "sets.density_s": busy["sets.density"],
            "scan.block_lengths": c["scan.block_lengths"],
            "scan.scan_s": busy["scan.scan"],
            "scan.bytes_moved": c["scan.bytes_moved"],
            "scan.position_calls": c["scan.position"],
            "scan.position_s": busy["scan.position"],
            "scan.extension_s": busy["scan.extension"],
            "witness.calls": c["witness.extract"],
            "witness.block_lengths_scanned": lengths,
            "witness.ap_checks": c["witness.ap_check"],
            "witness.ap_checks_per_length": c["witness.ap_check"] / lengths if lengths else 0.0,
            "witness.busy_s": busy["witness.extract"],
            "witness.verify_s": busy["witness.verify"],
            "cli.calls": c["cli.main"],
            "cli.self_s": own["cli.main"],
        }


def hash_bytes_per_symbol() -> float:
    """Memory held by a generator's prefix-hash table, per symbol covered.

    Measured with tracemalloc around ``InfiniteWord.hashes`` on a fresh
    Thue-Morse word, so it counts the symbol buffer and the hash table.
    """
    words = sys.modules["antipower.words"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = words.ThueMorseWord()
        x.hashes(_MEMORY_PROBE_SYMBOLS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del x
    return held / _MEMORY_PROBE_SYMBOLS
