"""Workload inputs, the timed job runners and the correctness gate.

A job is a plain tuple whose first item names its kind.  ``inputs(name,
seed)`` builds a workload's job list from the seed alone; ``run_job`` does
the timed work and builds every generator fresh, because ``InfiniteWord``
caches its prefix and hash table; ``check_job`` verifies one result outside
the timed region and returns ``None`` or the reason it failed.

Reference values come in three grades, and each check says which it uses:
an independent oracle (the package's ``naive_*`` functions or a
reconstruction from first principles), a value pinned by the acceptance
tests, or a seed output, which only records what the package printed when
this benchmark was written and is not independently checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb, gcd

import antipower
from antipower import cli
from antipower.detect import (
    naive_find_anti_power_factor,
    naive_has_k_anti_power_factor,
    naive_has_k_power_factor,
    naive_is_k_anti_power,
    naive_is_k_power,
)
from antipower.witness import verify_witness

# ---------------------------------------------------------------- inputs

# (l, k, alphabet, length cap)
NSEARCH_TABLE = (
    [(l, k, 2, 64) for l in (3, 4, 5) for k in (3, 4)]
    + [(3, 5, 2, 64), (3, 4, 3, 64), (4, 4, 3, 64), (2, 6, 3, 64), (5, 5, 2, 48), (3, 6, 2, 50)]
)


def _random_word(rng: random.Random, length: int, alphabet: int) -> antipower.Word:
    return antipower.Word(bytes(rng.randrange(alphabet) for _ in range(length)), alphabet)


def _nsearch(rng: random.Random) -> list:
    # the table is fixed; the seed only orders it
    jobs = [("compute_n", *row) for row in NSEARCH_TABLE]
    rng.shuffle(jobs)
    return jobs


def _prefix_sets(rng: random.Random) -> list:
    periodic = "".join(rng.choice("012") for _ in range(7))
    jobs = [
        ("cli", ("ap-table", "thue-morse", "3-200", "--limit", "400")),
        ("cli", ("density", "thue-morse", "--k", "3", "--kind", "ap", "--horizon", "100000")),
        ("cli", ("density", f"periodic:{periodic}", "--k", "10", "--kind", "p", "--horizon", "100000")),
        ("cli", ("witness", "thue-morse", "3", "50", "--budget", "20000")),
        ("cli", ("witness", "fibonacci", "5", "20", "--budget", "20000")),
    ]
    # the distribution of acceptance criterion 7 (binary seeds of length 1..32)
    for _ in range(300):
        jobs.append(("witness", _random_word(rng, rng.randrange(1, 33), 2), 3, 3, 400))
    return jobs


def _factor_scan(rng: random.Random) -> list:
    # certification runs try every block length; the rest stop at the first factor
    jobs = [
        ("scan", "recurrent-avoider", 6, 15625),
        ("scan", "sparse-avoider", 4, 20000),
        ("scan", "thue-morse", 8, rng.randrange(2000, 4001)),
    ]
    for _ in range(2):
        jobs.append(("scan", "fibonacci", rng.randrange(5, 13), rng.randrange(2000, 4001)))
    for _ in range(6):
        alphabet = rng.choice((2, 3))
        word = _random_word(rng, rng.randrange(2000, 4001), alphabet)
        jobs.append(("scan-word", word, rng.randrange(3, 9)))
    return jobs


def _tiny_words(rng: random.Random) -> list:
    jobs = []
    for _ in range(8000):
        jobs.append(("detect", _random_word(rng, rng.randrange(8, 25), rng.choice((2, 3)))))
    for generator in ("thue-morse", "fibonacci"):
        for k in range(2, 9):
            for pos in sorted(rng.sample(range(1, 65), 16)):
                jobs.append(("position", generator, k, pos, 2000))
    for _ in range(300):
        alphabet = rng.choice((2, 3))
        seed = _random_word(rng, rng.randrange(1, 9), alphabet)
        jobs.append(("extension", seed, rng.choice((3, 4)), alphabet, 10))
    return jobs


_JOB_LISTS = {
    "nsearch": _nsearch,
    "prefix-sets": _prefix_sets,
    "factor-scan": _factor_scan,
    "tiny-words": _tiny_words,
}


def inputs(name: str, seed: int) -> list:
    """The workload's job list; the same seed gives the same list."""
    return _JOB_LISTS[name](random.Random(seed))


# ---------------------------------------------------------------- timed work


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_job(job):
    """Do one job's work; this is what the timed region measures."""
    kind = job[0]
    if kind == "compute_n":
        _, l, k, a, cap = job
        return antipower.compute_n(antipower.SearchParams(l=l, k=k, alphabet_size=a, length_cap=cap))
    if kind == "cli":
        return _run_cli(job[1])
    if kind == "witness":
        _, seed, k, l, budget = job
        return antipower.extract_power_witness(antipower.PeriodicWord(seed), k, l, budget=budget)
    if kind == "scan":
        _, generator, k, limit = job
        return antipower.find_anti_power_factor(antipower.parse_generator(generator), k, limit)
    if kind == "scan-word":
        _, word, k = job
        return antipower.find_anti_power_in_word(word, k)
    if kind == "detect":
        w = job[1]
        n = len(w)
        return tuple(
            (k, antipower.is_k_anti_power(w, k), antipower.is_k_power(w, k))
            for k in range(1, n + 1)
            if n % k == 0
        )
    if kind == "position":
        _, generator, k, pos, limit = job
        return antipower.anti_power_at_position(antipower.parse_generator(generator), k, pos, limit)
    if kind == "extension":
        _, seed, k, alphabet, cap = job
        return antipower.max_avoiding_extension(seed, k, alphabet, cap)
    raise ValueError(f"unknown job kind {kind!r}")


def digest(job, result):
    """Canonical form of a result, compared across the passes of one run."""
    if job[0] == "cli":
        rc, out = result
        return rc, _strip_elapsed(out)
    if job[0] == "compute_n":
        return json.dumps(result.to_json(), sort_keys=True)
    return repr(result)


# ---------------------------------------------------------------- references

# pinned by the acceptance tests: Thue-Morse shortest k-anti-power prefix lengths
TM_SHORTEST_ANTI_POWER_PREFIX = {
    3: 15, 4: 20, 5: 25, 6: 30, 7: 77, 8: 88, 9: 99, 10: 110, 11: 121, 12: 132,
    13: 143, 14: 154, 15: 195, 16: 208, 17: 221, 18: 234, 19: 247, 20: 260,
    30: 870, 50: 2450, 100: 9700,
}

# (l, k, alphabet, cap) -> (status, value)
PINNED_N = {
    (3, 3, 2, 64): ("exact", 9),
    (4, 3, 2, 64): ("exact", 12),
}
# seed-only, not independently checked
SEED_N = {
    (3, 4, 2, 64): ("exact", 19),
    (4, 4, 2, 64): ("exact", 24),
    (5, 3, 2, 64): ("exact", 12),
    (5, 4, 2, 64): ("exact", 26),
    (3, 5, 2, 64): ("exact", 41),
    (3, 4, 3, 64): ("exact", 21),
    (4, 4, 3, 64): ("exact", 24),
    (2, 6, 3, 64): ("exact", 35),
    (5, 5, 2, 48): ("lower-bound", 48),
    (3, 6, 2, 50): ("lower-bound", 50),
}

# seed-only, not independently checked: sha256 of the CLI's stdout
SEED_CLI_SHA256 = {
    ("ap-table", "thue-morse", "3-200", "--limit", "400"):
        "dece58e4eb4eb7b53045d596458635e6d94925ef29b503571f977b54f69ae5ef",
    ("density", "thue-morse", "--k", "3", "--kind", "ap", "--horizon", "100000"):
        "d2dfea6ad2150357f0b726a678f6b1847ef950e850f2c2856f172780708428e2",
}

# seed-only, not independently checked: witness envelopes without elapsed_ms
SEED_WITNESS_ENVELOPES = {
    ("witness", "thue-morse", "3", "50", "--budget", "20000"): {
        "command": "witness",
        "params": {"generator": "thue-morse", "k": 3, "l": 50, "budget": 20000},
        "result": {
            "branch": "anti-power-report", "k": 3, "l": 50, "scanned_to": 20000,
            "anti_power_lengths": list(range(307, 331)), "total_found": 19682,
        },
    },
    ("witness", "fibonacci", "5", "20", "--budget", "20000"): {
        "command": "witness",
        "params": {"generator": "fibonacci", "k": 5, "l": 20, "budget": 20000},
        "result": {
            "branch": "anti-power-report", "k": 5, "l": 20, "scanned_to": 20000,
            "anti_power_lengths": list(range(841, 865)), "total_found": 19144,
        },
    },
}

# pinned by the acceptance tests: the avoidance constructions have no such factor
PINNED_SCAN_NONE = {("recurrent-avoider", 6, 15625), ("sparse-avoider", 4, 20000)}


def _strip_elapsed(out: str) -> str:
    if not out.startswith("{"):
        return out
    envelope = json.loads(out)
    envelope.pop("elapsed_ms", None)
    return json.dumps(envelope, sort_keys=True)


# ---------------------------------------------------------------- oracles


def _check_anti_power_lengths(x, k: int, lengths) -> str | None:
    for m in lengths:
        if not naive_is_k_anti_power(x.prefix(k * m), k):
            return f"reported anti-power length m={m} is not one"
    return None


def _check_evidence(x, ev) -> str | None:
    verify_witness(x, ev)  # raises on any false claim
    pos0 = ev.occurrence_position - 1
    if x.prefix(pos0 + ev.l * len(ev.u)).symbols[pos0:] != ev.u.symbols * ev.l:
        return "u**l does not occur at the stated position"
    return None


def _periodic_power_density_csv(seed_text: str, k: int, horizon: int) -> str:
    """Independent reconstruction of ``density periodic:<seed> --kind p`` output.

    With p the primitive period of the seed, the km-prefix is a k-power
    exactly when p divides m: blocks at a multiple of p coincide, and
    otherwise Fine and Wilf give the prefix the period gcd(m, p) < p, which
    the primitive seed rules out once (k-1)m >= p.
    """
    n_seed = len(seed_text)
    p = next(q for q in range(1, n_seed + 1) if n_seed % q == 0 and seed_text == seed_text[:q] * (n_seed // q))
    if k - 1 < p:
        raise ValueError("oracle needs (k-1) >= primitive period")
    lines = [
        "# finite lower-density estimate (not the liminf)",
        f"# generator=periodic:{seed_text} kind=p k={k} horizon={horizon}",
        "n,numerator,denominator",
    ]
    for n in range(1, horizon + 1):
        count = n // p
        g = gcd(count, n) or n
        lines.append(f"{n},{count // g},{n // g}")
    tail_start = -(-horizon // 2)
    low = min(Fraction(n // p, n) for n in range(tail_start, horizon + 1))
    lines.append(f"# min_tail over n in [{tail_start}..{horizon}]: {low.numerator}/{low.denominator}")
    return "\n".join(lines) + "\n"


def _ends_in_anti_power(s: bytes, k: int) -> bool:
    n = len(s)
    return any(
        naive_is_k_anti_power(antipower.Word(s[n - k * b :]), k) for b in range(1, n // k + 1)
    )


def _extension_oracle(seed: bytes, k: int, alphabet: int, cap: int) -> tuple[str, int]:
    """Explicit-stack DFS over right-extensions with naive suffix checks."""
    if seed and _ends_in_anti_power(seed, k):
        return "exhausted", 0
    best = 0
    stack = [(seed, 0)]
    while stack:
        s, depth = stack.pop()
        best = max(best, depth)
        if depth == cap:
            return "open", cap
        for c in reversed(range(alphabet)):
            t = s + bytes((c,))
            if not _ends_in_anti_power(t, k):
                stack.append((t, depth + 1))
    return "exhausted", best


# ---------------------------------------------------------------- the gate


def _check_compute_n(job, out) -> str | None:
    _, l, k, a, cap = job
    want = PINNED_N.get((l, k, a, cap)) or SEED_N[(l, k, a, cap)]
    if (out.status, out.value) != want:
        return f"got {out.status} {out.value}, want {want[0]} {want[1]}"
    w = out.max_avoiding_word
    if len(w) != (out.value - 1 if out.status == "exact" else out.value):
        return f"witness length {len(w)} does not match {out.status} {out.value}"
    if naive_has_k_power_factor(w, l) or naive_has_k_anti_power_factor(w, k):
        return "witness rejected by the naive oracle"
    return None


def _check_cli(job, result) -> str | None:
    argv = job[1]
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    if argv in SEED_CLI_SHA256:
        if hashlib.sha256(out.encode()).hexdigest() != SEED_CLI_SHA256[argv]:
            return "stdout differs from the seed output"
    if argv[0] == "ap-table":
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        for k, length in TM_SHORTEST_ANTI_POWER_PREFIX.items():
            if rows.get(str(k)) != f"{length // k},{length}":
                return f"ap-table row k={k} is {rows.get(str(k))!r}, want length {length}"
        return None
    if argv[0] == "density" and argv[1].startswith("periodic:"):
        k, horizon = int(argv[3]), int(argv[7])
        if out != _periodic_power_density_csv(argv[1].partition(":")[2], k, horizon):
            return "density trace differs from the periodicity oracle"
        return None
    if argv[0] == "witness":
        envelope = json.loads(out)
        envelope.pop("elapsed_ms", None)
        if envelope != SEED_WITNESS_ENVELOPES[argv]:
            return "witness envelope differs from the seed output"
        res = envelope["result"]
        return _check_anti_power_lengths(antipower.parse_generator(argv[1]), res["k"], res["anti_power_lengths"])
    return None


def _check_witness(job, res) -> str | None:
    _, seed, k, l, budget = job
    x = antipower.PeriodicWord(seed)
    if isinstance(res, antipower.WitnessEvidence):
        if not 1 <= len(res.u) <= (k - 1) * comb(k, 2):
            return f"root length {len(res.u)} out of range"
        return _check_evidence(x, res)
    if res.total_found < 1 or res.scanned_to != budget:
        return "anti-power report without confirmed lengths"
    return _check_anti_power_lengths(x, k, res.anti_power_lengths)


def _check_scan(job, hit) -> str | None:
    if job[0] == "scan":
        _, generator, k, limit = job
        if (generator, k, limit) in PINNED_SCAN_NONE:
            return None if hit is None else f"found {hit} in a proven avoider"
        w = antipower.parse_generator(generator).prefix(limit)
    else:
        _, w, k = job
    want = naive_find_anti_power_factor(w, k)
    return None if hit == want else f"got {hit}, naive oracle says {want}"


def _check_detect(job, rows) -> str | None:
    w = job[1]
    want = tuple(
        (k, naive_is_k_anti_power(w, k), naive_is_k_power(w, k))
        for k in range(1, len(w) + 1)
        if len(w) % k == 0
    )
    return None if rows == want else f"detectors disagree with the naive oracles on {w!r}"


def _check_position(job, ell) -> str | None:
    _, generator, k, pos, limit = job
    if ell is None:
        # acceptance: anti-powers of order <= 8 start at every position <= 64
        return "no anti-power found at a position where one is pinned"
    prefix = antipower.parse_generator(generator).prefix(pos - 1 + k * ell).symbols
    for e in range(1, ell + 1):
        factor = antipower.Word(prefix[pos - 1 : pos - 1 + k * e])
        if naive_is_k_anti_power(factor, k):
            return None if e == ell else f"got ell={ell}, naive oracle finds {e}"
    return f"ell={ell} is not an anti-power per the naive oracle"


def _check_extension(job, out) -> str | None:
    _, seed, k, alphabet, cap = job
    want = _extension_oracle(seed.symbols, k, alphabet, cap)
    got = (out.status, out.depth)
    return None if got == want else f"got {got}, oracle says {want}"


_CHECKS = {
    "compute_n": _check_compute_n,
    "cli": _check_cli,
    "witness": _check_witness,
    "scan": _check_scan,
    "scan-word": _check_scan,
    "detect": _check_detect,
    "position": _check_position,
    "extension": _check_extension,
}


def check_job(job, result) -> str | None:
    """None when the result is correct, else the reason it is not."""
    try:
        return _CHECKS[job[0]](job, result)
    except Exception as exc:  # a check that raises is a failed op, not a crash
        return f"check raised {exc!r}"
