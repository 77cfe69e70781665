"""Constructive extraction of arbitrarily repeated factors, or anti-power evidence.

For an infinite word x, order k >= 2 and exponent l >= 1, the extractor
scans the block lengths with the prefix sets' loop (``sets._scan_lengths``)
for a run of C(k,2)+1 lengths none of which gives an anti-power prefix.
Inside such a window, pigeonhole over the first k blocks at each radius
yields two radii r < s sharing an equal pair (i, j); from the overlap of
those equal blocks a border is peeled (``root_power_from_border``) and a
root u with u**l a factor of x drops out.  When every scanned window is
blocked by an anti-power index, the anti-power half of the dichotomy is
certified instead, by listing confirmed anti-power prefix lengths.  Every
claimed equality is re-verified against x by direct symbol comparison
before a result is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .detect import LengthDeficit, root_power_from_border
from .sets import _scan_lengths, prefix_is_k_anti_power
from .words import InfiniteWord, Word

DEFAULT_BUDGET = 100_000
_REPORT_SAMPLE = 24


class BudgetExhaustedError(RuntimeError):
    """The scan budget admits no candidate window at all (budget <= (l+1)*M)."""


class WitnessVerificationError(RuntimeError):
    """A claimed block equality or occurrence failed direct re-verification."""


@dataclass(frozen=True)
class WitnessEvidence:
    """A root u with u**l occurring in x, plus the pigeonhole indices behind it."""

    u: Word
    l: int
    k: int
    M: int
    r: int
    s: int
    i: int
    j: int
    window_start: int
    occurrence_position: int

    def to_json(self) -> dict:
        return {
            "u": self.u.to_json_value(),
            "l": self.l,
            "k": self.k,
            "M": self.M,
            "r": self.r,
            "s": self.s,
            "i": self.i,
            "j": self.j,
            "position": self.occurrence_position,
        }


@dataclass(frozen=True)
class AntiPowerReport:
    """Anti-power half of the dichotomy: confirmed k-anti-power prefix lengths.

    ``anti_power_lengths`` holds the smallest confirmed lengths (at most a
    fixed sample), ``total_found`` how many the scan confirmed overall.
    """

    k: int
    l: int
    scanned_to: int
    anti_power_lengths: tuple[int, ...]
    total_found: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "scanned_to": self.scanned_to,
            "anti_power_lengths": list(self.anti_power_lengths),
            "total_found": self.total_found,
        }


def verify_witness(x: InfiniteWord, ev: WitnessEvidence) -> None:
    """Re-verify every claim in the evidence by direct symbol comparison."""
    c = comb(ev.k, 2)
    if not (ev.M == (ev.k - 1) * c and 1 <= len(ev.u) <= ev.M):
        raise WitnessVerificationError("root length outside 1..M")
    if not (ev.window_start <= ev.r < ev.s <= ev.window_start + c):
        raise WitnessVerificationError("radii outside the window")
    if not 0 <= ev.i < ev.j <= ev.k - 1:
        raise WitnessVerificationError("block rows out of order")
    if len(ev.u) != (ev.j - ev.i) * (ev.s - ev.r):
        raise WitnessVerificationError("root length does not match (j-i)(s-r)")
    prefix = x.prefix(ev.k * ev.s).symbols
    for radius in (ev.r, ev.s):
        left = prefix[ev.i * radius : (ev.i + 1) * radius]
        right = prefix[ev.j * radius : (ev.j + 1) * radius]
        if left != right:
            raise WitnessVerificationError(f"blocks ({ev.i},{ev.j}) differ at radius {radius}")
    w = prefix[ev.i * ev.s : (ev.i + 1) * ev.r]
    v = prefix[ev.j * ev.s : (ev.j + 1) * ev.r]
    if not (0 < len(v) < len(w)):
        raise WitnessVerificationError("degenerate overlap blocks")
    if not (w.startswith(v) and w.endswith(v)):
        raise WitnessVerificationError("v is not a border of w")
    if w[: len(ev.u)] != ev.u.symbols:
        raise WitnessVerificationError("u is not the border complement of w")
    pos0 = ev.occurrence_position - 1
    need = pos0 + ev.l * len(ev.u)
    if x.prefix(need).symbols[pos0:] != ev.u.symbols * ev.l:
        raise WitnessVerificationError("u**l does not occur at the stated position")


def _extract_from_window(x: InfiniteWord, k: int, l: int, m: int) -> WitnessEvidence:
    c = comb(k, 2)
    M = (k - 1) * c
    ph = x.hashes(k * (m + c))
    pairs = [(i, j) for i in range(k - 1) for j in range(i + 1, k)]  # lex order
    pair_at: dict[tuple[int, int], int] = {}
    for s in range(m, m + c + 1):
        pair = next((p for p in pairs if ph.equal_blocks(p[0] * s, p[1] * s, s)), None)
        if pair is None:
            raise AssertionError(f"radius {s} escaped the window: prefix is an anti-power")
        if pair in pair_at:
            break
        pair_at[pair] = s
    else:
        raise AssertionError("pigeonhole failed over the window")
    (i, j), r = pair, pair_at[pair]
    # the proof's overlap inequalities, asserted rather than assumed
    if not ((i + 1) * r > i * s + 1 and (j + 1) * r > j * s + 1):
        raise AssertionError("overlap inequalities violated")
    prefix = x.prefix(k * s).symbols
    w = prefix[i * s : (i + 1) * r]
    v = prefix[j * s : (j + 1) * r]
    # m > (l+1)M gives |w| > l*M >= l*|u|, so the peel cannot fall short
    u = root_power_from_border(Word(w, x.alphabet_size), len(v), l)
    if isinstance(u, LengthDeficit):
        raise AssertionError("root power does not fit inside the overlap block")
    ev = WitnessEvidence(
        u=u,
        l=l,
        k=k,
        M=M,
        r=r,
        s=s,
        i=i,
        j=j,
        window_start=m,
        occurrence_position=i * s + 1,
    )
    verify_witness(x, ev)
    return ev


def extract_power_witness(
    x: InfiniteWord, k: int, l: int, budget: int = DEFAULT_BUDGET
) -> WitnessEvidence | AntiPowerReport:
    """One certified branch of the power/anti-power dichotomy for x.

    Scans window starts m = (l+1)M + 1 .. budget in one forward pass over
    the block lengths.  The first window {m, ..., m + C(k,2)} free of
    anti-power indexes yields a WitnessEvidence with u**l a factor of x.
    If every scanned window is blocked, the pass ends at the first
    anti-power length >= budget and the confirmed anti-power prefix lengths
    are reported instead.
    """
    if k < 2 or l < 1:
        raise ValueError("need k >= 2 and l >= 1")
    c = comb(k, 2)
    M = (k - 1) * c
    n_threshold = (l + 1) * M
    if budget <= n_threshold:
        raise BudgetExhaustedError(
            f"budget {budget} leaves no block length above (l+1)*M = {n_threshold} to scan"
        )
    sample: list[int] = []  # the first _REPORT_SAMPLE anti-power lengths
    total = 0  # anti-power lengths found
    run = 0  # consecutive non-anti-power lengths ending at m
    for m, anti_power in _scan_lengths(x, k, 0, n_threshold + 1, budget + c, prefix_is_k_anti_power):
        if anti_power:
            total += 1
            if len(sample) < _REPORT_SAMPLE:
                sample.append(m)
            if m >= budget:  # it blocks every window left to scan
                break
            run = 0
        else:
            run += 1
            if run > c:  # lengths m - c .. m are a window free of anti-powers
                return _extract_from_window(x, k, l, m - c)
    return AntiPowerReport(
        k=k,
        l=l,
        scanned_to=budget,
        anti_power_lengths=tuple(sample),
        total_found=total,
    )
