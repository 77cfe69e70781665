"""Command-line front end.

Subcommands cover generation, the shortest-anti-power-prefix table, factor
checks and scans, the N(l, k) search, witness extraction, and density
traces.  JSON output is wrapped in a {command, params, result}
envelope; CSV and text modes emit the bare payload so tables can be diffed
against golden rows directly.  Every output is a function of the arguments
alone: identical invocations print identical bytes.

Exit codes: 0 holds/found/exact, 1 negative-but-valid (fails, not-found,
lower bound only), 2 usage or parse error, 3 materialization cap exceeded,
4 witness scan budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .detect import is_k_anti_power, is_k_power
from .ramsey import EXACT, SearchParams, compute_n
from .scan import find_anti_power_factor, find_anti_power_in_word
from .sets import ap_min, ap_set, density_estimate, p_set
from .witness import BudgetExhaustedError, WitnessEvidence, extract_power_witness
from .words import DEFAULT_CAP, MaterializationCapError, Word, parse_generator

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BUDGET = 4


def _envelope(command: str, params: dict, result) -> str:
    return json.dumps({"command": command, "params": params, "result": result})


def _parse_orders(text: str) -> list[int]:
    """Parse "3-6,30" into [3, 4, 5, 6, 30]."""
    orders: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            orders.extend(range(int(lo), int(hi) + 1))
        else:
            orders.append(int(part))
    if not orders:
        raise ValueError("empty order list")
    return orders


def _cmd_generate(args) -> int:
    x = parse_generator(args.generator, cap=args.cap)
    if args.length < 0:
        raise ValueError("length must be non-negative")
    w = x.prefix(args.length)
    if args.format == "json":
        result = {"generator": x.name, "length": args.length, "word": w.to_json_value()}
        print(_envelope("generate", {"generator": x.name, "length": args.length}, result))
    else:
        print(w.to_text())
    return EXIT_OK


def _cmd_ap_table(args) -> int:
    x = parse_generator(args.generator, cap=args.cap)
    orders = _parse_orders(args.orders)
    if any(k < 2 for k in orders):
        raise ValueError("anti-power orders must be >= 2")
    rows = [(k, ap_min(x, k, args.limit)) for k in orders]
    if args.format == "json":
        result = {
            "generator": x.name,
            "limit": args.limit,
            "rows": [
                {"k": k, "m": m, "length": None if m is None else k * m} for k, m in rows
            ],
        }
        print(_envelope("ap-table", {"generator": x.name, "orders": args.orders}, result))
    else:
        print("k,m,length")
        for k, m in rows:
            print(f"{k},," if m is None else f"{k},{m},{k * m}")
    return EXIT_OK


def _finite_literal(target: str) -> Word | None:
    """The finite word of a literal:<ascii> target, or None for a generator name."""
    name, _, text = target.partition(":")
    if name == "literal" and ":" not in text:
        return Word.from_text(text)
    return None


def _check_target_word(args) -> Word:
    """Resolve the finite word a non-scan check applies to."""
    w = _finite_literal(args.target)
    if w is not None:
        return w
    x = parse_generator(args.target, cap=args.cap)
    if args.length is None:
        raise ValueError("checking a generator needs --length for the prefix to test")
    return x.prefix(args.length)


def _cmd_check(args) -> int:
    k = args.k
    if k < 1:
        raise ValueError("k must be >= 1")
    if args.mode == "scan":
        if args.limit is not None and args.limit < 1:
            raise ValueError("scan bound must be positive")
        w = _finite_literal(args.target)
        if w is not None:
            if args.limit is not None:
                w = w[: args.limit]
            hit = find_anti_power_in_word(w, k)
        else:
            x = parse_generator(args.target, cap=args.cap)
            if args.limit is None:
                raise ValueError("scanning a generator needs --limit for the prefix length")
            hit = find_anti_power_factor(x, k, args.limit)
        if args.format == "json":
            result = {"verdict": "found" if hit else "not-found"}
            if hit:
                result["position"], result["block_length"] = hit
            print(_envelope("check", {"target": args.target, "k": k, "mode": args.mode}, result))
        elif hit:
            print(f"found position={hit[0]} block_length={hit[1]}")
        else:
            print("not-found")
        return EXIT_OK if hit else EXIT_NEGATIVE

    w = _check_target_word(args)
    verdict = is_k_anti_power(w, k) if args.mode == "anti-power" else is_k_power(w, k)
    if args.format == "json":
        result = {"verdict": "holds" if verdict else "fails"}
        print(_envelope("check", {"target": args.target, "k": k, "mode": args.mode}, result))
    else:
        print("holds" if verdict else "fails")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_search_n(args) -> int:
    params = SearchParams(l=args.l, k=args.k, alphabet_size=args.alphabet, length_cap=args.cap, workers=args.workers)
    outcome = compute_n(params)
    print(
        _envelope(
            "search-n",
            {"l": args.l, "k": args.k, "alphabet": args.alphabet, "cap": args.cap},
            outcome.to_json(),
        )
    )
    return EXIT_OK if outcome.status == EXACT else EXIT_NEGATIVE


def _cmd_n_table(args) -> int:
    l_orders = _parse_orders(args.l_range)
    k_orders = _parse_orders(args.k_range)
    # build every row first, so a usage error leaves stdout empty
    rows = [SearchParams(l=l, k=k, alphabet_size=args.alphabet, length_cap=args.cap) for l in l_orders for k in k_orders]
    print("l,k,N")
    for params in rows:
        outcome = compute_n(params)
        cell = outcome.value if outcome.status == EXACT else f">{outcome.value}"
        print(f"{params.l},{params.k},{cell}")
    return EXIT_OK


def _cmd_witness(args) -> int:
    x = parse_generator(args.generator, cap=args.cap)
    res = extract_power_witness(x, args.k, args.l, budget=args.budget)
    if isinstance(res, WitnessEvidence):
        result = {"branch": "power-witness", **res.to_json()}
    else:
        result = {"branch": "anti-power-report", **res.to_json()}
    print(
        _envelope(
            "witness",
            {"generator": x.name, "k": args.k, "l": args.l, "budget": args.budget},
            result,
        )
    )
    return EXIT_OK


def _cmd_density(args) -> int:
    x = parse_generator(args.generator, cap=args.cap)
    index_set = (ap_set if args.kind == "ap" else p_set)(x, args.k, args.horizon)
    est = density_estimate(index_set)
    tail_start = -(-args.horizon // 2)
    if args.format == "json":
        result = {
            "generator": x.name,
            "kind": args.kind,
            "k": args.k,
            "horizon": args.horizon,
            "note": "finite lower-density estimate (not the liminf)",
            "ratios": list(map(list, zip(range(1, args.horizon + 1), est.numerators, est.denominators))),
            "min_tail": [est.min_tail.numerator, est.min_tail.denominator],
        }
        print(_envelope("density", {"generator": x.name, "kind": args.kind, "k": args.k}, result))
    else:
        print("# finite lower-density estimate (not the liminf)")
        print(f"# generator={x.name} kind={args.kind} k={args.k} horizon={args.horizon}")
        print("n,numerator,denominator")
        print("\n".join(map("{},{},{}".format, range(1, args.horizon + 1), est.numerators, est.denominators)))
        print(f"# min_tail over n in [{tail_start}..{args.horizon}]: {est.min_tail.numerator}/{est.min_tail.denominator}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipower",
        description="Powers and anti-powers in words: generators, detectors, searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a prefix of an infinite word")
    p.add_argument("generator", help="thue-morse | fibonacci | periodic:<seed> | sparse-avoider | recurrent-avoider | literal:<head>:<tail>")
    p.add_argument("length", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="materialization cap")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ap-table", help="shortest k-anti-power prefixes, one row per order")
    p.add_argument("generator")
    p.add_argument("orders", help='orders, e.g. "3-6,30"')
    p.add_argument("--limit", type=int, default=1000, help="largest block length m to try")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_ap_table)

    p = sub.add_parser("check", help="test or scan a word for powers / anti-powers")
    p.add_argument("target", help="literal:<ascii> or a generator name")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["anti-power", "power", "scan"], required=True)
    p.add_argument("--length", type=int, default=None, help="prefix length when the target is a generator")
    p.add_argument("--limit", type=int, default=None, help="scan bound L (prefix length scanned)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search-n", help="exhaustive N(l,k) search")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--cap", type=int, default=64, help="length cap for the search tree")
    p.add_argument("--workers", type=int, default=1, help="processes that search the frontier's subtrees")
    p.set_defaults(func=_cmd_search_n)

    p = sub.add_parser("n-table", help="CSV table of N(l,k) over ranges")
    p.add_argument("--l-range", required=True, help='e.g. "2-4"')
    p.add_argument("--k-range", required=True, help='e.g. "2-3"')
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--cap", type=int, default=64)
    p.set_defaults(func=_cmd_n_table)

    p = sub.add_parser("witness", help="extract u with u**l a factor, or anti-power evidence")
    p.add_argument("generator")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--budget", type=int, default=100_000, help="largest block length m scanned")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("density", help="finite density trace of AP(x,k) or P(x,k)")
    p.add_argument("generator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["ap", "p"], required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_density)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaterializationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
