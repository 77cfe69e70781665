"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload nsearch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (``worker.py``) importing the package from ``src/``; set-up
time is sampled by starting further interpreters that stop once their
inputs are ready.  Times are corrected to a reference host speed
(``speed.py``); the raw ones are printed too.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same numbers by name, with units.  ``--trace 1``
reports the per-layer metrics instead and writes spans under
``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

WORKLOADS = ("nsearch", "prefix-sets", "factor-scan", "tiny-words")
SETUP_SAMPLES = 5  # interpreters started per run to sample set-up time
RUN_LIMIT_S = 170  # every child is killed once the run has taken this long

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _child_env() -> dict:
    env = dict(os.environ)
    # fixed hash seed: set iteration order, and so timing, repeats across runs
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Start a worker interpreter and return its report and start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    report["spawned"] = spawned
    return report


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        before = speed.probe()
        child = _worker([*common, "--setup-only"], deadline)
        setups.append(child["setup"] | {"spawned": child["spawned"], "before": before})
    trace_out = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json"
    extra = ["--trace-out", str(trace_out)] if trace else []
    before = speed.probe()
    report = _worker([*common, "--seconds", str(seconds), "--trace", str(trace), *extra], deadline)
    setups.append(report["setup"] | {"spawned": report["spawned"], "before": before})

    # corrected by the mean of the parent's probe before the start and the child's once ready
    setup_s = statistics.median(
        (s["ready"] - s["spawned"]) * speed.REFERENCE_S * 2 / (s["before"] + s["probe_s"]) for s in setups
    )
    correct = report["failed"] == 0 and report.get("deterministic", True)
    if trace:
        values = dict(report["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    else:
        values = {
            "wall_s": statistics.median(report["walls"]),
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = _units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    env = report["env"]
    print(f"# workload={name} seed={seed} seconds={seconds} trace={trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"untraced_passes={len(report['walls'])}")
    for key, m in metrics.items():
        print(f"# {key:32s} {m['value']:>16.6f} {m['unit']}")
    print(f"# {'ops':32s} {report['attempted']:>16d} count")
    print(f"# {'failed_ops':32s} {report['failed']:>16d} count")
    raw_setup_s = statistics.median(s["ready"] - s["spawned"] for s in setups)
    print(f"# {'raw wall_s (uncorrected)':32s} {statistics.median(report['raw_walls']):>16.6f} s")
    print(f"# {'raw setup_s (uncorrected)':32s} {raw_setup_s:>16.6f} s")
    print(f"# {'speed probe':32s} {statistics.median(s['probe_s'] for s in setups) * 1e6:>16.3f} us")
    for reason in report["reasons"]:
        print(f"# FAILED {reason}")
    if not report.get("deterministic", True):
        print("# FAILED a deterministic count changed between traced passes")
    if trace:
        print(f"# spans written to {trace_out.relative_to(ROOT)}")
    return {"correct": correct, "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="antipower benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long each workload measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "antipower" / "__init__.py").is_file():
        print(f"error: no antipower sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
