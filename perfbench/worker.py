"""One workload in a fresh interpreter: set up, run timed passes, check, report.

Started by ``run.py``; prints a single JSON object on stdout.  With
``--setup-only`` it stops once the inputs are ready, which is how the
parent samples set-up time several times per run.

A pass runs the workload's whole job list once; a ``speed.Clock`` times
it and corrects the time to the reference host speed.  Passes repeat until
another would overrun ``--seconds`` (at least one).
The first pass is checked job by job against the references; later passes
must reproduce the first pass's outputs exactly.  With ``--trace 1``,
untraced and traced passes alternate, so the tracing overhead is measured
in the same process.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer as tracing


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True, help="directory holding the antipower package")
    p.add_argument("--trace-out", default=None, help="file the traced run's spans are written to")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_pass(jobs, run_job, tracer=None):
    """Run every job once.

    Returns the pass's job time corrected to the reference host speed, the
    raw job time, the results and the errors by job index.
    """
    results = [None] * len(jobs)
    errors = {}
    clock = speed.Clock()
    clock.start()
    try:
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = j
            try:
                results[j] = run_job(job)
            except Exception as exc:  # a job that raises is a failed op; the pass goes on
                errors[j] = repr(exc)
    finally:
        clock.stop()
    return clock.corrected, clock.raw, results, errors


class Gate:
    """Counts ops and failed ops over all passes of a run."""

    def __init__(self, jobs, check_job, digest):
        self.jobs = jobs
        self.check_job = check_job
        self.digest = digest
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def _fail(self, j, reason):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"job {j} {self.jobs[j][0]}: {reason}")

    def judge(self, results, errors):
        """Check one pass outside the timed region."""
        self.attempted += len(self.jobs)
        first = self.reference is None
        if first:
            self.reference = [None] * len(self.jobs)
        for j, job in enumerate(self.jobs):
            if j in errors:
                self._fail(j, f"raised {errors[j]}")
                continue
            d = self.digest(job, results[j])
            if first:
                reason = self.check_job(job, results[j])
                if reason is None:
                    self.reference[j] = d
                else:
                    self._fail(j, reason)
            elif self.reference[j] is None or d != self.reference[j]:
                self._fail(j, "output differs from the checked first pass")


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = _parse(argv)
    t_import = time.perf_counter()
    sys.path.insert(0, args.src)
    import antipower

    if Path(antipower.__file__).resolve().parent != (Path(args.src) / "antipower").resolve():
        raise SystemExit(f"imported antipower from {antipower.__file__}, not from {args.src}")
    import_s = time.perf_counter() - t_import

    import workloads

    t_inputs = time.perf_counter()
    jobs = workloads.inputs(args.workload, args.seed)
    inputs_s = time.perf_counter() - t_inputs
    ready = time.monotonic()
    setup = {"ready": ready, "import_s": import_s, "inputs_s": inputs_s, "probe_s": speed.probe()}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    import numpy

    tracer = tracing.Tracer() if args.trace else None
    gate = Gate(jobs, workloads.check_job, workloads.digest)
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    layer_passes = []
    began = time.perf_counter()
    traced = False
    while True:
        gc.collect()
        if traced:
            tracer.pass_no += 1
            tracer.reset()
            tracer.install()
        try:
            wall, raw, results, errors = run_pass(jobs, workloads.run_job, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        raw_walls[traced].append(raw)
        if traced:
            layer = tracer.metrics()
            layer["cli.output_bytes"] = sum(len(r[1]) for job, r in zip(jobs, results) if job[0] == "cli" and r)
            layer_passes.append(layer)
        gate.judge(results, errors)
        del results
        if args.trace:
            traced = not traced
        spent = time.perf_counter() - began
        need_both = args.trace and not (walls[False] and walls[True])
        if not need_both and spent + _median(raw_walls[traced]) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "setup": setup,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "reasons": gate.reasons,
        "walls": walls[False],
        "raw_walls": raw_walls[False],
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if args.trace:
        out["layers"] = _layer_summary(layer_passes, walls)
        out["deterministic"] = _counts_repeat(layer_passes)
        if args.trace_out:
            _write_trace(args, out, tracer, layer_passes)
    print(json.dumps(out))
    return 0


def _layer_summary(layer_passes, walls):
    """Counts from the first traced pass, times as medians over traced passes."""
    summary = {}
    for name, first in layer_passes[0].items():
        if isinstance(first, int):
            summary[name] = first
        else:
            summary[name] = _median([p[name] for p in layer_passes])
    summary["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    # a property of the hashing layer, reported where that layer runs
    summary["hashing.bytes_per_symbol"] = tracing.hash_bytes_per_symbol() if summary["hashing.build_symbols"] else 0.0
    return summary


def _counts_repeat(layer_passes):
    """Every count must read the same on every traced pass."""
    counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in layer_passes]
    return all(c == counts[0] for c in counts)


def _write_trace(args, out, tracer, layer_passes):
    path = Path(args.trace_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": out["env"],
        "span_fields": ["id", "name", "start", "end", "parent", "job", "pass"],
        "spans": tracer.spans,
        "passes": layer_passes,
        "untraced_walls": out["walls"],
    }
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
