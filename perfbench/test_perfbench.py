"""Tests of the benchmark itself: seeded inputs, count determinism, the gate.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Gate, run_pass  # noqa: E402

NAMES = ("nsearch", "prefix-sets", "factor-scan", "tiny-words")


@pytest.mark.parametrize("name", NAMES)
def test_inputs_regenerate_identically(name):
    assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
    assert workloads.inputs(name, 7) != workloads.inputs(name, 8)


def _cheap_jobs():
    """A few jobs of every kind, so that each layer's counts are exercised quickly."""
    jobs = [job for job in workloads.inputs("nsearch", 1) if job[1:] in {(3, 4, 2, 64), (4, 4, 2, 64)}]
    prefix_sets = workloads.inputs("prefix-sets", 1)
    jobs += [prefix_sets[0], prefix_sets[3]] + prefix_sets[5:25]
    jobs += [job for job in workloads.inputs("factor-scan", 1) if job[0] == "scan-word" or job[1] == "thue-morse"]
    tiny = workloads.inputs("tiny-words", 1)
    jobs += tiny[:200] + [job for job in tiny if job[0] != "detect"][::10]
    return jobs


def _traced_counts(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, results, errors = run_pass(jobs, workloads.run_job, tracer)
    finally:
        tracer.uninstall()
    assert not errors
    return {k: v for k, v in tracer.metrics().items() if isinstance(v, int)}


def test_deterministic_counts_repeat():
    jobs = _cheap_jobs()
    first = _traced_counts(jobs)
    assert first == _traced_counts(jobs)
    for name in ("ramsey.nodes", "words.symbols", "scan.block_lengths", "sets.prefix_checks", "witness.ap_checks"):
        assert first[name] > 0, name


def test_uninstall_restores_the_package():
    import antipower
    from antipower import cli, hashing, sets, witness

    before = (antipower.compute_n, cli.ap_min, witness.prefix_is_k_anti_power, hashing.PrefixHashes.block)
    tracer = tracing.Tracer()
    tracer.install()
    assert witness.prefix_is_k_anti_power is not sets.prefix_is_k_anti_power
    tracer.uninstall()
    after = (antipower.compute_n, cli.ap_min, witness.prefix_is_k_anti_power, hashing.PrefixHashes.block)
    assert before == after


def _gate(jobs):
    gate = Gate(jobs, workloads.check_job, workloads.digest)
    _, _, results, errors = run_pass(jobs, workloads.run_job)
    gate.judge(results, errors)
    return gate


def test_gate_passes_seed_outputs():
    gate = _gate(_cheap_jobs())
    assert (gate.failed, gate.reasons) == (0, [])


def test_wrong_reference_is_a_failed_op(monkeypatch):
    jobs = [("compute_n", 3, 4, 2, 64), ("compute_n", 3, 3, 2, 64)]
    monkeypatch.setitem(workloads.SEED_N, (3, 4, 2, 64), ("exact", 20))
    gate = _gate(jobs)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_wrong_oracle_is_a_failed_op(monkeypatch):
    jobs = workloads.inputs("tiny-words", 1)[:50]
    monkeypatch.setattr(workloads, "naive_is_k_power", lambda w, k: True)
    gate = _gate(jobs)
    assert gate.failed == 50


def test_changed_output_on_a_later_pass_is_a_failed_op():
    jobs = [("compute_n", 3, 3, 2, 64)]
    gate = Gate(jobs, workloads.check_job, lambda job, result: id(result))
    for _ in range(2):
        _, _, results, errors = run_pass(jobs, workloads.run_job)
        gate.judge(results, errors)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "nsearch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_run_reports_the_contract_keys():
    argv = ["--workload", "nsearch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_pass_time_is_corrected_by_the_speed_probe(monkeypatch):
    import speed

    # a host running at half the reference speed: times are halved
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    corrected, raw, _, errors = run_pass([("compute_n", 4, 4, 2, 64)], workloads.run_job)
    assert not errors
    assert corrected == pytest.approx(raw / 2)
