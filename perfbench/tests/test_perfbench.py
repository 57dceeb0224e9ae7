"""Self-tests of the benchmark: seeded job lists, a tiny smoke of every
workload, a planted result mismatch, and the no-simulator exit.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, workloads as wl  # noqa: E402
from perfbench.run import run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
IN_PROCESS = ("sweep-prefetch", "sweep-missdense", "observed-timeline")


def job_list(workload: str, seed: int):
    if workload == "service-closed":
        return wl.service_jobs(seed)
    return wl.points(workload, seed)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_seed_fixes_the_job_list(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert PER_LAYER == layers.UNITS


def test_service_sequence_repeats_and_balances():
    jobs = wl.service_jobs(3)
    keys = [json.dumps(j, sort_keys=True) for j in jobs]
    repeats = [i for i in range(len(keys)) if keys[i] in keys[:i]]
    assert repeats == [i for i in range(len(keys)) if i % wl.REPEAT_EVERY == wl.REPEAT_EVERY - 1]
    fresh = [jobs[i] for i in range(len(jobs)) if i not in set(repeats)]
    pairs = {(j["workload"], j["prefetcher"]) for j in fresh[:16]}
    assert len(pairs) == len(wl.SERVICE_WORKLOADS) * len(wl.SERVICE_PREFETCHERS)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(workload, trace):
    outcome = run_workload(workload, seed=1, seconds=0.1, trace=trace, size=wl.TINY)
    assert outcome.correct, outcome.notes["mismatches"]
    assert outcome.failed == 0 and outcome.attempted >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in outcome.metrics.items()} == expected
    if trace:
        assert outcome.notes["spans"].records
    else:
        assert all(v["value"] > 0 for v in outcome.metrics.values())


def _plant(samples):
    """Corrupt every result the same way (in-process or service samples),
    so only the comparison against an independent run can catch it."""
    for sample in samples:
        if hasattr(sample, "record"):
            sample.record["result"]["dram_reads"] += 1
        else:
            sample.result = dataclasses.replace(
                sample.result, dram_reads=sample.result.dram_reads + 1)


@pytest.mark.parametrize("workload", ["sweep-missdense", "service-closed"])
def test_planted_mismatch_is_a_failure(workload):
    outcome = run_workload(workload, seed=2, seconds=0.1, trace=False,
                           size=wl.TINY, mutate=_plant)
    assert not outcome.correct
    assert outcome.failed >= 1
    assert outcome.metrics["ok_frac"]["value"] < 1.0


def test_reference_run_matches_the_plain_run(tmp_path, monkeypatch):
    from repro.serve.jobs import job_from_wire
    from repro.sim.executor import execute_job

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = next(s for s in wl.points("sweep-missdense", 3, wl.TINY)
                if s["replacement"] != "lru")
    job = job_from_wire(spec)
    assert layers.reference_run(job).to_dict() == execute_job(job).to_dict()


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-prefetch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
