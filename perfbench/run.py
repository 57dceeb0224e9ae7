"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep-prefetch --seed 1 --seconds 14 --trace 0

Runs the simulator from ``src/`` of the checkout this file sits in.  The
workloads are described in ``perfbench/workloads.py`` and
``BENCHMARK.json``.  With ``--trace 0`` the last line of standard output
is a JSON object with every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric instead.  The line before it is the run's
provenance (git sha, cpu count, Python and numpy versions, seed).  Spans
of a traced run go to ``.perfbench/spans/`` in the checkout.

Exit status: 0 when every output check passed, 1 when a result did not
match its reference (or the run raised), 2 when the checkout has no
simulator sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import measure, workloads as wl  # noqa: E402

WORK = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: wl.Size = wl.FULL, mutate=None):
    """Run one workload in a private cache and state directory."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    try:
        if workload == "service-closed":
            from perfbench import service

            return service.run(seed, seconds, trace, run_dir, size, mutate)
        from perfbench import inproc

        return inproc.run(workload, seed, seconds, trace, run_dir, size, mutate)
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    header = measure.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    header["layer_targets"] = wl.LAYER_TARGETS
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = outcome.notes.pop("spans", None)
    if spans is not None:
        path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.write(path, header)
        outcome.notes["spans_file"] = str(path.relative_to(ROOT))
        outcome.notes["span_self_s"] = spans.self_times()
    for problem in outcome.notes.get("mismatches", []):
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": header, "notes": outcome.notes}, default=str))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
