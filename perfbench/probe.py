"""Set-up probe, run in a fresh interpreter: import the simulator, then
compile (or, when the cache already holds them, load) a list of traces.

Usage: ``python perfbench/probe.py '<json list of [workload, seed, n]>'
<scale>`` with ``REPRO_CACHE_DIR`` naming the trace cache.  Prints one
JSON line: ``import_s``, ``compile_s`` (all traces) and the
compile-counter deltas.
"""

import json
import sys
import time


def main() -> int:
    traces = json.loads(sys.argv[1])
    scale = float(sys.argv[2])
    start = time.perf_counter()
    from repro.sim.compile import compile_counters, compile_workload
    from repro.sim.executor import execute_job  # noqa: F401 - part of set-up
    from repro.workloads.registry import make_workload

    imported = time.perf_counter()
    before = compile_counters()
    for name, seed, instructions in traces:
        compile_workload(
            make_workload(name, seed=seed, scale=scale),
            records_per_core=instructions,
            scale=scale,
        )
    done = time.perf_counter()
    after = compile_counters()
    print(json.dumps({
        "import_s": imported - start,
        "compile_s": done - imported,
        "traces": len(traces),
        "counters": {k: after[k] - before[k] for k in after},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
