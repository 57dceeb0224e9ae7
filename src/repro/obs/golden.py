"""Golden-trace recording: the fixture format of the regression suite.

A *golden trace* freezes a small deterministic run's observable
behaviour — its first N events plus its final stat tree — so future
refactors of the engine, the hierarchy, or a prefetcher are diffed
against today's behaviour event by event, not just by end-of-run
totals.

Both the regeneration tool (``tools/update_golden.py``) and the
regression test (``tests/integration/test_golden_traces.py``) call
:func:`record_golden` so the fixture and the check can never disagree
about the run configuration.  Imported explicitly (not via
``repro.obs``) because it pulls in the engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.common.config import small_system
from repro.obs.sinks import RecordingSink
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.workloads.registry import make_workload

#: the prefetchers pinned by the golden suite (Bingo + the paper's
#: closest competitors with distinct mechanisms: spatial, offset, delta),
#: plus VLDP and stride so every SetAssociativeTable owner is pinned
GOLDEN_PREFETCHERS = ("bingo", "sms", "bop", "spp", "vldp", "stride")

#: fixture schema version — bump when the *format* (not the simulated
#: behaviour) of the fixture files changes
GOLDEN_SCHEMA = 1

#: events kept per fixture (the first N of the run)
GOLDEN_EVENT_LIMIT = 500


def golden_spec(prefetcher: str) -> Dict[str, object]:
    """The one pinned run per prefetcher: small, fast, event-diverse.

    em3d's pointer-chasing over a scaled-down system produces demand
    hits and misses, real prefetch issue/fill activity, evictions, and
    (for Bingo) both long- and short-event vote decisions within a few
    thousand instructions.
    """
    return {
        "workload": "em3d",
        "prefetcher": prefetcher,
        "num_cores": 4,
        "instructions_per_core": 8000,
        "warmup_instructions": 1000,
        "seed": 11,
        "scale": 0.02,
    }


def record_golden(prefetcher: str) -> Dict[str, object]:
    """Run the pinned configuration; return the JSON-ready fixture.

    The fixture holds the spec (so a reader can reproduce it), the
    first :data:`GOLDEN_EVENT_LIMIT` events in emission order, and the
    complete final stat tree.
    """
    spec = golden_spec(prefetcher)
    sink = RecordingSink(limit=GOLDEN_EVENT_LIMIT)
    engine = SimulationEngine(
        workload=make_workload(
            str(spec["workload"]), seed=spec["seed"], scale=spec["scale"]
        ),
        prefetcher=prefetcher,
        system=small_system(num_cores=int(spec["num_cores"])),
        params=SimulationParams(
            instructions_per_core=int(spec["instructions_per_core"]),
            warmup_instructions=int(spec["warmup_instructions"]),
        ),
        sink=sink,
    )
    result = engine.run()
    return {
        "schema": GOLDEN_SCHEMA,
        "spec": spec,
        "events": [event.to_dict() for event in sink.events],
        "stats": result.raw_stats,
    }


def golden_path(root: Union[str, Path], prefetcher: str) -> Path:
    return Path(root) / f"{prefetcher}.json"


def write_golden(root: Union[str, Path], prefetcher: str) -> Path:
    """Record and write one fixture; returns its path."""
    path = golden_path(root, prefetcher)
    path.parent.mkdir(parents=True, exist_ok=True)
    fixture = record_golden(prefetcher)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(root: Union[str, Path], prefetcher: str) -> Dict[str, object]:
    with open(golden_path(root, prefetcher), "r", encoding="utf-8") as fh:
        return json.load(fh)
