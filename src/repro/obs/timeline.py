"""Interval timelines: periodic stat snapshots and derived curves.

End-of-run counters average away phase behaviour — a prefetcher that is
brilliant for the first half of a run and harmful for the second looks
mediocre.  The :class:`TimelineRecorder` captures the LLC/DRAM counter
state and per-core progress every N retired instructions (the engine
drives it), and :func:`timeline_curves` turns consecutive samples into
per-interval IPC / MPKI / coverage / accuracy rows.

Samples are plain JSON-encodable dicts so they can live on
:class:`~repro.sim.results.SimResult` and round-trip through the
executor's on-disk cache unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.stats import StatGroup


class TimelineRecorder:
    """Collects cumulative counter samples at a fixed instruction cadence.

    Each sample is ``{"instructions", "cores", "llc", "dram"}`` where
    ``cores`` holds ``[retired_instructions, retire_cycles]`` per core
    and ``llc``/``dram`` are *cumulative* counter dicts — deltas are
    taken at analysis time, so arbitrary re-partitions of the samples
    still sum to the whole-run totals.
    """

    def __init__(
        self, interval: int, llc_stats: StatGroup, dram_stats: StatGroup
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._llc = llc_stats
        self._dram = dram_stats
        self.samples: List[Dict[str, object]] = []

    def sample(
        self, instructions: int, progress: Sequence[Tuple[int, float]]
    ) -> None:
        """Record the current counter state at ``instructions`` retired.

        ``progress`` is each core's ``(retired_instructions,
        retire_cycles)`` at that point; the fast engine tiers pass values
        from their own state mirrors rather than the core models.
        """
        self.samples.append(
            {
                "instructions": instructions,
                "cores": [[count, time] for count, time in progress],
                "llc": self._llc.counters(),
                "dram": self._dram.counters(),
            }
        )

    def last_instructions(self) -> int:
        """Retired-instruction position of the latest sample (0 if none)."""
        if not self.samples:
            return 0
        return self.samples[-1]["instructions"]  # type: ignore[return-value]


def _zero_sample(num_cores: int) -> Dict[str, object]:
    return {
        "instructions": 0,
        "cores": [[0, 0.0] for _ in range(num_cores)],
        "llc": {},
        "dram": {},
    }


def timeline_curves(samples: Sequence[Dict[str, object]]) -> List[Dict[str, float]]:
    """Per-interval metric rows from cumulative timeline samples.

    Each row covers the span between two consecutive samples (the first
    spans from run start): system IPC (sum of per-core IPCs over the
    interval), LLC MPKI, coverage, accuracy, and the raw miss/covered/
    issued deltas the ratios derive from.
    """
    rows: List[Dict[str, float]] = []
    if not samples:
        return rows
    prev = _zero_sample(len(samples[0]["cores"]))  # type: ignore[arg-type]
    for sample in samples:
        d_instr = sample["instructions"] - prev["instructions"]
        prev_llc, llc = prev["llc"], sample["llc"]

        def delta(counter: str) -> float:
            return llc.get(counter, 0) - prev_llc.get(counter, 0)

        ipc = 0.0
        for (instr, cycles), (p_instr, p_cycles) in zip(
            sample["cores"], prev["cores"]
        ):
            d_cycles = cycles - p_cycles
            if d_cycles > 0:
                ipc += (instr - p_instr) / d_cycles
        misses = delta("demand_misses")
        covered = delta("covered")
        issued = delta("prefetches_issued")
        would_miss = covered + misses
        rows.append(
            {
                "instructions": sample["instructions"],
                "interval_instructions": d_instr,
                "ipc": ipc,
                "mpki": misses / d_instr * 1000 if d_instr else 0.0,
                "coverage": covered / would_miss if would_miss else 0.0,
                "accuracy": min(1.0, covered / issued) if issued else 0.0,
                "demand_misses": misses,
                "covered": covered,
                "prefetches_issued": issued,
            }
        )
        prev = sample
    return rows
