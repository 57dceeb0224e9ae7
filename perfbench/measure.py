"""Measurement helpers shared by the workloads: statistics, spans,
cProfile layer grouping, instrumented prefetchers, RSS, provenance.

All times are host time, some rescaled for host speed by the
``Calibrator``.  Nothing here changes the program under test:
spans are recorded around calls into its public entry points, and
``on_access`` is timed on prefetcher instances handed to the engine
through its public ``prefetchers=`` argument.
"""

from __future__ import annotations

import bisect
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from perfbench import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: cProfile groups: the first matching module prefix wins
LAYER_GROUPS = (
    ("serve", ("repro.serve",)),
    ("executor", ("repro.sim.executor", "repro.sim.runner", "repro.sim.sweep")),
    ("compile", ("repro.sim.compile",)),
    ("engine", ("repro.sim.engine", "repro.sim.vector", "repro.cpu",
                "repro.sim.results")),
    ("prefetcher", ("repro.prefetchers", "repro.core", "repro.common.table",
                    "repro.common.hashing", "repro.common.replacement",
                    "repro.common.bitvec")),
    ("memsys", ("repro.memsys",)),
    ("obs", ("repro.obs", "repro.check")),
    ("workloads", ("repro.workloads",)),
)
GROUP_NAMES = tuple(name for name, _ in LAYER_GROUPS) + ("native", "other")


@dataclass
class Outcome:
    """One run's result line, plus notes printed on the line before it."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]
    notes: Dict[str, object] = field(default_factory=dict)


# -- statistics ----------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(simulated: int, jobs: int, ref_s: float, ref_ms: Sequence[float],
               setup_s: float, peak_rss_mb: float, failed: int,
               attempted: int) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of BENCHMARK.json, from one timed phase:
    ``jobs`` completed simulating ``simulated`` instructions in ``ref_s``
    calibrated seconds, with per-job latencies ``ref_ms``."""
    return {
        "sim_kips": metric(simulated / ref_s / 1000.0, "kinstr/ref-s"),
        "jobs_per_s": metric(jobs / ref_s, "1/ref-s"),
        "job_p50_ms": metric(median(ref_ms), "ref-ms"),
        "job_p90_ms": metric(p90(ref_ms), "ref-ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric(1.0 - min(failed, attempted) / attempted, "ratio"),
    }


# -- host-speed calibration ---------------------------------------------------
class Calibrator:
    """Measures host speed with a fixed kernel, to rescale host times.

    The host's speed drifts (other tenants share its cores): the same
    code can take twice as long one second as the next.  Every timed
    interval is therefore rescaled by the kernel's own duration around
    it: ``normalized = seconds * REF_S / kernel_seconds``.  On a host
    where the kernel takes ``REF_S``, a reference second (``ref-s``) is
    a second.  The kernel is timed by this thread's CPU clock, so a
    sample is not inflated while another thread holds the interpreter.
    """

    REF_S = calib.REF_S
    SMOOTH_S = 0.5

    def __init__(self) -> None:
        calib.kernel()  # the first run pays NumPy's lazy set-up
        self.times: List[float] = []
        self.costs: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        start = time.perf_counter()
        cost = calib.cost()
        with self._lock:
            self.times.append(start)
            self.costs.append(cost)

    def start(self, interval: float) -> None:
        """Sample every ``interval`` seconds in a background thread."""
        stop = self._stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                self.sample()

        self.sample()
        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.sample()

    def normalized(self, t0: float, t1: float) -> float:
        """``t1 - t0`` rescaled by the mean kernel cost of the samples
        taken within ``SMOOTH_S`` of ``[t0, t1]`` and the nearest one on
        each side: host speed drifts over about a second, so averaging
        over that span damps the kernel's own jitter."""
        with self._lock:
            times, costs = list(self.times), list(self.costs)
        lo = bisect.bisect_left(times, t0 - self.SMOOTH_S)
        hi = bisect.bisect_right(times, t1 + self.SMOOTH_S)
        window = costs[max(0, lo - 1): hi + 1]
        return (t1 - t0) * self.REF_S * len(window) / sum(window)


# -- spans ---------------------------------------------------------------------
class Spans:
    """In-memory span log: (name, start, end, parent, job) per span.

    Times are ``time.perf_counter`` seconds.  Spans are kept in memory
    and written once, by :meth:`write`, when the run ends.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._stack = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, job: Optional[str] = None) -> int:
        with self._lock:
            index = len(self.records)
            self.records.append({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent, "job": job})
        return index

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        """Time the block as a child of the innermost open span."""
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        parent = stack[-1] if stack else None
        index = self.add(name, time.perf_counter(), 0.0, parent, job)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.records[index]["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part of it that child spans
        cover (children may overlap, so their union is subtracted)."""
        children: Dict[int, List[tuple]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append((r["start"], r["end"]))
        out: Dict[str, float] = {}
        for r in self.records:
            covered, reach = 0.0, r["start"]
            for start, end in sorted(children.get(r["id"], ())):
                start, end = max(start, reach), min(end, r["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"]) - covered
        return out

    def write(self, path: Path, header: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"provenance": header}) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


# -- on_access timing ----------------------------------------------------------
class AccessTimer:
    """Counts and times ``on_access`` over every prefetcher it wraps."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, prefetcher):
        inner = prefetcher.on_access
        clock = time.perf_counter

        def on_access(info):
            start = clock()
            try:
                return inner(info)
            finally:
                self.seconds += clock() - start
                self.calls += 1

        prefetcher.on_access = on_access
        return prefetcher


# -- cProfile grouping ---------------------------------------------------------
def _module_of(filename: str) -> str:
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return ""
    index = len(parts) - 1 - parts[::-1].index("repro")
    return ".".join(parts[index:])


def group_of(filename: str) -> str:
    if filename == "~" or filename.startswith("<"):
        return "native"
    module = _module_of(filename)
    for group, prefixes in LAYER_GROUPS:
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return group
    return "other"


def profile_groups(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time (``tottime``) per layer group, plus the cumulative time
    of ``SimulationEngine.run`` under ``"engine_run_cum"``."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    out = {name: 0.0 for name in GROUP_NAMES}
    engine_run = 0.0
    for (filename, _line, func), (_cc, _nc, tottime, cumtime, _callers) in stats.items():
        out[group_of(filename)] += tottime
        if func == "run" and _module_of(filename) == "repro.sim.engine":
            engine_run += cumtime
    out["engine_run_cum"] = engine_run
    return out


# -- processes -----------------------------------------------------------------
def src_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a child running the program from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


PROBE = Path(__file__).resolve().parent / "probe.py"


def run_probe(traces, scale: float, cache_dir: Path) -> Dict[str, object]:
    """Run the set-up probe (``probe.py``) in a fresh interpreter.  Adds
    its host wall time, spawn to exit, as ``wall_s``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), json.dumps(traces), repr(scale)],
        env=src_env(cache_dir), capture_output=True, text=True,
        timeout=150, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - start
    return out


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_pids(pid: int) -> List[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                frontier.extend(int(p) for p in task.read_text().split())
            except OSError:
                continue
    return pids


def _status_kb(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class TreeRssSampler:
    """Samples the summed RSS of a process and its descendants.

    :meth:`stop` returns the peak in MB: the larger of the highest
    sampled sum and the root's own high-water mark (``VmHWM``).
    """

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            total = sum(_status_kb(p, "VmRSS") for p in _tree_pids(self.pid))
            self.peak_kb = max(self.peak_kb, total)

    def start(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, _status_kb(self.pid, "VmHWM"))
        return self.peak_kb / 1024.0


# -- provenance ----------------------------------------------------------------
def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # never look for a repository above the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the benchmark may run from a plain export
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha or "unknown",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "argv": sys.argv[1:],
    }
