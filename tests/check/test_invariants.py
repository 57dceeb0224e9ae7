"""The runtime invariant checker, fed fabricated hierarchies and events."""

import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.common.stats import StatGroup
from repro.memsys.mshr import MshrFile
from repro.obs.events import DemandHit, DemandMiss, Eviction


class FakeHierarchy:
    """Just enough surface for the checker: stats tree, MSHRs, clock."""

    def __init__(self):
        self.stats = StatGroup("memsys")
        self.l1_mshrs = []
        self.prefetchers = []
        self._now = 0.0


def hit(covered=False, late=False):
    return DemandHit(
        time=0.0, core_id=0, pc=0x400, block=1, covered=covered, late=late
    )


def miss():
    return DemandMiss(time=0.0, core_id=0, pc=0x400, block=1)


class TestCounterChecks:
    def test_consistent_counters_pass(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_misses")
        checker.emit(miss())
        llc.add("demand_accesses")
        llc.add("demand_hits")
        checker.emit(hit())
        assert checker.finalize() is None
        assert not checker.violations
        assert checker.checks_run >= 2

    def test_conservation_violation_is_caught(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses", 2)  # one access never classified
        llc.add("demand_hits")
        checker.emit(hit())
        assert any("conservation" in v for v in checker.violations)

    def test_event_stream_must_rederive_live_counters(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_misses")
        checker.emit(hit())  # the event says hit, the counter says miss
        assert any("demand_hits" in v for v in checker.violations)

    def test_covered_and_late_flow_through(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("covered")
        llc.add("late_covered")
        checker.emit(hit(covered=True, late=True))
        assert checker.finalize() is None


class TestStructuralChecks:
    def test_mshr_over_occupancy_is_caught(self):
        checker = InvariantChecker(interval=1)
        fake = FakeHierarchy()
        mshr = MshrFile(entries=1)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)  # two occupied entries in a 1-entry file
        fake.l1_mshrs = [mshr]
        fake._now = 50.0
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_hits")
        checker.emit(hit())
        assert any("MSHR occupancy" in v for v in checker.violations)

    def test_eviction_counter_checked_at_finalize(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        checker.emit(Eviction(cache="llc", block=1, prefetched=False, used=True))
        error = checker.finalize()  # live counters never saw an eviction
        assert error is not None
        assert any("evictions" in v for v in error.violations)


class TestStrictness:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_strict_finalize_raises(self):
        checker = InvariantChecker(strict=True)
        fake = FakeHierarchy()
        checker.attach(fake)
        fake.stats.child("llc").add("demand_accesses")
        checker.emit(hit())  # hits counter still 0: inconsistent
        with pytest.raises(InvariantViolation) as excinfo:
            checker.finalize()
        assert excinfo.value.violations

    def test_unattached_checker_only_tallies(self):
        checker = InvariantChecker()
        checker.emit(hit())
        checker.emit(miss())
        assert checker.finalize() is None
        assert checker.checks_run == 0


class TestCheckingDoesNotPerturbTheRun:
    """Regression: the structural sweep used to call the mutating
    ``MshrFile.occupancy`` at the hierarchy's clock, which expired
    entries ahead of lagging cores and changed their later merge and
    stall outcomes, so ``Executor(check=True)`` returned a different
    result than the plain run.  Each length is one at which the old
    checker perturbed its point (seed 7, experiment hierarchy)."""

    @pytest.mark.parametrize("replacement", ["lru", "arc"])
    @pytest.mark.parametrize(
        "workload, instructions",
        [("zipf", 12_000), ("oscillate", 8_000), ("phase_shift", 20_000)],
    )
    def test_checked_run_equals_plain_run(
        self, workload, instructions, replacement
    ):
        from repro.experiments.common import experiment_system
        from repro.sim.executor import Executor, SimJob, execute_job

        job = SimJob.build(
            workload,
            system=experiment_system(),
            instructions_per_core=instructions,
            warmup_instructions=instructions // 5,
            seed=7,
            scale=0.125,
            replacement=replacement,
        )
        checked = Executor(workers=1, check=True).run_jobs([job])[0]
        assert checked.to_dict() == execute_job(job).to_dict()
