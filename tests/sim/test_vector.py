"""The vector tier: equivalence and eligibility.

The engine's only fast tier changes *nothing* about a run except its
speed.  Every test here holds it to field-for-field ``SimResult``
equality against the reference (generator) loop — across the full
prefetcher zoo, across miss-dense traces and long hit stretches, across
drain-window boundaries, and across LLC policy-interface runs — and
holds interval-timeline samples, which the tier takes itself, to the
same equality.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_system
from repro.cpu.trace import TraceRecord
from repro.experiments.common import PAPER_PREFETCHERS
from repro.obs.config import ObservabilityConfig
from repro.sim.compile import compile_workload
from repro.sim.engine import (
    SimulationEngine,
    SimulationParams,
    engine_tier_counters,
)
from repro.sim.executor import SimJob, execute_job
from repro.sim.vector import replay
from repro.workloads.base import homogeneous
from repro.workloads.registry import (
    STRESS_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    make_workload,
)

SCALE = 0.02


def run_tiers(
    workload="streaming",
    prefetcher="bingo",
    instructions=3000,
    warmup=500,
    seed=7,
    scale=SCALE,
    with_generator=True,
    timeline_interval=0,
    replacement="lru",
):
    """Run one configuration on the reference loop (``"generator"``) and
    on the vector tier (``"vectorized"``); return the SimResult dicts by
    name (timeline samples included, when ``timeline_interval`` is
    set)."""
    system = small_system(num_cores=4)
    params = SimulationParams(
        instructions_per_core=instructions, warmup_instructions=warmup
    )
    obs = ObservabilityConfig(timeline_interval=timeline_interval)
    source = make_workload(workload, seed=seed, scale=scale)
    compiled = compile_workload(source, records_per_core=instructions)
    out = {}
    if with_generator:
        out["generator"] = SimulationEngine(
            source, prefetcher, system, params, obs=obs, vectorized=False,
            replacement=replacement,
        ).run().to_dict()
    engine = SimulationEngine(
        compiled, prefetcher, system, params, obs=obs, vectorized=True,
        replacement=replacement,
    )
    assert engine._vector_path_eligible()
    out["vectorized"] = engine.run().to_dict()
    return out


def assert_all_equal(tiers):
    """Every run in ``tiers`` produced the same SimResult."""
    assert len(tiers) >= 2
    first, *rest = tiers
    for name in rest:
        assert tiers[name] == tiers[first], f"{name} != {first}"


class TestThreeTierEquivalence:
    """Two runs per point: the reference loop and the vector tier."""

    @pytest.mark.parametrize(
        "prefetcher", ["none", *PAPER_PREFETCHERS]
    )
    def test_zoo_equal_field_for_field(self, prefetcher):
        """Vector tier == generator for every prefetcher."""
        assert_all_equal(run_tiers(prefetcher=prefetcher))

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_NAMES)[:4])
    def test_across_workloads(self, workload):
        assert_all_equal(
            run_tiers(workload=workload, instructions=2000, warmup=400)
        )

    def test_zero_warmup(self):
        assert_all_equal(run_tiers(instructions=1500, warmup=0))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(["none", "bingo", "sms", "bop"]),
    instructions=st.integers(min_value=400, max_value=2500),
    warmup_fraction=st.floats(min_value=0.0, max_value=0.45),
    seed=st.integers(min_value=1, max_value=2**16),
    timeline_interval=st.one_of(
        st.just(0), st.integers(min_value=1, max_value=12_000)
    ),
)
def test_property_two_tier_equality(
    workload, prefetcher, instructions, warmup_fraction, seed,
    timeline_interval,
):
    """Any (workload, prefetcher, budget, seed, timeline) point: the
    vector tier agrees with the reference loop, timeline samples
    included."""
    warmup = int(instructions * warmup_fraction)
    tiers = run_tiers(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        warmup=warmup,
        seed=seed,
        timeline_interval=timeline_interval,
    )
    assert tiers["vectorized"] == tiers["generator"]


class TestTimelineAcrossTiers:
    """The vector tier samples the timeline itself, at the generator loop's
    exact global retire positions.  Each run retires 12000 instructions,
    2000 of them in the warm-up.  em3d's cores dispatch in lockstep
    until their first misses, so barriers tie other cores' stretch keys
    and the ``(dispatch, core_id)`` tie-break decides sample cuts."""

    @pytest.mark.parametrize(
        "interval",
        [
            1,  # a sample after every instruction
            997,  # a prime
            600,  # does not divide the 2000-instruction warm-up
            12_000,  # the total: only the in-loop final sample
            12_001,  # longer than the run: only the closing sample
        ],
    )
    def test_samples_equal_on_every_tier(self, interval):
        tiers = run_tiers(workload="em3d", timeline_interval=interval)
        assert_all_equal(tiers)
        timeline = tiers["vectorized"]["timeline"]
        assert len(timeline) == -(-12_000 // interval)
        assert timeline[-1]["instructions"] == 12_000

    @pytest.mark.parametrize("interval", [1, 64])
    def test_miss_dense_drain_mode(self, interval):
        """Miss-dense drain walks: short stretches, samples cut inside
        nearly every one."""
        assert_all_equal(
            run_tiers(
                workload="zipf",
                prefetcher="none",
                instructions=2000,
                warmup=400,
                timeline_interval=interval,
            )
        )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(STRESS_WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(["none", "bingo"]),
    instructions=st.integers(min_value=1200, max_value=3200),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_property_hazard_heavy_equality(workload, prefetcher, instructions, seed):
    """Miss-dense stress workloads, where nearly every record is a
    barrier and cores contend for LLC sets, MSHRs and DRAM channels in
    the global barrier order.  ``prefetcher="none"`` pins the native
    miss path without training, ``"bingo"`` with prefetch training at
    the barrier."""
    assert_all_equal(
        run_tiers(
            workload=workload,
            prefetcher=prefetcher,
            instructions=instructions,
            warmup=instructions // 5,
            seed=seed,
        )
    )


class TestMissDenseStaysVectorized:
    """Miss-dense runs stay on the vector tier, field-identical — the
    tier has no handoff to any other loop."""

    @pytest.mark.parametrize("workload", ["zipf", "oscillate"])
    @pytest.mark.parametrize("prefetcher", ["none", "bingo"])
    def test_stress_matrix_stays_and_matches(self, workload, prefetcher):
        before = engine_tier_counters()
        tiers = run_tiers(
            workload=workload,
            prefetcher=prefetcher,
            instructions=4000,
            warmup=800,
        )
        after = engine_tier_counters()
        assert_all_equal(tiers)
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["general"] == before["general"] + 1  # the reference
        assert after["demoted"] == 0

    def test_policy_interface_runs_stay_vectorized(self):
        """LLC policy-interface runs (the miss path's ``fallback`` mode)
        on a miss-dense trace stay vectorized and equal the reference
        loop, timeline samples included."""
        for replacement in ("arc", "lru-interface"):
            before = engine_tier_counters()
            tiers = run_tiers(
                workload="zipf",
                prefetcher="none",
                instructions=3000,
                warmup=500,
                timeline_interval=7,
                replacement=replacement,
            )
            after = engine_tier_counters()
            assert after["vectorized"] == before["vectorized"] + 1
            assert after["general"] == before["general"] + 1  # the reference
            assert after["demoted"] == 0
            assert len(tiers["vectorized"]["timeline"]) == -(-12_000 // 7)
            assert_all_equal(tiers)


class TestDrainWindows:
    """Frame lookups are batched per drain window; where the windows
    fall must not change a result.  A window of one record puts every
    boundary on a record, first touches included."""

    @pytest.mark.parametrize("window", [1, 7, 64])
    def test_window_sizes_match_reference(self, monkeypatch, window):
        monkeypatch.setattr(replay, "DRAIN_WINDOW", window)
        assert_all_equal(
            run_tiers(instructions=1200, warmup=200, timeline_interval=97)
        )


def _phased_stream(rng, core_id):
    """Alternates two phases.  First a hot loop over 8 L1-resident
    blocks plus a miss to a fresh block every 400 records: long
    stretches, with a DRAM-latency retire still in the ROB window at
    most misses.  Then a sweep over fresh blocks: every access a
    barrier."""
    hot = (core_id + 1) << 24
    fresh = hot + (1 << 20)
    while True:
        for i in range(10_000):
            if i % 400 == 399:
                yield TraceRecord.load(0x580, fresh)
                fresh += 64
            elif i % 3:
                yield TraceRecord.compute(0x400 + i % 7)
            else:
                yield TraceRecord(
                    pc=0x500, address=hot + (i % 8) * 64, is_mem=True,
                    is_write=rng.random() < 0.1,
                    depends_on_prev_load=rng.random() < 0.2,
                )
        for _ in range(1500):
            yield TraceRecord.load(0x600, fresh, rng.random() < 0.2)
            fresh += 64


def _hot_loop(rng, core_id):
    """A hot loop over 8 L1-resident blocks with one miss to a fresh
    block every 4000 records: stretches longer than a drain window."""
    hot = (core_id + 1) << 24
    fresh = hot + (1 << 20)
    i = 0
    while True:
        if i % 4000 == 3999:
            yield TraceRecord.load(0x580, fresh)
            fresh += 64
        elif i % 3:
            yield TraceRecord.compute(0x400 + i % 7)
        else:
            yield TraceRecord(
                pc=0x500, address=hot + (i % 8) * 64, is_mem=True,
                is_write=rng.random() < 0.1,
                depends_on_prev_load=rng.random() < 0.2,
            )
        i += 1


class TestLongStretches:
    """Synthetic traces with long L1-hit stretches between misses, which
    no registered workload produces: the drain walk crosses window
    boundaries mid-stretch, and timeline samples are cut from recovered
    stretch keys.  Results, timeline included, equal the reference
    loop's."""

    @pytest.mark.parametrize(
        "stream", [_phased_stream, _hot_loop], ids=["phased", "hot4000"]
    )
    def test_matches_reference(self, stream):
        system = small_system(num_cores=4)
        params = SimulationParams(24_000, 2_000)
        obs = ObservabilityConfig(timeline_interval=997)
        source = homogeneous("long-stretches", stream)
        compiled = compile_workload(source, records_per_core=24_000)
        reference = SimulationEngine(
            source, "bingo", system, params, obs=obs, vectorized=False
        ).run()
        vector = SimulationEngine(compiled, "bingo", system, params, obs=obs)
        assert vector._vector_path_eligible()
        result = vector.run().to_dict()
        assert result == reference.to_dict()
        assert len(result["timeline"]) == -(-96_000 // 997)


class TestEligibilityAndFallback:
    def test_vector_path_actually_engages(self):
        """Guard against the tier silently never running."""
        before = engine_tier_counters()
        run_tiers(instructions=800, warmup=100, with_generator=False)
        after = engine_tier_counters()
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["general"] == before["general"]

    def test_disabled_flag_falls_back_to_compiled(self):
        """``vectorized=False`` runs the reference (``general``) loop, on
        a packed trace too."""
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        compiled = compile_workload(
            make_workload("streaming", seed=7, scale=SCALE),
            records_per_core=800,
        )
        engine = SimulationEngine(
            compiled, "bingo", system, params, vectorized=False
        )
        assert not engine._vector_path_eligible()
        before = engine_tier_counters()
        engine.run()
        after = engine_tier_counters()
        assert after["general"] == before["general"] + 1
        assert after["vectorized"] == before["vectorized"]

    def test_l1_training_prefetcher_is_ineligible(self):
        """``train_at="l1"`` with a prefetcher runs the reference loop."""
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        compiled = compile_workload(
            make_workload("streaming", seed=7, scale=SCALE),
            records_per_core=800,
        )
        engine = SimulationEngine(
            compiled, "bingo", system, params, train_at="l1", vectorized=True
        )
        assert not engine._vector_path_eligible()
        before = engine_tier_counters()
        engine.run()
        assert engine_tier_counters()["general"] == before["general"] + 1

    def test_generator_workload_is_ineligible(self):
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        source = make_workload("streaming", seed=7, scale=SCALE)
        engine = SimulationEngine(
            source, "bingo", system, params, vectorized=True
        )
        assert not engine._vector_path_eligible()


class TestJobIntegration:
    def job(self, vectorized, **overrides):
        spec = dict(
            system=small_system(num_cores=4),
            instructions_per_core=1500,
            warmup_instructions=300,
            seed=7,
            scale=SCALE,
            compile=True,
            vectorized=vectorized,
        )
        spec.update(overrides)
        return SimJob.build("streaming", prefetcher="bingo", **spec)

    def test_execute_job_matches_across_flag(self):
        assert (
            execute_job(self.job(True)).to_dict()
            == execute_job(self.job(False)).to_dict()
        )

    def test_vectorized_flag_changes_the_digest(self):
        assert self.job(True).digest() != self.job(False).digest()

    def test_vector_version_is_folded_into_the_digest(self, monkeypatch):
        import repro.sim.executor as executor_mod

        digest = self.job(True).digest()
        monkeypatch.setattr(executor_mod, "VECTOR_VERSION", 999)
        assert self.job(True).digest() != digest

    def test_differential_harness_green_over_vector_path(self):
        from repro.check import run_check

        report = run_check(
            "streaming",
            prefetcher="bingo",
            instructions_per_core=2000,
            warmup_instructions=300,
            seed=11,
            scale=SCALE,
            vectorized=True,
        )
        assert report.ok, report.summary()
