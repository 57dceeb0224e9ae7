"""The vectorized batch-replay tier: equivalence, eligibility, demotion.

The tier's one non-negotiable property mirrors the compiled path's: it
changes *nothing* about a run except its speed.  Every test here holds
the vectorized engine to field-for-field ``SimResult`` equality against
the scalar compiled loop and the generator loop — across the full
prefetcher zoo, across chunk-boundary edge cases (chunk size 1, a
boundary exactly on a trigger access, compute-only chunks), and across
the in-flight demotion handoff — and holds interval-timeline samples,
which every tier takes itself, to the same equality.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_system
from repro.experiments.common import PAPER_PREFETCHERS
from repro.obs.config import ObservabilityConfig
from repro.sim.compile import compile_workload
from repro.sim.engine import (
    SimulationEngine,
    SimulationParams,
    engine_tier_counters,
)
from repro.sim.executor import SimJob, execute_job
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
    chunk=None,
    with_generator=True,
    timeline_interval=0,
):
    """Run one configuration on every tier; return the SimResult dicts
    (timeline samples included, when ``timeline_interval`` is set)."""
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
            source, prefetcher, system, params, obs=obs, vectorized=False
        ).run().to_dict()
    out["compiled"] = SimulationEngine(
        compiled, prefetcher, system, params, obs=obs, vectorized=False
    ).run().to_dict()
    engine = SimulationEngine(
        compiled, prefetcher, system, params, obs=obs, vectorized=True
    )
    if chunk is not None:
        engine._vector_chunk = chunk
    assert engine._vector_path_eligible()
    out["vectorized"] = engine.run().to_dict()
    return out


class TestThreeTierEquivalence:
    @pytest.mark.parametrize(
        "prefetcher", ["none", *PAPER_PREFETCHERS]
    )
    def test_zoo_equal_field_for_field(self, prefetcher):
        """Vectorized == compiled == generator for every prefetcher."""
        tiers = run_tiers(prefetcher=prefetcher)
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_NAMES)[:4])
    def test_across_workloads(self, workload):
        tiers = run_tiers(workload=workload, instructions=2000, warmup=400)
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]

    def test_zero_warmup(self):
        tiers = run_tiers(instructions=1500, warmup=0)
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


class TestChunkBoundaries:
    """Decision-boundary chunking must not depend on where chunks fall."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_pathological_chunk_sizes(self, chunk):
        """Chunk size 1 puts *every* boundary on a record — including
        every trigger access; tiny sizes exercise empty and
        compute-only chunks between memory records."""
        tiers = run_tiers(
            instructions=1200, warmup=200, chunk=chunk, with_generator=False
        )
        reference = run_tiers(
            instructions=1200, warmup=200, with_generator=False
        )
        assert tiers["vectorized"] == tiers["compiled"]
        assert tiers["vectorized"] == reference["vectorized"]

    def test_boundary_exactly_on_trigger_access(self):
        """Place a chunk boundary on the first L1 miss: with the
        adaptive default the miss lands mid-chunk, with chunk=1 every
        miss *is* a boundary — both must agree with the scalar loop."""
        small = run_tiers(
            prefetcher="bingo", instructions=900, warmup=100, chunk=1,
            with_generator=False,
        )
        assert small["vectorized"] == small["compiled"]


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
def test_property_three_tier_equality(
    workload, prefetcher, instructions, warmup_fraction, seed,
    timeline_interval,
):
    """Any (workload, prefetcher, budget, seed, timeline) point: all
    tiers agree, timeline samples included."""
    warmup = int(instructions * warmup_fraction)
    tiers = run_tiers(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        warmup=warmup,
        seed=seed,
        timeline_interval=timeline_interval,
    )
    assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


class TestTimelineAcrossTiers:
    """Every tier samples the timeline itself, at the generator loop's
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
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]
        timeline = tiers["vectorized"]["timeline"]
        assert len(timeline) == -(-12_000 // interval)
        assert timeline[-1]["instructions"] == 12_000

    @pytest.mark.parametrize("chunk", [1, 64])
    def test_miss_dense_drain_mode(self, chunk):
        """Drain-mode stretches and tiny chunks: stretch keys recovered
        from both kernels' state."""
        tiers = run_tiers(
            workload="zipf",
            prefetcher="none",
            instructions=2000,
            warmup=400,
            chunk=chunk,
            timeline_interval=1,
        )
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(STRESS_WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(["none", "bingo"]),
    instructions=st.integers(min_value=1200, max_value=3200),
    chunk=st.sampled_from([None, 64, 512]),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_property_hazard_heavy_equality(
    workload, prefetcher, instructions, chunk, seed
):
    """Batch-hazard-heavy draws: miss-dense stress workloads, where
    nearly every record is a barrier, cross-core LLC set contention
    invalidates mirror verdicts, and small chunks put plan boundaries
    everywhere.  ``prefetcher="none"`` pins the mirror-mode miss path
    (gen-guard hazards), ``"bingo"`` pins the lean mode (MSHR gate +
    prefetch training at the barrier)."""
    tiers = run_tiers(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        warmup=instructions // 5,
        seed=seed,
        chunk=chunk,
    )
    assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


class TestMissDenseStaysVectorized:
    """Satellite of the batched-miss-path PR: the tier must no longer
    demote on miss-dense workloads *and* must stay field-identical."""

    @pytest.mark.parametrize("workload", ["zipf", "oscillate"])
    @pytest.mark.parametrize("prefetcher", ["none", "bingo"])
    def test_stress_matrix_stays_and_matches(self, workload, prefetcher):
        before = engine_tier_counters()
        tiers = run_tiers(
            workload=workload,
            prefetcher=prefetcher,
            instructions=4000,
            warmup=800,
            with_generator=False,
        )
        after = engine_tier_counters()
        assert tiers["vectorized"] == tiers["compiled"]
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["demoted"] == before["demoted"], (
            "vector tier demoted on a miss-dense stress workload — the "
            "batched miss path should keep it resident"
        )

    def test_demotion_reasons_are_counted(self, monkeypatch):
        """A forced demotion of a fallback-mode (``arc``) run lands in
        ``demoted_ineligible_policy``."""
        import repro.sim.vector.replay as replay_mod

        system = small_system(num_cores=4)
        params = SimulationParams(2000, 300)
        compiled = compile_workload(
            make_workload("zipf", seed=7, scale=SCALE), records_per_core=2000
        )
        monkeypatch.setattr(replay_mod, "PROBE_BARRIERS", 16)
        monkeypatch.setattr(replay_mod, "DEMOTE_STRETCH_FALLBACK", 10**9)
        before = engine_tier_counters()
        SimulationEngine(
            compiled, "bingo", system, params, vectorized=True,
            replacement="arc",
        ).run()
        after = engine_tier_counters()
        assert after["demoted"] == before["demoted"] + 1
        assert (
            after["demoted_ineligible_policy"]
            == before["demoted_ineligible_policy"] + 1
        )


class TestEligibilityAndFallback:
    def test_vector_path_actually_engages(self):
        """Guard against the tier silently never running."""
        before = engine_tier_counters()["vectorized"]
        tiers = run_tiers(instructions=800, warmup=100, with_generator=False)
        assert engine_tier_counters()["vectorized"] == before + 1
        assert tiers["vectorized"] == tiers["compiled"]

    def test_disabled_flag_falls_back_to_compiled(self):
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
        assert engine._fast_path_eligible()

    def test_l1_training_prefetcher_is_ineligible(self):
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

    def test_generator_workload_is_ineligible(self):
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        source = make_workload("streaming", seed=7, scale=SCALE)
        engine = SimulationEngine(
            source, "bingo", system, params, vectorized=True
        )
        assert not engine._vector_path_eligible()


class TestDemotion:
    def test_demotion_handoff_is_byte_identical(self, monkeypatch):
        """Force a mid-run demotion and hold the result to equality.

        Only a fallback-mode run can demote, so the LLC runs ``arc``
        (policies do not change which records are L1 misses, so the
        barriers, and the handoff point, are the LRU run's)."""
        import repro.sim.vector.replay as replay_mod

        system = small_system(num_cores=4)
        params = SimulationParams(3000, 500)
        # with the probe at 128 barriers the handoff comes ~3800
        # instructions in, with three cores parked mid-stretch; samples
        # every 7 positions fall on both sides of it and among the
        # parked stretches' keys, so the compiled loop must continue the
        # cadence at the same positions
        obs = ObservabilityConfig(timeline_interval=7)
        source = make_workload("em3d", seed=7, scale=SCALE)
        compiled = compile_workload(source, records_per_core=3000)
        scalar = SimulationEngine(
            compiled, "bingo", system, params, obs=obs, vectorized=False,
            replacement="arc",
        ).run()
        generator = SimulationEngine(
            source, "bingo", system, params, obs=obs, vectorized=False,
            replacement="arc",
        ).run()
        monkeypatch.setattr(replay_mod, "PROBE_BARRIERS", 128)
        # always demote at the probe
        monkeypatch.setattr(replay_mod, "DEMOTE_STRETCH_FALLBACK", 10**9)
        before = engine_tier_counters()["demoted"]
        vector = SimulationEngine(
            compiled, "bingo", system, params, obs=obs, vectorized=True,
            replacement="arc",
        ).run()
        assert engine_tier_counters()["demoted"] == before + 1
        assert len(vector.timeline) == -(-12_000 // 7)
        assert vector.to_dict() == scalar.to_dict() == generator.to_dict()


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
