"""Tests for the threshold-triggered re-placement loop (§IV-A extension)."""

import numpy as np
import pytest

from repro.core.gen import TrimCachingGen
from repro.core.placement import Placement
from repro.errors import ConfigurationError
from repro.sim.mobility_eval import MobilityStudy
from repro.sim.replacement import (
    ReplacementPolicy,
    ReplacementTrace,
    placement_delta_bytes,
)


class TestPlacementDelta:
    def test_no_change_costs_nothing(self, small_scenario):
        placement = TrimCachingGen().solve(small_scenario.instance).placement
        assert placement_delta_bytes(small_scenario, placement, placement) == 0

    def test_eviction_is_free(self, small_scenario):
        full = TrimCachingGen().solve(small_scenario.instance).placement
        empty = small_scenario.instance.new_placement()
        assert placement_delta_bytes(small_scenario, full, empty) == 0

    def test_cold_start_costs_dedup_size(self, small_scenario):
        instance = small_scenario.instance
        empty = instance.new_placement()
        target = instance.new_placement()
        target.add(0, 0)
        target.add(0, 1)
        expected = instance.dedup_storage([0, 1])
        assert placement_delta_bytes(small_scenario, empty, target) == expected

    def test_shared_blocks_not_reshipped(self, small_scenario):
        """Adding a sibling model costs only its specific blocks."""
        instance = small_scenario.instance
        # Find two models sharing blocks.
        pair = None
        for a in range(instance.num_models):
            for b in range(a + 1, instance.num_models):
                if instance.model_blocks[a] & instance.model_blocks[b]:
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None, "special-case library must share blocks"
        a, b = pair
        old = instance.new_placement()
        old.add(0, a)
        new = old.copy()
        new.add(0, b)
        delta = placement_delta_bytes(small_scenario, old, new)
        assert delta < int(instance.model_sizes[b])
        assert delta == instance.marginal_storage(b, instance.model_blocks[a])


class TestReplacementPolicy:
    def test_zero_threshold_never_replaces(self, small_scenario):
        policy = ReplacementPolicy(
            MobilityStudy(small_scenario, sample_every=6),
            TrimCachingGen(),
            threshold=0.0,
        )
        trace = policy.run(horizon_s=600.0, seed=0)
        assert trace.num_replacements == 0
        assert trace.total_bytes_shipped == 0

    def test_aggressive_threshold_replaces(self, tight_scenario):
        """threshold=1.0 fires on any degradation below the reference."""
        policy = ReplacementPolicy(
            MobilityStudy(tight_scenario, sample_every=6),
            TrimCachingGen(),
            threshold=1.0,
        )
        trace = policy.run(horizon_s=1800.0, seed=0)
        # With users moving, some check must see current < reference.
        assert trace.num_replacements >= 1
        for event in trace.events:
            assert event.hit_ratio_after >= event.hit_ratio_before - 1e-9
            assert event.bytes_shipped >= 0

    def test_replacement_improves_time_average(self, tight_scenario):
        """Re-placing helps on average (single runs can fluctuate: a
        fresh placement is optimal *now* but may age worse than the old
        one would have, so this averages over several mobility seeds)."""
        study = MobilityStudy(tight_scenario, sample_every=6)

        def mean_over_seeds(threshold: float) -> float:
            values = []
            for seed in range(3):
                trace = ReplacementPolicy(
                    study, TrimCachingGen(), threshold=threshold
                ).run(horizon_s=1800.0, seed=seed)
                values.append(trace.mean_hit_ratio)
            return float(np.mean(values))

        assert mean_over_seeds(1.0) >= mean_over_seeds(0.0) - 0.02

    def test_trace_shape(self, small_scenario):
        policy = ReplacementPolicy(
            MobilityStudy(small_scenario, sample_every=6),
            TrimCachingGen(),
            threshold=0.9,
        )
        trace = policy.run(horizon_s=300.0, seed=0)
        assert trace.times_s[0] == 0.0
        assert len(trace.times_s) == len(trace.hit_ratios)
        assert ((0 <= trace.hit_ratios) & (trace.hit_ratios <= 1)).all()

    def test_validation(self, small_scenario):
        study = MobilityStudy(small_scenario)
        for threshold in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigurationError, match="threshold"):
                ReplacementPolicy(study, TrimCachingGen(), threshold=threshold)
        with pytest.raises(ConfigurationError):
            MobilityStudy(small_scenario, sample_every=0)
        policy = ReplacementPolicy(study, TrimCachingGen())
        for horizon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="horizon_s"):
                policy.run(horizon_s=horizon)

    def test_zero_threshold_reproduces_mobility_study(self, small_scenario):
        study = MobilityStudy(small_scenario, sample_every=6)
        solver = TrimCachingGen()
        fixed = study.run(
            solver.solve(small_scenario.instance).placement, horizon_s=600.0, seed=3
        )
        trace = ReplacementPolicy(study, solver, threshold=0.0).run(
            horizon_s=600.0, seed=3
        )
        assert trace.times_s.tolist() == fixed.times_s.tolist()
        assert trace.hit_ratios.tolist() == fixed.hit_ratios.tolist()


class TestReplacementTrace:
    def test_aggregates(self):
        from repro.sim.replacement import ReplacementEvent

        trace = ReplacementTrace(
            times_s=np.array([0.0, 60.0]),
            hit_ratios=np.array([0.8, 0.7]),
            events=[
                ReplacementEvent(60.0, 0.6, 0.8, 1000),
                ReplacementEvent(120.0, 0.5, 0.7, 2000),
            ],
        )
        assert trace.num_replacements == 2
        assert trace.total_bytes_shipped == 3000
        assert trace.mean_hit_ratio == pytest.approx(0.75)
