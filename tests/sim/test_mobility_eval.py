"""Tests for the Fig.-7 mobility study."""

import numpy as np
import pytest

from repro.core.gen import TrimCachingGen
from repro.errors import ConfigurationError
from repro.network.mobility import MobilityModel
from repro.sim.mobility_eval import MobilityStudy, MobilityTrace


class TestMobilityStudy:
    def test_trace_shape(self, small_scenario):
        result = TrimCachingGen().solve(small_scenario.instance)
        study = MobilityStudy(small_scenario, sample_every=6)
        trace = study.run(result.placement, horizon_s=300.0, seed=0)
        assert trace.times_s[0] == 0.0
        assert trace.times_s[-1] == pytest.approx(300.0)
        assert len(trace.times_s) == len(trace.hit_ratios)
        assert ((0.0 <= trace.hit_ratios) & (trace.hit_ratios <= 1.0)).all()

    def test_initial_matches_static_evaluation(self, small_scenario):
        result = TrimCachingGen().solve(small_scenario.instance)
        study = MobilityStudy(small_scenario)
        trace = study.run(result.placement, horizon_s=60.0, seed=0)
        assert trace.initial == pytest.approx(result.hit_ratio)

    def test_reproducible(self, small_scenario):
        result = TrimCachingGen().solve(small_scenario.instance)
        study = MobilityStudy(small_scenario, sample_every=6)
        a = study.run(result.placement, horizon_s=120.0, seed=5)
        b = study.run(result.placement, horizon_s=120.0, seed=5)
        assert a.times_s.tolist() == b.times_s.tolist()
        assert a.hit_ratios.tolist() == b.hit_ratios.tolist()

    def test_zero_horizon(self, small_scenario):
        result = TrimCachingGen().solve(small_scenario.instance)
        study = MobilityStudy(small_scenario)
        trace = study.run(result.placement, horizon_s=0.0, seed=0)
        assert len(trace.times_s) == 1

    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            MobilityStudy(small_scenario, sample_every=0)
        study = MobilityStudy(small_scenario)
        result = TrimCachingGen().solve(small_scenario.instance)
        with pytest.raises(ValueError):
            study.run(result.placement, horizon_s=-1.0)

    def test_validation_raises_configuration_error(self, small_scenario):
        with pytest.raises(ConfigurationError, match="sample_every"):
            MobilityStudy(small_scenario, sample_every=0)
        study = MobilityStudy(small_scenario)
        result = TrimCachingGen().solve(small_scenario.instance)
        for horizon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="horizon_s"):
                study.run(result.placement, horizon_s=horizon)


class TestSharedSnapshots:
    """A study walks its trajectory once per (horizon, seed)."""

    def test_snapshots_reused_across_placements(self, small_scenario, monkeypatch):
        slots = []
        trajectory = MobilityModel.trajectory
        monkeypatch.setattr(
            MobilityModel,
            "trajectory",
            lambda self, positions, num_slots, seed=None: slots.append(num_slots)
            or trajectory(self, positions, num_slots, seed),
        )
        study = MobilityStudy(small_scenario, sample_every=6)
        gen = TrimCachingGen().solve(small_scenario.instance).placement
        empty = small_scenario.instance.new_placement()
        study.run(gen, horizon_s=120.0, seed=5)
        first = study.snapshots(120.0, seed=5)
        study.run(empty, horizon_s=120.0, seed=5)
        assert sum(slots) == 24
        assert study.snapshots(120.0, seed=5) is first
        study.run(gen, horizon_s=120.0, seed=6)
        assert sum(slots) == 48

    def test_matches_fresh_study(self, small_scenario):
        gen = TrimCachingGen().solve(small_scenario.instance).placement
        empty = small_scenario.instance.new_placement()
        shared = MobilityStudy(small_scenario, sample_every=6)
        shared.run(gen, horizon_s=120.0, seed=(1, 2))
        for placement in (gen, empty):
            fresh = MobilityStudy(small_scenario, sample_every=6).run(
                placement, horizon_s=120.0, seed=(1, 2)
            )
            reused = shared.run(placement, horizon_s=120.0, seed=(1, 2))
            assert reused.times_s.tolist() == fresh.times_s.tolist()
            assert reused.hit_ratios.tolist() == fresh.hit_ratios.tolist()

    def test_generator_seed_walks_afresh(self, small_scenario):
        study = MobilityStudy(small_scenario, sample_every=6)
        rng = np.random.default_rng(0)
        first = study.snapshots(60.0, seed=rng)
        assert study.snapshots(60.0, seed=rng) is not first

    def test_samples_every_nth_and_last_slot(self, small_scenario):
        times, instances = MobilityStudy(small_scenario, sample_every=5).snapshots(
            62.0, seed=0
        )
        assert times == (0.0, 25.0, 50.0, 60.0)
        assert len(instances) == 4
        assert instances[0] is small_scenario.instance


class TestMobilityTrace:
    def test_degradation(self):
        trace = MobilityTrace(
            times_s=np.array([0.0, 60.0]), hit_ratios=np.array([0.8, 0.76])
        )
        assert trace.degradation == pytest.approx(0.05)
        assert trace.initial == 0.8
        assert trace.final == 0.76

    def test_zero_initial(self):
        trace = MobilityTrace(
            times_s=np.array([0.0, 60.0]), hit_ratios=np.array([0.0, 0.0])
        )
        assert trace.degradation == 0.0
