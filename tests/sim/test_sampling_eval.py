"""Streaming and stratified-sampling evaluators."""

import numpy as np
import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.core.gen import TrimCachingGen
from repro.sim.config import ScenarioConfig
from repro.sim.evaluator import EvalSpec, PlacementEvaluator
from repro.sim.scenario import build_scenario


@pytest.fixture(scope="module")
def solved():
    config = ScenarioConfig(
        num_users=60, num_servers=4, num_models=15, requests_per_user=6
    )
    scenario = build_scenario(config, seed=1)
    placement = TrimCachingGen().solve(scenario.instance).placement
    return scenario, placement


class TestStreamingEvaluation:
    @pytest.mark.parametrize("chunk_size", [1, 7, 60, 128])
    def test_matches_exact(self, solved, chunk_size):
        scenario, placement = solved
        evaluator = PlacementEvaluator(scenario)
        exact = evaluator.expected_hit_ratio(placement)
        stream = evaluator.streaming_expected_hit_ratio(
            placement, chunk_size=chunk_size
        )
        assert np.isclose(stream.hit_ratio, exact, rtol=1e-12)

    def test_per_user_stats_cover_population(self, solved):
        scenario, placement = solved
        stream = PlacementEvaluator(scenario).streaming_expected_hit_ratio(
            placement, chunk_size=13
        )
        assert stream.per_user.count == scenario.num_users
        assert 0.0 <= stream.per_user.minimum <= stream.per_user.maximum
        # Per-user hit mass is bounded by the unit row sum of demand
        # (up to float accumulation).
        assert stream.per_user.maximum <= 1.0 + 1e-9

    def test_default_chunk_from_config(self):
        config = ScenarioConfig(
            num_users=40,
            num_servers=3,
            num_models=10,
            rng_scheme="v2",
            chunk_size=9,
        )
        scenario = build_scenario(config, seed=4)
        placement = TrimCachingGen().solve(scenario.instance).placement
        evaluator = PlacementEvaluator(scenario)
        stream = evaluator.streaming_expected_hit_ratio(placement)
        assert np.isclose(
            stream.hit_ratio,
            evaluator.expected_hit_ratio(placement),
            rtol=1e-12,
        )

    def test_rejects_bad_chunk(self, solved):
        scenario, placement = solved
        with pytest.raises(ValueError, match="chunk_size"):
            PlacementEvaluator(scenario).streaming_expected_hit_ratio(
                placement, chunk_size=0
            )


class TestSampledEvaluation:
    def test_full_sample_is_exact_with_zero_ci(self, solved):
        scenario, placement = solved
        evaluator = PlacementEvaluator(scenario)
        spec = EvalSpec(sample_users=scenario.num_users, strata=4, seed=0)
        sampled = evaluator.sampled_hit_ratio(placement, spec)
        assert np.isclose(
            sampled.estimate, evaluator.expected_hit_ratio(placement), rtol=1e-12
        )
        assert sampled.ci_half_width == 0.0
        assert sampled.sample_size == scenario.num_users

    def test_subsample_ci_covers_exact_across_seeds(self):
        """The 95% CI should contain the exact value for most seeds."""
        base = ScenarioConfig()
        # Scale radio resources with the population (as bench_scale.py
        # does) so per-user shares stay at paper levels and the
        # feasibility set does not degenerate to empty.
        config = ScenarioConfig(
            num_users=400,
            num_servers=6,
            num_models=20,
            requests_per_user=8,
            total_bandwidth_hz=base.total_bandwidth_hz * 4.0,
            total_power_watts=base.total_power_watts * 4.0,
            rng_scheme="v2",
        )
        scenario = build_scenario(config, seed=2)
        placement = TrimCachingGen().solve(scenario.instance).placement
        evaluator = PlacementEvaluator(scenario)
        exact = evaluator.expected_hit_ratio(placement)
        covered = 0
        seeds = range(30)
        for seed in seeds:
            spec = EvalSpec(sample_users=120, strata=4, seed=seed)
            sampled = evaluator.sampled_hit_ratio(placement, spec)
            assert sampled.sample_size < scenario.num_users
            assert sampled.ci_half_width > 0.0
            covered += sampled.contains(exact)
        # Nominal coverage is 95%; leave slack for the normal
        # approximation at this sample size.
        assert covered >= 25, f"CI covered exact in only {covered}/30 seeds"

    def test_estimates_are_seed_deterministic(self, solved):
        scenario, placement = solved
        evaluator = PlacementEvaluator(scenario)
        spec = EvalSpec(sample_users=20, strata=4, seed=7)
        first = evaluator.sampled_hit_ratio(placement, spec)
        second = evaluator.sampled_hit_ratio(placement, spec)
        assert first.estimate == second.estimate
        assert first.ci_half_width == second.ci_half_width

    def test_bounds_bracket_estimate(self, solved):
        scenario, placement = solved
        sampled = PlacementEvaluator(scenario).sampled_hit_ratio(
            placement, EvalSpec(sample_users=20, strata=2, seed=3)
        )
        assert sampled.lower <= sampled.estimate <= sampled.upper
        assert sampled.contains(sampled.estimate)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="strata"):
            EvalSpec(sample_users=10, strata=0)
        with pytest.raises(ValueError, match="at least 2 per stratum"):
            EvalSpec(sample_users=5, strata=4)
        for z in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="z"):
                EvalSpec(sample_users=10, strata=2, z=z)

    def test_too_many_strata_for_population(self, solved):
        scenario, placement = solved
        spec = EvalSpec(sample_users=scenario.num_users * 2, strata=scenario.num_users)
        with pytest.raises(ValueError, match="cannot allocate"):
            PlacementEvaluator(scenario).sampled_hit_ratio(placement, spec)


class TestSampledSweep:
    def test_sampled_sweep_runs(self):
        plan = ExperimentPlan(
            name="sampled sweep",
            sweep=SweepSpec("capacity", (0.1, 0.3)),
            solvers=(SolverSpec("gen", label="Gen"),),
            base=dict(num_servers=2, num_users=40, num_models=8, rng_scheme="v2"),
            num_topologies=2,
            evaluation="sampled",
            sample_users=16,
            seed=0,
            scale=1.0,
        )
        means = run_plan(plan).mean_of("Gen")
        assert len(means) == 2
        assert all(0.0 <= m <= 1.0 for m in means)
