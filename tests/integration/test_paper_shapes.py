"""Integration tests asserting the paper's qualitative findings.

These are the repo's acceptance tests: each corresponds to a claim in
§VII and checks its *shape* (who wins, directions of trends), not the
absolute numbers, on reduced-scale sweeps.
"""

import numpy as np
import pytest

from repro.api import run_plan
from repro.core.gen import TrimCachingGen
from repro.core.independent import IndependentCaching
from repro.core.spec import TrimCachingSpec
from repro.sim import experiments
from repro.sim.config import ScenarioConfig
from repro.utils.stats import average_relative_gain
from repro.utils.units import GB


@pytest.fixture(scope="module")
def fig4a_small():
    plan = experiments.fig4a_plan(
        num_topologies=2, capacities_gb=(0.5, 1.0, 1.5), seed=0, scale=0.1
    )
    return run_plan(plan)


@pytest.fixture(scope="module")
def fig5a_small():
    plan = experiments.fig5a_plan(
        num_topologies=2, capacities_gb=(0.5, 1.0, 1.5), seed=0, scale=0.1
    )
    return run_plan(plan)


class TestFig4Shapes:
    """Special case (paper Fig. 4)."""

    def test_hit_ratio_increases_with_capacity(self, fig4a_small):
        for algo in fig4a_small.series:
            means = fig4a_small.mean_of(algo)
            assert means[-1] >= means[0] - 1e-9, algo

    def test_spec_beats_gen_beats_independent(self, fig4a_small):
        spec = fig4a_small.mean_of("TrimCaching Spec").mean()
        gen = fig4a_small.mean_of("TrimCaching Gen").mean()
        independent = fig4a_small.mean_of("Independent Caching").mean()
        assert spec >= gen - 0.01
        assert gen > independent

    def test_double_digit_gain_over_independent(self, fig4a_small):
        """Paper: Spec is ~34% above Independent on average (Fig. 4a)."""
        gain = average_relative_gain(
            fig4a_small.mean_of("TrimCaching Spec"),
            fig4a_small.mean_of("Independent Caching"),
        )
        assert gain > 0.08

    def test_hit_ratio_increases_with_servers(self):
        plan = experiments.fig4b_plan(
            num_topologies=2, server_counts=(4, 8, 12), seed=1, scale=0.1
        )
        result = run_plan(plan)
        for algo in ("TrimCaching Spec", "TrimCaching Gen"):
            means = result.mean_of(algo)
            assert means[-1] >= means[0] - 0.02, algo

    def test_hit_ratio_decreases_with_users(self):
        plan = experiments.fig4c_plan(
            num_topologies=2, user_counts=(10, 30, 50), seed=2, scale=0.1
        )
        result = run_plan(plan)
        for algo in result.series:
            means = result.mean_of(algo)
            assert means[-1] <= means[0] + 0.02, algo


class TestFig5Shapes:
    """General case (paper Fig. 5)."""

    def test_gen_beats_independent(self, fig5a_small):
        gen = fig5a_small.mean_of("TrimCaching Gen")
        independent = fig5a_small.mean_of("Independent Caching")
        assert (gen >= independent - 1e-9).all()
        assert gen.mean() > independent.mean()

    def test_hit_ratio_increases_with_capacity(self, fig5a_small):
        for algo in fig5a_small.series:
            means = fig5a_small.mean_of(algo)
            assert means[-1] >= means[0] - 1e-9


class TestFig6Shapes:
    def test_spec_matches_optimal_gen_close(self):
        plan = experiments.fig6a_plan(num_topologies=3, seed=0)
        result = run_plan(plan).comparison()
        optimal = result.mean_hit("Optimal (exhaustive)")
        assert result.mean_hit("TrimCaching Spec") == pytest.approx(
            optimal, rel=0.02
        )
        assert result.mean_hit("TrimCaching Gen") >= 0.85 * optimal

    def test_gen_much_faster_than_spec_in_general_case(self):
        from repro.sim.runner import study_seed
        from repro.sim.scenario import build_scenario

        plan = experiments.fig6b_plan(num_topologies=1, seed=0)
        result = run_plan(plan).comparison()
        # One Gen solve takes under a millisecond, so a single sample is
        # at the mercy of one scheduler stall: time Gen as the best of
        # several solves of the same topology the plan ran.
        scenario = build_scenario(plan.base_config(), study_seed(plan.seed, 0))
        gen = plan.algorithms()["TrimCaching Gen"]
        gen_s = min(gen.solve(scenario.instance).runtime_s for _ in range(7))
        # Paper: ~3900x; any large factor demonstrates the point.
        assert result.mean_runtime("TrimCaching Spec") / gen_s > 30


class TestFig7Shape:
    def test_graceful_degradation_under_mobility(self):
        """Paper: only ~5-6% degradation over 2 h. We run 30 min at small
        scale and require bounded degradation."""
        plan = experiments.fig7_plan(
            num_runs=2, horizon_s=1800.0, sample_every=60, seed=0
        )
        result = run_plan(plan).mobility()
        for algo in result.series:
            assert result.degradation(algo) < 0.35, algo
            means = result.series[algo].means
            assert means[0] > 0.3  # starts from a useful hit ratio


class TestStorageEfficiencyMechanism:
    """The core mechanism: dedup frees capacity, so TrimCaching stores
    more models per server than Independent Caching."""

    def test_more_models_cached_with_sharing(self):
        config = ScenarioConfig(
            num_servers=3, num_users=8, num_models=12, storage_bytes=int(0.2 * GB)
        )
        from repro.sim.scenario import build_scenario

        scenario = build_scenario(config, seed=5)
        gen = TrimCachingGen().solve(scenario.instance)
        independent = IndependentCaching().solve(scenario.instance)
        assert (
            gen.placement.total_placements()
            >= independent.placement.total_placements()
        )
