"""Tests for the extra baselines (random, top-popularity)."""

import numpy as np
import pytest

from repro.core.extras import RandomPlacement, TopPopularityPlacement
from repro.core.gen import TrimCachingGen
from repro.core.objective import placement_is_feasible


class TestRandomPlacement:
    def test_feasible(self, tight_scenario):
        result = RandomPlacement(seed=0).solve(tight_scenario.instance)
        assert placement_is_feasible(tight_scenario.instance, result.placement)

    def test_reproducible(self, tight_scenario):
        a = RandomPlacement(seed=5).solve(tight_scenario.instance)
        b = RandomPlacement(seed=5).solve(tight_scenario.instance)
        assert a.placement == b.placement

    def test_knapsack_mode_feasible(self, tight_scenario):
        result = RandomPlacement(seed=0, deduplicate=False).solve(
            tight_scenario.instance
        )
        assert placement_is_feasible(
            tight_scenario.instance, result.placement, deduplicate=False
        )

    def test_fills_capacity(self, tiny_instance):
        result = RandomPlacement(seed=1).solve(tiny_instance)
        # With everything feasible and loose per-model sizes, the random
        # policy caches at least one model per server.
        for server in range(tiny_instance.num_servers):
            assert result.placement.models_on(server)


class TestTopPopularity:
    def test_feasible(self, tight_scenario):
        result = TopPopularityPlacement().solve(tight_scenario.instance)
        assert placement_is_feasible(tight_scenario.instance, result.placement)

    def test_caches_by_aggregate_demand(self, tiny_instance):
        result = TopPopularityPlacement().solve(tiny_instance)
        popularity = tiny_instance.demand.sum(axis=0)
        best = int(np.argmax(popularity))
        # The most popular model is cached somewhere.
        assert result.placement.matrix[:, best].any()

    def test_gen_dominates_baselines(self, tight_scenario):
        """Sanity: the optimised greedy beats both naive baselines."""
        gen = TrimCachingGen().solve(tight_scenario.instance)
        top = TopPopularityPlacement().solve(tight_scenario.instance)
        rand = RandomPlacement(seed=0).solve(tight_scenario.instance)
        assert gen.hit_ratio >= top.hit_ratio - 1e-9
        assert gen.hit_ratio >= rand.hit_ratio - 1e-9
