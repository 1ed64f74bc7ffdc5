"""Tests for placement diagnostics."""

import numpy as np
import pytest

from repro.core.analysis import analyze_placement
from repro.core.gen import TrimCachingGen
from repro.core.objective import hit_ratio
from repro.core.placement import Placement

from tests.conftest import placement_of


class TestAnalyzePlacement:
    def test_hit_ratio_matches_objective(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        report = analyze_placement(tight_scenario.instance, result.placement)
        assert report.hit_ratio == pytest.approx(result.hit_ratio)

    def test_miss_decomposition_sums_to_one(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        report = analyze_placement(tight_scenario.instance, result.placement)
        total = (
            report.hit_ratio
            + report.unserved_uncached
            + report.unserved_unreachable
        )
        assert total == pytest.approx(1.0)

    def test_server_summaries(self, tiny_instance):
        placement = placement_of(2, 3, {0: [0, 1]})
        report = analyze_placement(tiny_instance, placement)
        server0 = report.servers[0]
        assert server0.num_models == 2
        assert server0.used_bytes == 20_000_000
        assert server0.dedup_saved_bytes == 10_000_000  # shared block once
        assert server0.utilization == pytest.approx(1.0)
        assert report.servers[1].num_models == 0

    def test_replication_counts(self, tiny_instance):
        placement = placement_of(2, 3, {0: [0], 1: [0, 2]})
        report = analyze_placement(tiny_instance, placement)
        assert report.replication.tolist() == [2, 0, 1]
        assert report.mean_replication == pytest.approx(1.5)

    def test_empty_placement(self, tiny_instance):
        report = analyze_placement(
            tiny_instance, tiny_instance.new_placement()
        )
        assert report.hit_ratio == 0.0
        assert report.mean_replication == 0.0
        # Everything is reachable in the tiny fixture, so misses are all
        # "not cached".
        assert report.unserved_uncached == pytest.approx(1.0)
        assert report.unserved_unreachable == 0.0

    def test_unreachable_demand_identified(self, tiny_library):
        from tests.conftest import make_instance

        demand = np.full((2, 3), 1.0 / 3.0)
        feasible = np.zeros((1, 2, 3), dtype=bool)
        feasible[0, :, 0] = True  # only model 0 ever reachable
        instance = make_instance(tiny_library, demand, feasible, [10**9])
        placement = placement_of(1, 3, {0: [0, 1, 2]})
        report = analyze_placement(instance, placement)
        assert report.hit_ratio == pytest.approx(1 / 3)
        assert report.unserved_uncached == 0.0
        assert report.unserved_unreachable == pytest.approx(2 / 3)

    def test_jain_fairness_bounds(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        report = analyze_placement(tight_scenario.instance, result.placement)
        assert 0.0 < report.jain_fairness <= 1.0

    def test_jain_perfect_when_equal(self, tiny_instance):
        placement = Placement(np.ones((2, 3), dtype=bool))
        report = analyze_placement(tiny_instance, placement)
        assert report.jain_fairness == pytest.approx(1.0)

    def test_table_renders(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        report = analyze_placement(tight_scenario.instance, result.placement)
        table = report.to_table()
        assert "Placement diagnostics" in table
        assert "Jain fairness" in table
