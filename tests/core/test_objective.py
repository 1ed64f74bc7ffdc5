"""Tests for the objective U(X), storage g_m, and the coverage tracker."""

import numpy as np
import pytest

from repro.core.objective import (
    CoverageTracker,
    hit_ratio,
    served_matrix,
    storage_used,
)
from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.utils.units import MB

from tests.conftest import placement_of
from tests.oracles.capacity import independent_storage_used, placement_is_feasible


class TestHitRatio:
    def test_empty_placement_is_zero(self, tiny_instance):
        assert hit_ratio(tiny_instance, tiny_instance.new_placement()) == 0.0

    def test_full_placement_is_one(self, tiny_instance):
        placement = Placement(np.ones((2, 3), dtype=bool))
        assert hit_ratio(tiny_instance, placement) == pytest.approx(1.0)

    def test_equation_2_by_hand(self, tiny_instance):
        # Cache model 0 on server 0 only: serves p[0,0]+p[1,0] = 0.6 of 2.
        placement = placement_of(2, 3, {0: [0]})
        assert hit_ratio(tiny_instance, placement) == pytest.approx(0.6 / 2.0)

    def test_duplicate_placement_counted_once(self, tiny_instance):
        single = placement_of(2, 3, {0: [0]})
        double = placement_of(2, 3, {0: [0], 1: [0]})
        assert hit_ratio(tiny_instance, double) == pytest.approx(
            hit_ratio(tiny_instance, single)
        )

    def test_respects_feasibility(self, tiny_library):
        demand = np.full((2, 3), 1.0 / 3.0)
        feasible = np.zeros((1, 2, 3), dtype=bool)
        feasible[0, 0, :] = True  # only user 0 reachable
        from tests.conftest import make_instance

        instance = make_instance(tiny_library, demand, feasible, [100 * MB])
        placement = placement_of(1, 3, {0: [0, 1, 2]})
        assert hit_ratio(instance, placement) == pytest.approx(0.5)

    def test_nothing_feasible_is_zero(self, tiny_library):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 1.0 / 3.0),
            np.zeros((2, 2, 3), dtype=bool),
            [100 * MB, 100 * MB],
        )
        placement = Placement(np.ones((2, 3), dtype=bool))
        assert instance.sparse_feasible.nnz == 0
        assert not served_matrix(instance, placement).any()
        assert hit_ratio(instance, placement) == 0.0

    def test_shape_mismatch_rejected(self, tiny_instance):
        bad = Placement(np.zeros((3, 3), dtype=bool))
        with pytest.raises(PlacementError):
            hit_ratio(tiny_instance, bad)
        with pytest.raises(PlacementError):
            served_matrix(tiny_instance, Placement(np.zeros((2, 4), dtype=bool)))


class TestStorage:
    def test_deduplicated(self, tiny_instance):
        placement = placement_of(2, 3, {0: [0, 1]})
        assert storage_used(tiny_instance, placement, 0) == 20 * MB
        assert storage_used(tiny_instance, placement, 1) == 0

    def test_independent(self, tiny_instance):
        placement = placement_of(2, 3, {0: [0, 1]})
        assert independent_storage_used(tiny_instance, placement, 0) == 30 * MB

    def test_feasibility_dedup_vs_knapsack(self, tiny_instance):
        # Server 0 capacity is 20 MB: models 0+1 fit deduplicated but not
        # under knapsack accounting.
        placement = placement_of(2, 3, {0: [0, 1]})
        assert placement_is_feasible(tiny_instance, placement, deduplicate=True)
        assert not placement_is_feasible(
            tiny_instance, placement, deduplicate=False
        )

    def test_over_capacity_infeasible(self, tiny_instance):
        placement = placement_of(2, 3, {1: [0, 2]})  # 25 MB > 10
        assert not placement_is_feasible(tiny_instance, placement)


class TestCoverageTracker:
    def test_gain_matches_hit_ratio_delta(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        placement = tiny_instance.new_placement()
        for server, model in [(0, 0), (1, 2), (0, 1)]:
            before = hit_ratio(tiny_instance, placement)
            gain_mass = tracker.gain(server, model)
            placement.add(server, model)
            after = hit_ratio(tiny_instance, placement)
            assert gain_mass / tiny_instance.total_demand == pytest.approx(
                after - before
            )
            tracker.mark_served(server, model)

    def test_gain_matrix_matches_scalar_gain(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        tracker.mark_served(0, 0)
        matrix = tracker.gain_matrix()
        for server in range(2):
            for model in range(3):
                assert matrix[server, model] == pytest.approx(
                    tracker.gain(server, model)
                )

    def test_server_gains_row(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        row = tracker.server_gains(1)
        assert row == pytest.approx(
            [tracker.gain(1, model) for model in range(3)]
        )

    def test_marking_served_zeroes_gain(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        tracker.mark_served(0, 1)
        # Everything feasible, so model 1 is now fully served everywhere.
        assert tracker.gain(1, 1) == 0.0

    def test_hit_ratio_accumulates(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        tracker.mark_server_models(0, [0, 1, 2])
        assert tracker.hit_ratio() == pytest.approx(1.0)

    def test_covered_mass(self, tiny_instance):
        tracker = CoverageTracker(tiny_instance)
        assert tracker.covered_mass() == 0.0
        tracker.mark_served(0, 0)
        assert tracker.covered_mass() == pytest.approx(0.6)
