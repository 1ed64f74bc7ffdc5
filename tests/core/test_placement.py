"""Tests for PlacementInstance and Placement."""

import numpy as np
import pytest

from repro.core.placement import Placement, PlacementInstance
from repro.errors import PlacementError
from repro.utils.units import MB

from tests.conftest import placement_of


class TestPlacementInstance:
    def test_shapes(self, tiny_instance):
        assert tiny_instance.num_servers == 2
        assert tiny_instance.num_users == 2
        assert tiny_instance.num_models == 3
        assert tiny_instance.total_demand == pytest.approx(2.0)

    def test_index_mapping(self, tiny_instance):
        assert tiny_instance.index_to_model_id == (0, 1, 2)

    def test_index_mapping_non_contiguous_ids(self, tiny_library):
        sub = tiny_library.subset([1, 2])
        demand = np.full((1, 2), 0.5)
        feasible = np.ones((1, 1, 2), dtype=bool)
        instance = PlacementInstance(sub, demand, feasible, [100 * MB])
        assert instance.index_to_model_id == (1, 2)

    def test_model_sizes(self, tiny_instance):
        assert tiny_instance.model_sizes.tolist() == [15 * MB, 15 * MB, 10 * MB]

    def test_marginal_storage(self, tiny_instance):
        assert tiny_instance.marginal_storage(0, set()) == 15 * MB
        assert tiny_instance.marginal_storage(1, {0}) == 5 * MB

    def test_dedup_storage(self, tiny_instance):
        assert tiny_instance.dedup_storage([0, 1]) == 20 * MB
        assert tiny_instance.dedup_storage([]) == 0

    def test_validation(self, tiny_library):
        good_demand = np.full((2, 3), 0.1)
        good_feasible = np.ones((2, 2, 3), dtype=bool)
        with pytest.raises(PlacementError):
            PlacementInstance(tiny_library, np.ones(3), good_feasible, [1, 1])
        with pytest.raises(PlacementError):
            PlacementInstance(
                tiny_library, good_demand, np.ones((2, 2, 2), dtype=bool), [1, 1]
            )
        with pytest.raises(PlacementError):
            PlacementInstance(tiny_library, good_demand, good_feasible, [1])
        with pytest.raises(PlacementError):
            PlacementInstance(tiny_library, good_demand, good_feasible, [-1, 1])
        with pytest.raises(PlacementError):
            PlacementInstance(
                tiny_library, np.zeros((2, 3)), good_feasible, [1, 1]
            )
        with pytest.raises(PlacementError):
            PlacementInstance(
                tiny_library, -good_demand, good_feasible, [1, 1]
            )

    def test_demand_library_mismatch(self, tiny_library):
        with pytest.raises(PlacementError):
            PlacementInstance(
                tiny_library,
                np.full((2, 4), 0.1),
                np.ones((2, 2, 4), dtype=bool),
                [1, 1],
            )


class TestPlacement:
    def test_add_remove_contains(self, tiny_instance):
        placement = tiny_instance.new_placement()
        assert not placement.contains(0, 1)
        placement.add(0, 1)
        assert placement.contains(0, 1)
        assert placement.models_on(0) == [1]
        placement.remove(0, 1)
        assert placement.total_placements() == 0

    def test_copy_is_independent(self, tiny_instance):
        placement = tiny_instance.new_placement()
        clone = placement.copy()
        clone.add(0, 0)
        assert placement.total_placements() == 0

    def test_equality(self):
        a = placement_of(1, 2, {0: [1]})
        b = placement_of(1, 2, {0: [1]})
        c = placement_of(1, 2, {0: [0]})
        assert a == b
        assert a != c

    def test_frozen_form_hashable(self):
        placement = placement_of(2, 3, {0: [1], 1: [0, 2]})
        frozen = placement.frozen()
        assert hash(frozen)
        assert frozen[1] == frozenset({0, 2})

    def test_non_2d_rejected(self):
        with pytest.raises(PlacementError):
            Placement(np.zeros(3, dtype=bool))
