"""Tests for the exhaustive optimal search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.exhaustive import ExhaustiveSearch
from repro.core.objective import hit_ratio
from repro.errors import SolverError

from tests.conftest import placement_of
from tests.core.test_submodular import small_instances
from tests.oracles.capacity import placement_is_feasible


def true_brute_force(instance):
    """Reference optimum over ALL feasible placements (exponential)."""
    num_servers = instance.num_servers
    num_models = instance.num_models
    best = 0.0
    per_server_choices = []
    for server in range(num_servers):
        feasible_subsets = []
        for r in range(num_models + 1):
            for subset in itertools.combinations(range(num_models), r):
                if instance.dedup_storage(subset) <= instance.capacities[server]:
                    feasible_subsets.append(subset)
        per_server_choices.append(feasible_subsets)
    for combo in itertools.product(*per_server_choices):
        placement = placement_of(
            num_servers, num_models, dict(enumerate(combo))
        )
        best = max(best, hit_ratio(instance, placement))
    return best


class TestOptimality:
    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_matches_true_brute_force(self, instance):
        result = ExhaustiveSearch().solve(instance)
        assert result.hit_ratio == pytest.approx(true_brute_force(instance))
        assert placement_is_feasible(instance, result.placement)

    def test_tiny_instance_optimum(self, tiny_instance):
        # Best: models 0+1 on server 0 (dedup) + model 2 on server 1 = 1.0.
        result = ExhaustiveSearch().solve(tiny_instance)
        assert result.hit_ratio == pytest.approx(1.0)

    def test_stats(self, tiny_instance):
        result = ExhaustiveSearch().solve(tiny_instance)
        assert len(result.stats["subsets_per_server"]) == 2
        assert result.stats["combinations"] >= 1


class TestGuards:
    def test_product_guard(self, tight_scenario):
        with pytest.raises(SolverError):
            ExhaustiveSearch(max_product=1).solve(tight_scenario.instance)

    def test_subset_guard(self, tight_scenario):
        with pytest.raises(SolverError):
            ExhaustiveSearch(max_subsets_per_server=1).solve(
                tight_scenario.instance
            )


class TestEdgeCases:
    def test_zero_capacity_everywhere(self, tiny_library):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 0.1),
            np.ones((2, 2, 3), dtype=bool),
            [0, 0],
        )
        result = ExhaustiveSearch().solve(instance)
        assert result.hit_ratio == 0.0
        assert result.placement.total_placements() == 0

    def test_single_server(self, tiny_library):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((1, 3), 0.2),
            np.ones((1, 1, 3), dtype=bool),
            [20_000_000],
        )
        result = ExhaustiveSearch().solve(instance)
        assert set(result.placement.models_on(0)) == {0, 1}

    def test_nothing_feasible(self, tiny_library):
        """nnz = 0: every per-server mask is empty and the optimum is 0."""
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 0.1),
            np.zeros((2, 2, 3), dtype=bool),
            [40_000_000, 40_000_000],
        )
        assert instance.sparse_feasible.nnz == 0
        result = ExhaustiveSearch().solve(instance)
        assert result.hit_ratio == true_brute_force(instance) == 0.0

    def test_zero_demand_column(self, tiny_library):
        """Model 2 is requested by nobody, so caching it gains nothing;
        only server 1 reaches any user, so the optimum is decided by
        server 1's per-pair user lists alone."""
        from tests.conftest import make_instance

        feasible = np.zeros((2, 2, 3), dtype=bool)
        feasible[1] = True
        instance = make_instance(
            tiny_library,
            np.array([[0.125, 0.5, 0.0], [0.125, 0.25, 0.0]]),
            feasible,
            [15_000_000, 15_000_000],
        )
        result = ExhaustiveSearch().solve(instance)
        assert result.hit_ratio == true_brute_force(instance) == 0.75
        assert result.placement.models_on(1) == [1]

    def test_capacity_equal_to_one_model_size(self, tiny_library):
        """A capacity of exactly a model's size holds that model (the
        storage test is ``<=``); one byte less holds nothing of it."""
        from tests.conftest import make_instance

        feasible = np.ones((2, 2, 3), dtype=bool)
        feasible[0, 1, :] = False  # server 0 cannot reach user 1
        demand = np.array([[0.25, 0.125, 0.5], [0.25, 0.5, 0.25]])
        size = int(tiny_library.model_size_array[2])
        exact = make_instance(tiny_library, demand, feasible, [size, size])
        result = ExhaustiveSearch().solve(exact)
        assert result.hit_ratio == true_brute_force(exact)
        assert result.placement.models_on(0) == [2]
        assert result.placement.models_on(1) == [2]
        short = make_instance(tiny_library, demand, feasible, [size - 1, size])
        result = ExhaustiveSearch().solve(short)
        assert result.hit_ratio == true_brute_force(short)
        assert result.placement.models_on(0) == []
