"""Tests for the Independent Caching baseline."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.gen import TrimCachingGen
from repro.core.independent import IndependentCaching, IndependentConfig
from repro.core.objective import (
    hit_ratio,
    independent_storage_used,
    placement_is_feasible,
)
from repro.errors import ConfigurationError

from tests.conftest import FEASIBILITY_FORMS, in_feasibility_form
from tests.core.test_gen import gain_tie_instance
from tests.core.test_submodular import small_instances


class TestBasics:
    def test_knapsack_storage_respected(self, tiny_instance):
        result = IndependentCaching().solve(tiny_instance)
        assert placement_is_feasible(
            tiny_instance, result.placement, deduplicate=False
        )

    def test_cannot_exploit_sharing(self, tiny_instance):
        """Server 0 (20 MB) holds models 0+1 only via dedup; Independent
        Caching must fail to co-locate them."""
        result = IndependentCaching().solve(tiny_instance)
        on_zero = result.placement.models_on(0)
        assert independent_storage_used(tiny_instance, result.placement, 0) <= 20e6
        assert set(on_zero) != {0, 1}

    def test_hit_ratio_consistent(self, tiny_instance):
        result = IndependentCaching().solve(tiny_instance)
        assert result.hit_ratio == pytest.approx(
            hit_ratio(tiny_instance, result.placement)
        )

    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    def test_zero_capacity(self, tiny_library, feasibility):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 0.1),
            np.ones((2, 2, 3), dtype=bool),
            [0, 0],
        )
        result = IndependentCaching().solve(
            in_feasibility_form(instance, feasibility)
        )
        assert result.placement.total_placements() == 0
        assert result.hit_ratio == 0.0


class TestDominance:
    """TrimCaching with sharing must never lose to Independent Caching."""

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_gen_at_least_as_good(self, instance):
        gen = TrimCachingGen().solve(instance)
        independent = IndependentCaching().solve(instance)
        # Every knapsack-feasible placement is dedup-feasible, and both
        # use the same greedy rule, so Gen can only do better — up to
        # greedy tie-breaking noise, hence a small tolerance.
        assert gen.hit_ratio >= independent.hit_ratio - 0.05

    def test_strictly_better_on_sharing_instance(self, tiny_instance):
        gen = TrimCachingGen().solve(tiny_instance)
        independent = IndependentCaching().solve(tiny_instance)
        assert gen.hit_ratio > independent.hit_ratio

    def test_clear_gap_on_tight_scenario(self, tight_scenario):
        gen = TrimCachingGen().solve(tight_scenario.instance)
        independent = IndependentCaching().solve(tight_scenario.instance)
        assert gen.hit_ratio >= independent.hit_ratio


class TestMaskedArgmaxPort:
    """The masked-argmax loop must replay the seed loop byte for byte
    (the scenario-grid pinning lives in test_reference_equivalence)."""

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_identical_to_reference(self, instance):
        from repro.core.reference import ReferenceIndependent

        new = IndependentCaching().solve(instance)
        ref = ReferenceIndependent().solve(instance)
        assert new.placement == ref.placement
        assert new.hit_ratio == ref.hit_ratio
        assert new.stats["greedy_steps"] == ref.stats["greedy_steps"]

    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_sparse_primary_instance_identical(self, instance):
        dense = IndependentCaching().solve(instance)
        sparse = IndependentCaching().solve(
            in_feasibility_form(instance, "sparse")
        )
        assert dense.placement == sparse.placement


class TestEngines:
    """Tie-break pin and the inert ``engine`` field."""

    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    def test_gain_ties_resolve_to_lowest_server_then_model(self, feasibility):
        from repro.core.reference import ReferenceIndependent

        instance = gain_tie_instance()
        result = IndependentCaching().solve(
            in_feasibility_form(instance, feasibility)
        )
        assert result.placement.models_on(0) == [0]
        assert result.placement.models_on(1) == [2]
        reference = ReferenceIndependent().solve(instance)
        assert result.placement == reference.placement
        assert result.hit_ratio == reference.hit_ratio

    def test_rejects_compiled(self):
        with pytest.raises(ConfigurationError, match=r"dense\|sparse\|auto"):
            IndependentConfig(engine="compiled")
