"""Tests for the approximation-bound calculators."""

import pytest
from hypothesis import given, settings

from repro.core.bounds import (
    gamma_bound,
    max_models_per_server,
    spec_guarantee,
)
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.gen import TrimCachingGen
from repro.errors import ConfigurationError

from tests.core.test_submodular import small_instances


class TestSpecGuarantee:
    def test_values(self):
        assert spec_guarantee(0.0) == 0.5
        assert spec_guarantee(0.1) == pytest.approx(0.45)
        assert spec_guarantee(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spec_guarantee(-0.1)
        with pytest.raises(ConfigurationError):
            spec_guarantee(1.1)


class TestGammaBound:
    def test_tiny_instance(self, tiny_instance):
        # Server 0 (20 MB): cheapest specific footprints are 5+5 MB, then
        # model 2's 10 MB -> all three "fit" optimistically. Server 1
        # (10 MB): two 5 MB specifics fit.
        assert max_models_per_server(tiny_instance, 0) == 3
        assert max_models_per_server(tiny_instance, 1) == 2
        assert gamma_bound(tiny_instance) == 5

    def test_gamma_upper_bounds_any_feasible_placement(self, tight_scenario):
        instance = tight_scenario.instance
        gen = TrimCachingGen().solve(instance)
        assert gen.placement.total_placements() <= gamma_bound(instance)

    @given(small_instances())
    @settings(max_examples=30, deadline=None)
    def test_theorem_3_bound_holds(self, instance):
        """U(greedy) >= U(opt)/Γ with the (over-estimated) Γ."""
        greedy = TrimCachingGen().solve(instance)
        optimal = ExhaustiveSearch().solve(instance)
        gamma = gamma_bound(instance)
        guarantee = 1.0 / gamma if gamma > 0 else 0.0
        assert greedy.hit_ratio >= guarantee * optimal.hit_ratio - 1e-9

    def test_zero_capacity_gives_zero_gamma(self, tiny_library):
        import numpy as np

        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((1, 3), 0.1),
            np.ones((1, 1, 3), dtype=bool),
            [0],
        )
        assert gamma_bound(instance) == 0

    def test_guarantee_shrinks_with_scale(self, tiny_instance, tight_scenario):
        """Theorem 3's point: the bound degrades as the instance grows."""
        assert gamma_bound(tight_scenario.instance) >= gamma_bound(tiny_instance)
