"""Property tests for Propositions 1-2: submodularity of U and g_m."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacementInstance
from tests.oracles.submodular import (
    is_monotone_sampled,
    is_submodular_exhaustive,
    is_submodular_sampled,
    objective_set_function,
    placement_ground_set,
    storage_set_function,
)
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model


# ----------------------------------------------------------------------
# Random small instances for hypothesis
# ----------------------------------------------------------------------
@st.composite
def small_instances(draw):
    """Random libraries with overlapping blocks + random demand/feasibility."""
    num_blocks = draw(st.integers(2, 6))
    num_models = draw(st.integers(2, 4))
    num_servers = draw(st.integers(1, 2))
    num_users = draw(st.integers(1, 3))
    blocks = [
        ParameterBlock(index, draw(st.integers(1, 20)))
        for index in range(num_blocks)
    ]
    models = []
    for model_id in range(num_models):
        member = draw(
            st.lists(
                st.integers(0, num_blocks - 1),
                min_size=1,
                max_size=num_blocks,
                unique=True,
            )
        )
        models.append(Model(model_id, tuple(member)))
    library = ModelLibrary(blocks, models)
    demand = np.array(
        [
            [draw(st.floats(0.0, 1.0)) for _ in range(num_models)]
            for _ in range(num_users)
        ]
    )
    if demand.sum() == 0:
        demand[0, 0] = 1.0
    feasible = np.array(
        [
            [
                [draw(st.booleans()) for _ in range(num_models)]
                for _ in range(num_users)
            ]
            for _ in range(num_servers)
        ],
        dtype=bool,
    )
    capacities = [draw(st.integers(0, 100)) for _ in range(num_servers)]
    return PlacementInstance(library, demand, feasible, capacities)


class TestObjectiveSubmodularity:
    """Proposition 1 (objective part)."""

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_sampled_submodular(self, instance):
        f = objective_set_function(instance)
        ground = placement_ground_set(instance)
        assert is_submodular_sampled(f, ground, trials=60, seed=0)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, instance):
        f = objective_set_function(instance)
        ground = placement_ground_set(instance)
        assert is_monotone_sampled(f, ground, trials=60, seed=0)

    def test_exhaustive_on_tiny(self, tiny_instance):
        f = objective_set_function(tiny_instance)
        ground = placement_ground_set(tiny_instance)[:5]
        ok, violations = is_submodular_exhaustive(f, ground)
        assert ok, violations


class TestStorageSubmodularity:
    """Proposition 1 (constraint part): g_m is submodular over models."""

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_sampled_submodular(self, instance):
        g = storage_set_function(instance, server=0)
        ground = list(range(instance.num_models))
        assert is_submodular_sampled(g, ground, trials=60, seed=1)

    def test_exhaustive_on_tiny(self, tiny_instance):
        g = storage_set_function(tiny_instance, server=0)
        ok, violations = is_submodular_exhaustive(g, [0, 1, 2])
        assert ok, violations

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, instance):
        g = storage_set_function(instance, server=0)
        ground = list(range(instance.num_models))
        assert is_monotone_sampled(g, ground, trials=60, seed=2)


class TestCheckersDetectViolations:
    """The checkers must be able to refute, not just confirm."""

    def test_exhaustive_refutes_supermodular(self):
        # f(S) = |S|^2 is strictly supermodular.
        f = lambda s: float(len(s) ** 2)
        ok, violations = is_submodular_exhaustive(f, [1, 2, 3])
        assert not ok
        assert violations

    def test_sampled_refutes_supermodular(self):
        f = lambda s: float(len(s) ** 2)
        assert not is_submodular_sampled(f, list(range(6)), trials=300, seed=0)

    def test_monotone_refutes_decreasing(self):
        f = lambda s: -float(len(s))
        assert not is_monotone_sampled(f, list(range(4)), trials=100, seed=0)

    def test_modular_passes_both(self):
        f = lambda s: float(sum(s))
        ok, _ = is_submodular_exhaustive(f, [1, 2, 3])
        assert ok


class TestP12Supermodularity:
    """The block-level reformulation P1.2's objective is supermodular in Y
    (the paper's Proposition-2 mapping): caching more blocks can only
    *increase* the marginal value of another block."""

    def test_block_level_supermodular_example(self, tiny_library):
        # U as a function of cached-block sets on a single server: a model
        # is available only when ALL its blocks are cached, so the value
        # function has increasing marginals (supermodular).
        demand = np.array([[1.0, 0.0, 0.0]])
        feasible = np.ones((1, 1, 3), dtype=bool)
        instance = PlacementInstance(tiny_library, demand, feasible, [10**9])

        def value_of_blocks(block_set):
            # Model 0 needs blocks {0, 1}.
            return 1.0 if {0, 1} <= set(block_set) else 0.0

        # Adding block 1 to S={} gains 0; adding it to T={0} gains 1:
        # increasing marginals, i.e. supermodular (and NOT submodular).
        ok, _ = is_submodular_exhaustive(value_of_blocks, [0, 1])
        assert not ok
