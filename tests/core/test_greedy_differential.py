"""Differential test of the greedy solvers against the seed greedy loops.

Hypothesis draws small general-sharing libraries (models take arbitrary
block subsets, so marginal storage depends on what a server holds) and
adversarial instances:

* inexact demand — continuous floats, or a tied set with inexact sums
  (``0.1 + 0.2``), so gains carry rounding error;
* exact gain ties — repeated demand values over identical feasibility;
* zero-demand columns and model columns no user can be served;
* instances with no feasible request at all (``nnz == 0``), and with no
  servers at all (``M == 0``);
* exact-fit capacities — a server holds exactly the deduplicated or the
  full footprint of some model set.

Gen (accelerated and naive) must place exactly what
:class:`~repro.core.reference.ReferenceGen`'s naive scan places, and
Independent Caching exactly what
:class:`~repro.core.reference.ReferenceIndependent` places, with equal
hit ratios and step counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gen import TrimCachingGen
from repro.core.independent import IndependentCaching
from repro.core.placement import PlacementInstance
from repro.core.reference import ReferenceGen, ReferenceIndependent
from repro.core.sparse import SparseFeasibility
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model

#: Demand values with exact repeats (gain ties) and inexact sums.
TIED_INEXACT_VALUES = [0.0, 0.1, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-7]


@st.composite
def general_libraries(draw):
    """1-6 blocks of 1-20 bytes; every model an arbitrary block subset."""
    num_blocks = draw(st.integers(1, 6))
    blocks = [
        ParameterBlock(block_id, draw(st.integers(1, 20)))
        for block_id in range(num_blocks)
    ]
    models = [
        Model(
            model_id,
            tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(0, num_blocks - 1),
                            min_size=1,
                            max_size=num_blocks,
                        )
                    )
                )
            ),
        )
        for model_id in range(draw(st.integers(1, 5)))
    ]
    return ModelLibrary(blocks, models)


@st.composite
def greedy_instances(draw):
    library = draw(general_libraries())
    num_models = library.num_models
    num_servers = draw(st.integers(0, 3))
    num_users = draw(st.integers(1, 4))

    value = draw(
        st.sampled_from(
            [
                st.sampled_from(TIED_INEXACT_VALUES),
                st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            ]
        )
    )
    demand = np.array(
        [[draw(value) for _ in range(num_models)] for _ in range(num_users)]
    )
    for column in draw(st.sets(st.integers(0, num_models - 1))):
        demand[:, column] = 0.0
    if not demand.sum() > 0:
        demand[0, 0] = 0.1  # an instance needs some demand

    feasible = np.array(
        [
            [
                [draw(st.booleans()) for _ in range(num_models)]
                for _ in range(num_users)
            ]
            for _ in range(num_servers)
        ],
        dtype=bool,
    ).reshape(num_servers, num_users, num_models)
    for column in draw(st.sets(st.integers(0, num_models - 1))):
        feasible[:, :, column] = False
    if draw(st.integers(0, 9)) == 0:
        feasible[:] = False

    def footprint(models, deduplicate):
        block_sets = [library.model(model_id).block_set for model_id in models]
        if deduplicate:
            return library.blocks_size(frozenset().union(*block_sets))
        return sum(library.blocks_size(blocks) for blocks in block_sets)

    capacities = []
    for _ in range(num_servers):
        models = draw(st.sets(st.sampled_from(library.model_ids), min_size=1))
        capacities.append(
            draw(
                st.one_of(
                    st.just(0),
                    st.just(footprint(models, deduplicate=True)),
                    st.just(footprint(models, deduplicate=False)),
                    st.integers(0, 60),
                )
            )
        )
    if draw(st.booleans()):
        feasible = SparseFeasibility.from_dense(feasible)
    return PlacementInstance(library, demand, feasible, capacities)


class TestGreedyDifferential:
    @pytest.mark.parametrize("accelerated", [True, False])
    @given(instance=greedy_instances())
    @settings(max_examples=200, deadline=None)
    def test_gen_matches_reference(self, accelerated, instance):
        got = TrimCachingGen(accelerated=accelerated).solve(instance)
        expected = ReferenceGen(accelerated=False).solve(instance)
        assert got.placement == expected.placement
        assert got.hit_ratio == expected.hit_ratio
        assert got.stats["greedy_steps"] == expected.stats["greedy_steps"]

    @given(instance=greedy_instances())
    @settings(max_examples=200, deadline=None)
    def test_independent_matches_reference(self, instance):
        got = IndependentCaching().solve(instance)
        expected = ReferenceIndependent().solve(instance)
        assert got.placement == expected.placement
        assert got.hit_ratio == expected.hit_ratio
        assert got.stats["greedy_steps"] == expected.stats["greedy_steps"]

    @pytest.mark.parametrize("accelerated", [True, False])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_full_server_still_takes_a_fully_shared_model(
        self, accelerated, sparse
    ):
        """Model 0 fills server 0 to exactly 0 remaining bytes; model 1's
        blocks are all inside it (marginal 0) and it still gains, so it is
        cached at exact capacity. Model 2 needs a byte more and is not."""
        library = ModelLibrary(
            [ParameterBlock(0, 10), ParameterBlock(1, 5), ParameterBlock(2, 1)],
            [Model(0, (0, 1)), Model(1, (0,)), Model(2, (1, 2))],
        )
        demand = np.array([[0.5, 0.3, 0.2], [0.4, 0.1, 0.5]])
        feasible = np.zeros((2, 2, 3), dtype=bool)
        feasible[0] = True  # server 1 reaches nobody
        if sparse:
            feasible = SparseFeasibility.from_dense(feasible)
        instance = PlacementInstance(library, demand, feasible, [15, 15])
        got = TrimCachingGen(accelerated=accelerated).solve(instance)
        expected = ReferenceGen(accelerated=False).solve(instance)
        assert got.placement.models_on(0) == [0, 1]
        assert got.placement == expected.placement
        assert got.hit_ratio == expected.hit_ratio
        assert got.stats["greedy_steps"] == expected.stats["greedy_steps"]
