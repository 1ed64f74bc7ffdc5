"""The array-form combination set against the seed frozenset formulation.

:func:`repro.core.dp.enumerate_shared_combinations` returns a
:class:`~repro.core.dp.CombinationSet` (a level matrix plus int64 sizes);
:func:`repro.core.reference.reference_enumerate_shared_combinations` is
the seed's list of frozensets. Both must agree on order, blocks, sizes
and on which models each combination makes eligible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dp import CombinationSet, enumerate_shared_combinations
from repro.core.placement import PlacementInstance
from tests.oracles.reference import (
    ReferenceSpec,
    reference_enumerate_shared_combinations,
)
from repro.core.spec import TrimCachingSpec, _sequential_row_sums
from repro.errors import SolverError
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model


@st.composite
def chain_libraries(draw, max_chains=4):
    """Libraries whose shared sets form nested chains (fine-tuning shape).

    Per chain: a root of 1-5 blocks and a few distinct freeze depths, each
    depth shared by at least two models that add one specific block.
    Some libraries also hold standalone models with no shared block.
    """
    sizes = st.integers(1, 10_000)
    blocks, models = [], []

    def new_block():
        blocks.append(ParameterBlock(len(blocks), draw(sizes)))
        return blocks[-1].block_id

    for _ in range(draw(st.integers(0, max_chains))):
        root = [new_block() for _ in range(draw(st.integers(1, 5)))]
        depths = draw(
            st.lists(
                st.integers(1, len(root)), min_size=1, max_size=3, unique=True
            )
        )
        for depth in depths:
            for _ in range(draw(st.integers(2, 3))):
                models.append(Model(len(models), tuple(root[:depth]) + (new_block(),)))
    for _ in range(draw(st.integers(0 if models else 1, 2))):
        models.append(Model(len(models), (new_block(), new_block())))
    return ModelLibrary(blocks, models)


@st.composite
def general_libraries(draw):
    """Random block subsets over a small pool: usually not chain-shaped."""
    pool = draw(st.integers(2, 6))
    blocks = [ParameterBlock(b, draw(st.integers(1, 10_000))) for b in range(pool)]
    subsets = draw(
        st.lists(
            st.lists(st.integers(0, pool - 1), min_size=1, max_size=pool, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    models = [Model(i, tuple(sorted(subset))) for i, subset in enumerate(subsets)]
    return ModelLibrary(blocks, models)


def model_shared_sets(library):
    shared = library.shared_block_ids
    return [library.model(i).block_set & shared for i in library.model_ids]


def assert_same_as_reference(library, mode, max_combinations=1_000_000):
    combos = enumerate_shared_combinations(library, mode, max_combinations)
    seed = reference_enumerate_shared_combinations(library, mode, max_combinations)
    assert isinstance(combos, CombinationSet)
    assert len(combos) == len(seed)
    assert [c.blocks for c in combos] == [c.blocks for c in seed]
    assert [c.size_bytes for c in combos] == [c.size_bytes for c in seed]
    assert combos.sizes.dtype == np.int64
    assert combos.sizes.tolist() == [c.size_bytes for c in seed]
    sets = model_shared_sets(library)
    # Beyond the models' own sets: sets that are no chain level (one
    # block dropped, or two models' sets joined) take the general path.
    sets += [shared - {min(shared)} for shared in sets if shared]
    sets += [a | b for a, b in zip(sets, sets[1:])]
    expected = np.array(
        [[shared <= combo.blocks for shared in sets] for combo in seed],
        dtype=bool,
    ).reshape(len(seed), len(sets))
    assert np.array_equal(combos.eligibility(sets), expected)
    return combos, seed


@settings(max_examples=80, deadline=None)
@given(chain_libraries())
def test_prefix_mode_matches_seed(library):
    assert_same_as_reference(library, "prefix")
    assert_same_as_reference(library, "auto")


@settings(max_examples=40, deadline=None)
@given(chain_libraries(max_chains=2))
def test_exhaustive_mode_matches_seed_on_chain_libraries(library):
    assume(len(library.shared_block_ids) <= 10)  # 2^β rows: keep it small
    assert_same_as_reference(library, "exhaustive")


@settings(max_examples=80, deadline=None)
@given(general_libraries())
def test_auto_and_exhaustive_match_seed_on_general_libraries(library):
    assert_same_as_reference(library, "auto")
    assert_same_as_reference(library, "exhaustive")


@settings(max_examples=40, deadline=None)
@given(chain_libraries(max_chains=1))
def test_single_chain_matches_seed(library):
    combos, _ = assert_same_as_reference(library, "prefix")
    assert combos.choices.shape[1] == len(combos.chains) <= 1


@settings(max_examples=40, deadline=None)
@given(chain_libraries(max_chains=3), st.sampled_from(["prefix", "exhaustive"]))
def test_count_exactly_at_max_combinations(library, mode):
    assume(len(library.shared_block_ids) <= 10)
    full = len(reference_enumerate_shared_combinations(library, mode))
    assert_same_as_reference(library, mode, max_combinations=full)
    if full > 1:
        with pytest.raises(SolverError):
            enumerate_shared_combinations(library, mode, full - 1)
        with pytest.raises(SolverError):
            reference_enumerate_shared_combinations(library, mode, full - 1)


def test_sequence_protocol():
    library = ModelLibrary(
        [ParameterBlock(b, 1 << b) for b in range(4)],
        [Model(0, (0, 1, 2)), Model(1, (0, 1, 3)), Model(2, (0, 2))],
    )
    combos, seed = assert_same_as_reference(library, "exhaustive")
    assert combos[-1] == seed[-1]
    assert list(reversed(combos)) == seed[::-1]
    with pytest.raises(IndexError):
        combos[len(combos)]


def test_block_outside_every_chain_is_never_eligible():
    library = ModelLibrary(
        [ParameterBlock(b, 3) for b in range(3)],
        [Model(0, (0, 1)), Model(1, (0, 2))],
    )
    combos = enumerate_shared_combinations(library)
    eligible = combos.eligibility([frozenset(), frozenset({0}), frozenset({0, 9})])
    assert eligible[:, 0].all()
    assert eligible[:, 1].tolist() == [False, True]
    assert not eligible[:, 2].any()


# ----------------------------------------------------------------------
# Traversal bounds: bit-equal to the seed's left-to-right Python sum
# ----------------------------------------------------------------------
def python_sum_bounds(mask, values):
    return [
        float(sum(values[index] for index in np.flatnonzero(row))) for row in mask
    ]


def test_bounds_are_bit_equal_where_pairwise_summation_differs():
    # One large value then many tiny ones: each tiny addend alone is
    # below half an ulp of the running sum, so left to right they all
    # vanish, while pairwise summation first adds them up among
    # themselves and moves the total.
    values = np.array([1.0] + [1e-16] * 300)
    mask = np.ones((3, values.size), dtype=bool)
    mask[1, 0] = False
    mask[2, ::2] = False
    pairwise = (mask * values).sum(axis=1)
    expected = python_sum_bounds(mask, values)
    assert pairwise[0] != expected[0]  # the case really separates the two
    assert _sequential_row_sums(mask, values).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(1e-12, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 2**31 - 1),
)
def test_bounds_match_python_sum_on_random_masks(values, seed):
    values = np.array(values)
    mask = np.random.default_rng(seed).random((5, values.size)) < 0.6
    assert _sequential_row_sums(mask, values).tolist() == python_sum_bounds(
        mask, values
    )


def test_exact_bound_tie_resolves_to_the_earlier_combination():
    # Two block-disjoint chains, one shared block each. Combinations in
    # product order: {} , {b}, {a}, {a, b}. The capacity fits one shared
    # block plus one head, so {b} and {a} tie exactly on bound and mass;
    # the earlier one, {b}, must win.
    blocks = [ParameterBlock(0, 10), ParameterBlock(1, 10)] + [
        ParameterBlock(b, 5) for b in range(2, 6)
    ]
    library = ModelLibrary(
        blocks,
        [Model(0, (0, 2)), Model(1, (0, 3)), Model(2, (1, 4)), Model(3, (1, 5))],
    )
    combos = enumerate_shared_combinations(library)
    assert [sorted(c.blocks) for c in combos] == [[], [1], [0], [0, 1]]
    demand = np.array([[0.25, 0.0, 0.25, 0.0]])
    instance = PlacementInstance(library, demand, np.ones((1, 1, 4), bool), [15])
    utilities = demand[0]
    mass, selection = TrimCachingSpec().solve_subproblem(
        instance, 0, utilities, combos
    )
    assert (mass, selection) == (0.25, [2])
    seed_mass, seed_selection = ReferenceSpec().solve_subproblem(
        instance, 0, utilities, reference_enumerate_shared_combinations(library)
    )
    assert (seed_mass, seed_selection) == (0.25, [2])
