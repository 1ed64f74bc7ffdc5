"""Differential test of Spec's Algorithm 2 against the seed Spec.

Hypothesis draws small chain-structured libraries with adversarial
sub-problems: exactly tied utilities (so combination bounds tie), zero
utility columns, capacity 0, a capacity equal to some ``d_N`` plus
one eligible model's specific weight (an exact fit), and one that leaves
``N`` less than every eligible specific weight (no item fits). Every traversal
configuration — no pool or a 2- or 3-thread pool, knapsack memo on or
off, LP prefix pruning on or off — must return exactly the
``(mass, selection)`` of :class:`~repro.core.reference.ReferenceSpec`,
and whole solves must match it placement for placement.

Spec filters each sub-problem's knapsack items once and hands every
backend only the items that can enter a solution. For every backend and
fallback, a sub-problem must equal the same backend run on the full,
unfiltered eligible arrays, whose indices are mapped back to models.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import (
    KNAPSACK_BACKENDS,
    ValueDpTables,
    enumerate_shared_combinations,
    knapsack_best_first,
    knapsack_branch_and_bound,
    knapsack_value_dp,
    knapsack_weight_dp,
)
from repro.core.placement import PlacementInstance
from repro.core.reference import (
    ReferenceSpec,
    reference_enumerate_shared_combinations,
)
from repro.core.spec import TrimCachingSpec
from repro.errors import SolverError
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model

#: Utility/demand values: repeats make exact ties, zeros make dead
#: columns, and the 1e-7 entry blows the rounded table at every ε drawn
#: here, so the fallback chain runs too.
TIED_VALUES = [0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 1e-7]


@st.composite
def chain_libraries(draw):
    """A prefix-sharing library: 1-2 roots, each a chain of shared
    blocks; every model takes a prefix (possibly empty) of one root plus
    one exclusive specific block."""
    blocks = []
    block_id = 0
    root_prefixes = []
    for _ in range(draw(st.integers(1, 2))):
        prefix = []
        for _ in range(draw(st.integers(1, 3))):
            blocks.append(ParameterBlock(block_id, draw(st.integers(1, 20))))
            prefix.append(block_id)
            block_id += 1
        root_prefixes.append(prefix)
    models = []
    for model_id in range(draw(st.integers(1, 6))):
        root = root_prefixes[draw(st.integers(0, len(root_prefixes) - 1))]
        level = draw(st.integers(0, len(root)))
        blocks.append(ParameterBlock(block_id, draw(st.integers(1, 20))))
        models.append(Model(model_id, tuple(root[:level]) + (block_id,)))
        block_id += 1
    return ModelLibrary(blocks, models)


def _specific_weights(library):
    shared = library.shared_block_ids
    return [
        library.blocks_size(library.model(model_id).block_set - shared)
        for model_id in library.model_ids
    ]


@st.composite
def subproblems(draw):
    """``(instance, utilities, mode, epsilon)`` for one server."""
    library = draw(chain_libraries())
    mode = draw(st.sampled_from(["auto", "exhaustive"]))
    num_models = library.num_models
    utilities = np.array(
        draw(
            st.lists(
                st.sampled_from(TIED_VALUES),
                min_size=num_models,
                max_size=num_models,
            )
        )
    )
    combos = enumerate_shared_combinations(library, mode, cache=False)
    row = draw(st.integers(0, len(combos) - 1))
    combo = combos[row]
    shared = library.shared_block_ids
    eligible = [
        index
        for index, model_id in enumerate(library.model_ids)
        if library.model(model_id).block_set & shared <= combo.blocks
    ]
    exact_fit = no_fit = combo.size_bytes
    if eligible:
        eligible_weights = [_specific_weights(library)[i] for i in eligible]
        exact_fit += draw(st.sampled_from(eligible_weights))
        # Specific blocks weigh at least 1, so ``N`` itself still fits.
        no_fit += min(eligible_weights) - 1
    capacity = draw(
        st.one_of(
            st.just(0), st.just(exact_fit), st.just(no_fit), st.integers(0, 100)
        )
    )
    demand = np.ones((1, num_models))
    feasible = np.ones((1, 1, num_models), dtype=bool)
    instance = PlacementInstance(library, demand, feasible, [capacity])
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.3]))
    return instance, utilities, mode, epsilon


@st.composite
def whole_instances(draw):
    """A chain library, tied/zero inexact demand, random feasibility and
    capacities (0 included) over 1-3 servers."""
    library = draw(chain_libraries())
    num_models = library.num_models
    num_servers = draw(st.integers(1, 3))
    num_users = draw(st.integers(1, 3))
    demand = np.array(
        [
            [draw(st.sampled_from(TIED_VALUES)) for _ in range(num_models)]
            for _ in range(num_users)
        ]
    )
    if not demand.any():
        demand[0, 0] = 1.0  # an instance needs some demand
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


class _SpyTables(ValueDpTables):
    """Value-DP tables that record every knapsack they are asked for."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = []

    def solve(self, values, weights, capacity):
        self.calls.append((list(values), list(weights), capacity))
        return super().solve(values, weights, capacity)


def _has_fitting_item(values, weights, capacity):
    return any(v > 0 and w <= capacity for v, w in zip(values, weights))


class TestSubproblemDifferential:
    @given(subproblems())
    @settings(max_examples=120, deadline=None)
    def test_every_traversal_matches_reference(self, case):
        instance, utilities, mode, epsilon = case
        expected = ReferenceSpec(epsilon=epsilon, combinations=mode).solve_subproblem(
            instance,
            0,
            utilities,
            reference_enumerate_shared_combinations(instance.library, mode),
        )
        combos = enumerate_shared_combinations(instance.library, mode, cache=False)
        with ThreadPoolExecutor(2) as two, ThreadPoolExecutor(3) as three:
            for pool in (None, two, three):
                for knapsack_cache in (True, False):
                    for prefix_prune in (True, False):
                        spec = TrimCachingSpec(
                            epsilon=epsilon,
                            combinations=mode,
                            knapsack_cache=knapsack_cache,
                            prefix_prune=prefix_prune,
                        )
                        tables = (
                            ValueDpTables(epsilon, int(instance.capacities[0]))
                            if knapsack_cache
                            else None
                        )
                        got = spec.solve_subproblem(
                            instance, 0, utilities, combos, pool=pool, tables=tables
                        )
                        assert got == expected, (
                            pool and pool._max_workers,
                            knapsack_cache,
                            prefix_prune,
                        )


    @given(subproblems())
    @settings(max_examples=120, deadline=None)
    def test_no_knapsack_runs_without_a_fitting_item(self, case):
        instance, utilities, mode, epsilon = case
        combos = enumerate_shared_combinations(instance.library, mode, cache=False)
        tables = _SpyTables(epsilon, int(instance.capacities[0]))
        spec = TrimCachingSpec(epsilon=epsilon, combinations=mode, prefix_prune=False)
        spec.solve_subproblem(instance, 0, utilities, combos, tables=tables)
        for call in tables.calls:
            assert _has_fitting_item(*call), call

    def test_no_fit_combination_is_skipped(self):
        # Block 0 (10 bytes) is shared by models 0 and 2, which add 5
        # and 6 specific bytes; model 1 is 3 specific bytes alone. At
        # capacity 12 the combination {0} ranks first (bound 3.0) but
        # leaves 2, less than every specific weight, so only {} runs a
        # knapsack.
        library = ModelLibrary(
            [ParameterBlock(b, size) for b, size in enumerate((10, 5, 3, 6))],
            [Model(0, (0, 1)), Model(1, (2,)), Model(2, (0, 3))],
        )
        instance = PlacementInstance(
            library, np.ones((1, 3)), np.ones((1, 1, 3), dtype=bool), [12]
        )
        utilities = np.array([1.0, 1.0, 1.0])
        combos = enumerate_shared_combinations(library, cache=False)
        assert len(combos) == 2
        tables = _SpyTables(0.1, 12)
        got = TrimCachingSpec().solve_subproblem(
            instance, 0, utilities, combos, tables=tables
        )
        assert [capacity for *_, capacity in tables.calls] == [12]
        assert got == ReferenceSpec().solve_subproblem(
            instance,
            0,
            utilities,
            reference_enumerate_shared_combinations(library, "auto"),
        )
        assert got == (1.0, [1])


def _unfiltered_knapsack(spec, max_states, values, weights, capacity):
    """``spec``'s knapsack on unfiltered items, through the public backend
    functions and their own input check, with the fallback chain."""
    if spec.backend != "value_dp":
        return KNAPSACK_BACKENDS[spec.backend](values, weights, capacity)
    try:
        return knapsack_value_dp(
            values, weights, capacity, spec.epsilon, max_states=max_states
        )
    except SolverError:
        if spec.fallback == "best_first":
            try:
                return knapsack_best_first(values, weights, capacity)
            except SolverError:
                pass
        try:
            return knapsack_weight_dp(
                values, weights, capacity, quantum=max(1, capacity // 800)
            )
        except SolverError:
            return knapsack_branch_and_bound(values, weights, capacity)


def _unfiltered_subproblem(spec, max_states, instance, utilities, mode):
    """Algorithm 2 with every knapsack on the full eligible arrays: each
    fitting combination in stable descending-bound order, its positive
    eligible models' utilities and specific weights as they are, the
    selection mapped back through those models. The first strict
    improvement wins; no pruning, which never changes it."""
    library = instance.library
    capacity = int(instance.capacities[0])
    weights = _specific_weights(library)
    shared_of = [blocks & library.shared_block_ids for blocks in instance.model_blocks]
    positive = [index for index in range(library.num_models) if utilities[index] > 0]
    candidates = []
    for combo in reference_enumerate_shared_combinations(library, mode):
        if combo.size_bytes > capacity:
            continue
        eligible = [index for index in positive if shared_of[index] <= combo.blocks]
        bound = float(sum(utilities[index] for index in eligible))
        candidates.append((bound, combo.size_bytes, eligible))
    candidates.sort(key=lambda candidate: -candidate[0])
    best = (0.0, [])
    for _, size, eligible in candidates:
        mass, chosen = _unfiltered_knapsack(
            spec,
            max_states,
            utilities[eligible],
            np.array([weights[index] for index in eligible], dtype=np.int64),
            capacity - size,
        )
        if mass > best[0]:
            best = (mass, [eligible[pos] for pos in chosen])
    return best


class TestBackendDifferential:
    @given(
        subproblems(),
        st.sampled_from(["value_dp", "weight_dp", "exact"]),
        st.sampled_from(["weight_dp", "best_first"]),
        # 40 states blow most rounded tables here, so the fallback chain
        # runs on healthy utilities too, not only on the 1e-7 one.
        st.sampled_from([5_000_000, 40]),
    )
    @settings(max_examples=120, deadline=None)
    def test_filtered_items_match_the_unfiltered_backend(
        self, case, backend, fallback, max_states
    ):
        instance, utilities, mode, epsilon = case
        spec = TrimCachingSpec(
            epsilon=epsilon, backend=backend, combinations=mode, fallback=fallback
        )
        expected = _unfiltered_subproblem(spec, max_states, instance, utilities, mode)
        combos = enumerate_shared_combinations(instance.library, mode, cache=False)
        capacity = int(instance.capacities[0])
        with ThreadPoolExecutor(2) as two:
            for pool in (None, two):
                for max_entries in (100_000, 0):
                    tables = ValueDpTables(
                        epsilon, capacity, max_states=max_states, max_entries=max_entries
                    )
                    got = spec.solve_subproblem(
                        instance, 0, utilities, combos, pool=pool, tables=tables
                    )
                    assert got == expected, (pool is not None, max_entries)


class TestWholeSolveDifferential:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_inexact_utility_is_the_reference_sum(self, epsilon):
        """Three users' demand ``[0.5, 0.5, 1e-7]`` sums inexactly; both
        solvers add it user by user, so the masses are equal bit for bit
        (``1.0000001``)."""
        library = ModelLibrary([ParameterBlock(0, 10)], [Model(0, (0,))])
        demand = np.array([[0.5], [0.5], [1e-7]])
        feasible = np.ones((1, 3, 1), dtype=bool)
        instance = PlacementInstance(library, demand, feasible, [10])
        got = TrimCachingSpec(epsilon=epsilon).solve(instance)
        backend = "exact" if epsilon == 0 else "value_dp"
        expected = ReferenceSpec(epsilon=epsilon, backend=backend).solve(instance)
        assert got.placement == expected.placement
        assert got.placement.models_on(0) == [0]
        assert got.stats["per_server_mass"] == expected.stats["per_server_mass"]
        assert got.stats["per_server_mass"] == [0.5 + 0.5 + 1e-7]

    @given(whole_instances(), st.sampled_from([0.05, 0.1, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_value_dp_matches_reference(self, instance, epsilon):
        got = TrimCachingSpec(epsilon=epsilon).solve(instance)
        expected = ReferenceSpec(epsilon=epsilon).solve(instance)
        assert got.placement == expected.placement
        assert got.stats["per_server_mass"] == expected.stats["per_server_mass"]

    @given(whole_instances())
    @settings(max_examples=60, deadline=None)
    def test_exact_matches_reference(self, instance):
        got = TrimCachingSpec(epsilon=0.0).solve(instance)
        expected = ReferenceSpec(epsilon=0.0, backend="exact").solve(instance)
        assert got.stats["backend"] == "exact"
        assert got.placement == expected.placement
        assert got.stats["per_server_mass"] == expected.stats["per_server_mass"]
