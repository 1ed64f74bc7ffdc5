"""Tests for Algorithm-2 machinery: combinations and knapsack backends."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dp import (
    KNAPSACK_BACKENDS,
    ValueDpTables,
    enumerate_shared_combinations,
    knapsack_best_first,
    knapsack_branch_and_bound,
    knapsack_value_dp,
    knapsack_weight_dp,
    _lp_units,
)
from tests.oracles.reference import reference_knapsack_value_dp
from repro.errors import SolverError
from repro.models.blocks import ParameterBlock
from repro.models.finetune import FineTuner, make_resnet_root
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.data.resnet import RESNET18


def brute_force_knapsack(values, weights, capacity):
    """Reference optimum by full enumeration."""
    best = 0.0
    n = len(values)
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            weight = sum(weights[i] for i in subset)
            if weight <= capacity:
                best = max(best, sum(values[i] for i in subset))
    return best


knapsack_instances = st.tuples(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=10),
    st.lists(st.integers(0, 50), min_size=1, max_size=10),
    st.integers(0, 120),
).map(
    lambda t: (
        t[0][: min(len(t[0]), len(t[1]))],
        t[1][: min(len(t[0]), len(t[1]))],
        t[2],
    )
)


class TestBranchAndBound:
    @given(knapsack_instances)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, instance):
        values, weights, capacity = instance
        best, selected = knapsack_branch_and_bound(values, weights, capacity)
        assert best == pytest.approx(brute_force_knapsack(values, weights, capacity))
        assert sum(weights[i] for i in selected) <= capacity
        assert best == pytest.approx(sum(values[i] for i in selected))

    def test_empty(self):
        assert knapsack_branch_and_bound([], [], 10) == (0.0, [])

    def test_zero_capacity(self):
        best, selected = knapsack_branch_and_bound([5.0], [3], 0)
        assert best == 0.0 and selected == []

    def test_zero_weight_items_always_taken(self):
        best, selected = knapsack_branch_and_bound([1.0, 2.0], [0, 10], 5)
        assert best == pytest.approx(1.0)
        assert selected == [0]


#: Instances that include zero-weight and zero-value edge items, so the
#: density sort's ``max(weight, 1e-12)`` guard and the positive-value
#: filter are both exercised. Values are exact quarter multiples: subset
#: sums are then float-exact, so equal-value optima are *exact* ties
#: (stressing the preorder tie-break) and strict improvements are
#: >= 0.25 — far above the DFS's 1e-12 pruning slack, keeping the
#: documented sub-slack divergence corner out of scope.
edge_knapsack_instances = st.tuples(
    st.lists(st.integers(0, 40).map(lambda n: n / 4.0), min_size=1, max_size=10),
    st.lists(st.integers(0, 50), min_size=1, max_size=10),
    st.integers(0, 120),
).map(
    lambda t: (
        t[0][: min(len(t[0]), len(t[1]))],
        t[1][: min(len(t[0]), len(t[1]))],
        t[2],
    )
)


class TestBestFirst:
    @given(knapsack_instances)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, instance):
        values, weights, capacity = instance
        best, selected = knapsack_best_first(values, weights, capacity)
        assert best == pytest.approx(brute_force_knapsack(values, weights, capacity))
        assert sum(weights[i] for i in selected) <= capacity
        assert best == pytest.approx(sum(values[i] for i in selected))

    @given(edge_knapsack_instances)
    @settings(max_examples=150, deadline=None)
    def test_selection_identical_to_dfs(self, instance):
        """Best-first must return the *same selection* as the depth-first
        reference, not merely the same value — the Spec fallback chain
        relies on that for byte-identical placements."""
        values, weights, capacity = instance
        dfs_value, dfs_set = knapsack_branch_and_bound(values, weights, capacity)
        bf_value, bf_set = knapsack_best_first(values, weights, capacity)
        assert bf_set == dfs_set
        assert bf_value == dfs_value

    @given(edge_knapsack_instances)
    @settings(max_examples=100, deadline=None)
    def test_value_dp_epsilon_floor_consistency(self, instance):
        """On edge instances (zero weights/values allowed) the ε-rounded
        DP keeps its (1-ε) guarantee against the best-first optimum."""
        values, weights, capacity = instance
        optimum, _ = knapsack_best_first(values, weights, capacity)
        approx, selected = knapsack_value_dp(values, weights, capacity, 0.1)
        assert sum(weights[i] for i in selected) <= capacity
        assert approx >= (1 - 0.1) * optimum - 1e-9

    def test_empty(self):
        assert knapsack_best_first([], [], 10) == (0.0, [])

    def test_zero_capacity(self):
        best, selected = knapsack_best_first([5.0], [3], 0)
        assert best == 0.0 and selected == []

    def test_zero_weight_items_always_taken(self):
        best, selected = knapsack_best_first([1.0, 2.0], [0, 10], 5)
        assert best == pytest.approx(1.0)
        assert selected == [0]

    def test_node_budget_enforced(self):
        # Identical densities defeat the LP bound, forcing exploration.
        values = [1.0] * 30
        weights = [2] * 30
        with pytest.raises(SolverError):
            knapsack_best_first(values, weights, 29, max_nodes=10)

    def test_registered_backend(self):
        assert KNAPSACK_BACKENDS["best_first"] is knapsack_best_first

    def test_validation(self):
        with pytest.raises(SolverError):
            knapsack_best_first([1.0], [1, 2], 5)
        with pytest.raises(SolverError):
            knapsack_best_first([-1.0], [1], 5)


def solve_filtered(tables, values, weights, capacity):
    """``tables.solve`` on the items that can enter a solution (positive
    value, weight within ``capacity``), its positions mapped back to
    input indices: what :func:`knapsack_value_dp` does with a one-shot
    table."""
    kept = [
        index
        for index, (value, weight) in enumerate(zip(values, weights))
        if value > 0 and weight <= capacity
    ]
    value, positions = tables.solve(
        tuple(values[index] for index in kept),
        tuple(weights[index] for index in kept),
        capacity,
    )
    return value, [kept[pos] for pos in positions]


class TestValueDpTables:
    @given(edge_knapsack_instances)
    @settings(max_examples=100, deadline=None)
    def test_identical_to_uncached_solver(self, instance):
        """The memoised tables replicate ``knapsack_value_dp`` exactly:
        same value, same selection, for every instance."""
        values, weights, capacity = instance
        tables = ValueDpTables(epsilon=0.1, capacity=capacity)
        expected = knapsack_value_dp(values, weights, capacity, 0.1)
        assert solve_filtered(tables, values, weights, capacity) == expected
        # Second call is a cache hit and still byte-identical.
        assert solve_filtered(tables, values, weights, capacity) == expected

    def test_hit_miss_accounting(self):
        tables = ValueDpTables(epsilon=0.1, capacity=3)
        solve_filtered(tables, [1.0, 2.0], [1, 2], 3)
        assert (tables.hits, tables.misses) == (0, 1)
        solve_filtered(tables, [1.0, 2.0], [1, 2], 3)
        assert (tables.hits, tables.misses) == (1, 1)
        # A different capacity that keeps the same filtered item set
        # reuses the fill (every call up to the tables' capacity does).
        solve_filtered(tables, [1.0, 2.0], [1, 2], 2)
        assert (tables.hits, tables.misses) == (2, 1)
        # Capacity 1 filters out the weight-2 item: a new key.
        solve_filtered(tables, [1.0, 2.0], [1, 2], 1)
        assert (tables.hits, tables.misses) == (2, 2)

    def test_capacity_variation_matches_uncached(self):
        values = [3.0, 4.0, 5.0, 6.0]
        weights = [2, 3, 4, 5]
        tables = ValueDpTables(epsilon=0.1, capacity=14)
        for capacity in range(0, 15):
            assert solve_filtered(
                tables, values, weights, capacity
            ) == knapsack_value_dp(values, weights, capacity, 0.1)

    def test_blown_table_raises_and_is_cached(self):
        tables = ValueDpTables(epsilon=0.001, capacity=11, max_states=100)
        values = [1e-9] + [1.0] * 10
        weights = [1] * 11
        with pytest.raises(SolverError):
            tables.solve(values, weights, 11)
        # Repeat raises from the cached marker (no refill): miss stays 1.
        with pytest.raises(SolverError):
            tables.solve(values, weights, 11)
        assert (tables.hits, tables.misses) == (1, 1)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(SolverError):
            ValueDpTables(epsilon=0.0, capacity=1)

    def test_validation_matches_uncached(self):
        tables = ValueDpTables(epsilon=0.1, capacity=5)
        with pytest.raises(SolverError):
            tables.solve([1.0], [1, 2], 5)
        with pytest.raises(SolverError):
            tables.solve([-1.0], [1], 5)
        with pytest.raises(SolverError):
            tables.solve([1.0], [-1], 5)
        with pytest.raises(SolverError):
            tables.solve([1.0], [1], -5)

    def test_max_entries_bounds_cache(self):
        tables = ValueDpTables(epsilon=0.1, capacity=2, max_entries=2)
        for index in range(5):
            tables.solve([1.0 + index], [1], 2)
        assert len(tables._tables) == 2


@st.composite
def capped_instances(draw):
    """``(values, weights, table_capacity, epsilon)`` for the LP cap.

    Zero weights, zero values, a scaled copy of an item (a tied
    density) and a table capacity equal to some subset's weight (an
    exact fit) are all drawn.
    """
    count = draw(st.integers(1, 8))
    quarters = st.integers(0, 40).map(lambda n: n / 4.0)
    values = draw(st.lists(quarters, min_size=count, max_size=count))
    weights = draw(st.lists(st.integers(0, 30), min_size=count, max_size=count))
    if draw(st.booleans()):
        factor = draw(st.integers(2, 3))
        values.append(values[0] * factor)
        weights.append(weights[0] * factor)
    exact_fit = sum(weight for weight in weights if draw(st.booleans()))
    capacity = draw(st.one_of(st.just(exact_fit), st.integers(0, 60)))
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.3]))
    return values, weights, capacity, epsilon


class TestLpCappedTables:
    @given(capped_instances())
    @settings(max_examples=100, deadline=None)
    def test_every_capacity_up_to_the_cap_matches_uncapped_dp(self, instance):
        """A table built at capacity ``C`` answers every call capacity
        ``0..C`` exactly like the seed's uncapped DP, memo on or off."""
        values, weights, table_capacity, epsilon = instance
        for max_entries in (100, 0):
            tables = ValueDpTables(epsilon, table_capacity, max_entries=max_entries)
            for capacity in range(table_capacity + 1):
                assert solve_filtered(tables, values, weights, capacity) == (
                    reference_knapsack_value_dp(values, weights, capacity, epsilon)
                ), (max_entries, capacity)

    def test_fill_stops_at_lp_bound(self):
        # Rounded units [10, 10, 10, 10]. At capacity 10 the LP takes
        # the zero-weight item whole, the weight-4 item whole and 6/8 of
        # a weight-8 one, 7.5 units rounded up: 28 units, not all 40.
        values, weights = [1.0] * 4, [0, 4, 8, 8]
        tables = ValueDpTables(0.1, 10)
        assert tables.solve(values, weights, 10) == (
            reference_knapsack_value_dp(values, weights, 10, 0.1)
        )
        [(suffix_min, *_)] = tables._tables.values()
        assert len(suffix_min) == 29

    def test_lp_order_is_exact_where_float_densities_tie(self):
        # Both densities read 1.0 as floats, but 10**17 + 1 units over
        # 10**17 bytes is denser. Taking the other item first would give
        # a bound of 10**17 units, one short of taking this one alone.
        rounded, weights = [10**17, 10**17 + 1], [10**17, 10**17]
        assert rounded[0] / weights[0] == rounded[1] / weights[1]
        assert _lp_units(rounded, weights, 10**17) == 10**17 + 1

    def test_capacity_above_the_tables_raises(self):
        tables = ValueDpTables(0.1, 5)
        with pytest.raises(SolverError, match="exceeds"):
            tables.solve([1.0], [1], 6)
        with pytest.raises(SolverError, match="exceeds"):
            tables.solve([], [], 6)

    def test_state_limit_reads_the_uncapped_width(self):
        # Ten items of 10 rounded units: the uncapped table has
        # 101 * 10 = 1010 states, the one capped at capacity 5 only
        # 11 * 10. The limit still refuses it, so the same instances
        # fall back to the other backends as before the cap.
        values, weights = [1.0] * 10, [5] * 10
        with pytest.raises(SolverError, match="1010 states"):
            ValueDpTables(0.1, 5, max_states=500).solve(values, weights, 5)
        with pytest.raises(SolverError, match="1010 states"):
            knapsack_value_dp(values, weights, 5, 0.1, max_states=500)
        assert knapsack_value_dp(values, weights, 5, 0.1, max_states=1010) == (
            1.0,
            [0],
        )


class TestFilteredItemContract:
    """``ValueDpTables.solve`` takes filtered items and returns
    positions into them; anything else is refused."""

    @pytest.mark.parametrize(
        "values, weights, capacity, match",
        [
            ((1.0, 2.0), (1,), 5, "equal length"),
            ((1.0, 0.0), (1, 2), 5, "positive"),
            ((1.0, -2.0), (1, 2), 5, "positive"),
            ((1.0, 2.0), (1, -2), 5, "non-negative"),
            ((1.0, 2.0), (1, 4), 3, "weight 4 exceeds capacity 3"),
            ((1.0,), (1,), 6, "tables' capacity 5"),
            ((), (), -1, "non-negative"),
        ],
    )
    def test_refused(self, values, weights, capacity, match):
        tables = ValueDpTables(0.1, 5)
        with pytest.raises(SolverError, match=match):
            tables.solve(values, weights, capacity)
        # Nothing was filled or cached for a refused call.
        assert (tables.hits, tables.misses, tables._tables) == (0, 0, {})

    def test_memo_hit_at_a_smaller_capacity_checks_the_weights(self):
        tables = ValueDpTables(0.1, 5)
        assert tables.solve((1.0, 2.0), (1, 4), 5) == (3.0, [0, 1])
        # The same key at capacity 4 still fits every cached item.
        assert tables.solve((1.0, 2.0), (1, 4), 4) == (2.0, [1])
        # At capacity 3 the weight-4 item no longer fits: a hit, refused.
        with pytest.raises(SolverError, match="weight 4 exceeds capacity 3"):
            tables.solve((1.0, 2.0), (1, 4), 3)
        assert (tables.hits, tables.misses) == (2, 1)

    def test_memo_hit_on_a_blown_table_checks_the_weights_first(self):
        tables = ValueDpTables(0.001, 11, max_states=100)
        values, weights = (1e-9,) + (1.0,) * 10, (1,) * 10 + (11,)
        with pytest.raises(SolverError, match="states"):
            tables.solve(values, weights, 11)
        with pytest.raises(SolverError, match="weight 11 exceeds capacity 10"):
            tables.solve(values, weights, 10)
        assert (tables.hits, tables.misses) == (1, 1)

    def test_positions_index_the_filtered_items(self):
        # Item 0 cannot enter (value 0): the table sees items 1 and 2 at
        # positions 0 and 1, and the public function maps them back.
        values, weights = [0.0, 3.0, 4.0], [1, 2, 3]
        tables = ValueDpTables(0.1, 5)
        assert tables.solve((3.0, 4.0), (2, 3), 5) == (7.0, [0, 1])
        assert knapsack_value_dp(values, weights, 5, 0.1) == (7.0, [1, 2])
        assert knapsack_value_dp(values, weights, 0, 0.1) == (0.0, [])


class TestValueDp:
    @given(knapsack_instances)
    @settings(max_examples=150, deadline=None)
    def test_fptas_guarantee(self, instance):
        values, weights, capacity = instance
        epsilon = 0.1
        optimum = brute_force_knapsack(values, weights, capacity)
        best, selected = knapsack_value_dp(values, weights, capacity, epsilon)
        assert sum(weights[i] for i in selected) <= capacity
        assert best >= (1 - epsilon) * optimum - 1e-9

    def test_small_epsilon_is_optimal(self):
        values = [3.0, 4.0, 5.0]
        weights = [2, 3, 4]
        best, _ = knapsack_value_dp(values, weights, 6, epsilon=0.01)
        assert best == pytest.approx(brute_force_knapsack(values, weights, 6))

    def test_epsilon_zero_rejected(self):
        with pytest.raises(SolverError):
            knapsack_value_dp([1.0], [1], 1, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(SolverError, match="finite epsilon"):
            knapsack_value_dp([1.0], [1], 1, epsilon=epsilon)
        with pytest.raises(SolverError, match="finite epsilon"):
            ValueDpTables(epsilon=epsilon, capacity=1)

    def test_state_blowup_guarded(self):
        # Huge value spread at tiny epsilon exceeds max_states.
        values = [1e-9] + [1.0] * 10
        with pytest.raises(SolverError):
            knapsack_value_dp(values, [1] * 11, 11, epsilon=0.001, max_states=100)

    def test_selection_consistent(self):
        best, selected = knapsack_value_dp([2.0, 3.0], [1, 1], 2, epsilon=0.1)
        assert sorted(selected) == [0, 1]
        assert best == pytest.approx(5.0)


class TestWeightDp:
    @given(knapsack_instances)
    @settings(max_examples=150, deadline=None)
    def test_exact_with_unit_quantum(self, instance):
        values, weights, capacity = instance
        best, selected = knapsack_weight_dp(values, weights, capacity, quantum=1)
        assert best == pytest.approx(brute_force_knapsack(values, weights, capacity))
        assert sum(weights[i] for i in selected) <= capacity

    def test_quantisation_is_conservative(self):
        # Item of weight 11 ceiled to 20 at quantum 10 no longer fits 15.
        best, selected = knapsack_weight_dp([5.0], [11], 15, quantum=10)
        assert best == 0.0 and selected == []

    def test_invalid_quantum(self):
        with pytest.raises(SolverError):
            knapsack_weight_dp([1.0], [1], 1, quantum=0)

    def test_state_blowup_guarded(self):
        with pytest.raises(SolverError):
            knapsack_weight_dp([1.0] * 10, [1] * 10, 10**9, quantum=1, max_states=100)


class TestBackendAgreement:
    @given(knapsack_instances)
    # A near-tie that a pruning slack once cut: the true optimum is 12.0
    # ([0, 1, 2]), not 11.999999999999998 ([1, 2, 3]).
    @example(([10.0, 1.0, 1.0, 9.999999999999998], [2, 0, 0, 1], 2))
    @settings(max_examples=60, deadline=None)
    def test_all_backends_feasible_and_ordered(self, instance):
        values, weights, capacity = instance
        exact, _ = knapsack_branch_and_bound(values, weights, capacity)
        best_first, _ = knapsack_best_first(values, weights, capacity)
        approx, _ = knapsack_value_dp(values, weights, capacity, 0.1)
        weight_exact, _ = knapsack_weight_dp(values, weights, capacity, quantum=1)
        assert approx <= exact + 1e-9
        assert weight_exact == pytest.approx(exact)
        assert best_first == exact


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(SolverError):
            knapsack_branch_and_bound([1.0], [1, 2], 5)

    def test_negative_inputs(self):
        with pytest.raises(SolverError):
            knapsack_branch_and_bound([-1.0], [1], 5)
        with pytest.raises(SolverError):
            knapsack_branch_and_bound([1.0], [-1], 5)
        with pytest.raises(SolverError):
            knapsack_branch_and_bound([1.0], [1], -5)

    @pytest.mark.parametrize("backend", sorted(KNAPSACK_BACKENDS))
    def test_every_backend_rejects_the_same_inputs(self, backend):
        solve = KNAPSACK_BACKENDS[backend]
        bad_inputs = [
            ([1.0], [1, 2], 5),
            ([-1.0], [1], 5),
            ([1.0], [-1], 5),
            ([1.0], [1], -5),
            # Truncated to 2, this item would "fit" and overfill by 0.5.
            ([1.0], [2.5], 2),
        ]
        for values, weights, capacity in bad_inputs:
            with pytest.raises(SolverError):
                solve(values, weights, capacity)
        assert solve([1.0], [2.0], 2) == solve([1.0], [2], 2)


# ----------------------------------------------------------------------
# Combination enumeration
# ----------------------------------------------------------------------
def chain_library():
    """Two roots with nested prefix sharing (the special-case shape)."""
    tuner = FineTuner()
    root = make_resnet_root(RESNET18)
    tuner.freeze_bottom(root, 30, name="a")
    tuner.freeze_bottom(root, 30, name="a2")
    # Depth-35 prefixes are shared only because two models freeze them.
    tuner.freeze_bottom(root, 35, name="b")
    tuner.freeze_bottom(root, 35, name="b2")
    return tuner.build()


def non_nested_library():
    """Two models with partially overlapping shared sets (not a chain)."""
    blocks = [ParameterBlock(i, 10) for i in range(4)]
    models = [
        Model(0, (0, 1)),
        Model(1, (1, 2)),
        Model(2, (0, 2, 3)),
    ]
    return ModelLibrary(blocks, models)


class TestEnumerateCombinations:
    def test_no_sharing_single_empty_combo(self, tiny_library):
        sub = tiny_library.subset([0, 2])  # removes all sharing
        combos = enumerate_shared_combinations(sub)
        assert len(combos) == 1
        assert combos[0].blocks == frozenset()
        assert combos[0].size_bytes == 0

    def test_prefix_mode_counts_chain_levels(self):
        library = chain_library()
        combos = enumerate_shared_combinations(library, mode="prefix")
        # One chain with two distinct prefixes (30 and 35) -> 3 combos.
        assert len(combos) == 3
        sizes = sorted(len(c.blocks) for c in combos)
        assert sizes == [0, 30, 35]

    def test_exhaustive_mode_counts_subsets(self):
        library = non_nested_library()
        shared = len(library.shared_block_ids)
        combos = enumerate_shared_combinations(library, mode="exhaustive")
        assert len(combos) == 2**shared

    def test_auto_falls_back_for_non_nested(self):
        library = non_nested_library()
        combos = enumerate_shared_combinations(library, mode="auto")
        assert len(combos) == 2 ** len(library.shared_block_ids)

    def test_prefix_mode_rejects_non_nested(self):
        with pytest.raises(SolverError):
            enumerate_shared_combinations(non_nested_library(), mode="prefix")

    def test_max_combinations_guard(self):
        library = chain_library()
        with pytest.raises(SolverError):
            enumerate_shared_combinations(library, max_combinations=2)

    def test_unknown_mode(self):
        with pytest.raises(SolverError):
            enumerate_shared_combinations(chain_library(), mode="magic")

    def test_combo_sizes_correct(self):
        library = chain_library()
        combos = enumerate_shared_combinations(library, mode="prefix")
        for combo in combos:
            assert combo.size_bytes == library.blocks_size(combo.blocks)
