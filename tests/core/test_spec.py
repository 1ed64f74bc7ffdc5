"""Tests for TrimCaching Spec (Algorithms 1 + 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import (
    TableBlownError,
    ValueDpTables,
    enumerate_shared_combinations,
)
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.gen import TrimCachingGen
from repro.core.objective import hit_ratio, placement_is_feasible
from repro.core.placement import PlacementInstance
from repro.core.spec import SpecConfig, TrimCachingSpec
from repro.data.resnet import RESNET18
from repro.errors import ConfigurationError, SolverError
from repro.models.blocks import ParameterBlock
from repro.models.finetune import FineTuner, make_resnet_root
from repro.models.library import ModelLibrary
from repro.models.model import Model


# ----------------------------------------------------------------------
# Random special-case instances: prefix sharing from a few roots
# ----------------------------------------------------------------------
@st.composite
def special_instances(draw):
    """Random chain-structured libraries + random demand/feasibility."""
    num_roots = draw(st.integers(1, 2))
    num_models = draw(st.integers(2, 5))
    num_servers = draw(st.integers(1, 2))
    num_users = draw(st.integers(1, 3))

    # Blocks: per root, a chain of up to 3 shared levels + specifics.
    blocks = []
    models = []
    block_id = 0
    root_prefixes = []
    for _ in range(num_roots):
        depth = draw(st.integers(1, 3))
        prefix = []
        for _ in range(depth):
            blocks.append(ParameterBlock(block_id, draw(st.integers(1, 20))))
            prefix.append(block_id)
            block_id += 1
        root_prefixes.append(prefix)

    for model_id in range(num_models):
        root = draw(st.integers(0, num_roots - 1))
        level = draw(st.integers(1, len(root_prefixes[root])))
        shared = list(root_prefixes[root][:level])
        n_specific = draw(st.integers(1, 2))
        specific = []
        for _ in range(n_specific):
            blocks.append(ParameterBlock(block_id, draw(st.integers(1, 20))))
            specific.append(block_id)
            block_id += 1
        models.append(Model(model_id, tuple(shared + specific)))

    library = ModelLibrary(blocks, models)
    demand = np.array(
        [
            [draw(st.floats(0.01, 1.0)) for _ in range(num_models)]
            for _ in range(num_users)
        ]
    )
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
    capacities = [draw(st.integers(0, 120)) for _ in range(num_servers)]
    return PlacementInstance(library, demand, feasible, capacities)


class TestConstruction:
    def test_epsilon_validation(self):
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(epsilon=-0.1)
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(epsilon=1.5)

    def test_backend_defaults(self):
        assert TrimCachingSpec(epsilon=0.1).backend == "value_dp"
        assert TrimCachingSpec(epsilon=0.0).backend == "exact"

    def test_value_dp_needs_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(epsilon=0.0, backend="value_dp")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": float("nan")},
            {"combinations": "magic"},
            {"max_combinations": 0},
            {"max_combinations": -5},
        ],
    )
    def test_bad_settings_rejected_when_built(self, kwargs):
        """Before, these constructed: NaN ε silently ran every knapsack
        on the weight-DP fallback, and a bad mode failed at solve time."""
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(**kwargs)
        with pytest.raises(ConfigurationError):
            SpecConfig(**kwargs)

    def test_unknown_backend_and_order(self):
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(backend="magic")
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(server_order="magic")


class TestFeasibilityAndBasics:
    @given(special_instances())
    @settings(max_examples=40, deadline=None)
    def test_always_feasible(self, instance):
        result = TrimCachingSpec(epsilon=0.1).solve(instance)
        assert placement_is_feasible(instance, result.placement)

    @given(special_instances())
    @settings(max_examples=40, deadline=None)
    def test_hit_ratio_consistent(self, instance):
        result = TrimCachingSpec(epsilon=0.1).solve(instance)
        assert result.hit_ratio == pytest.approx(
            hit_ratio(instance, result.placement)
        )

    def test_stats_recorded(self, tight_scenario):
        result = TrimCachingSpec(epsilon=0.1).solve(tight_scenario.instance)
        assert result.stats["num_combinations"] >= 1
        assert result.stats["epsilon"] == 0.1

    def test_per_server_masses_sum_to_hit_mass(self, tight_scenario):
        """Eq. (12): U(X̂) = Σ_m Û_m — the I2 bookkeeping is exact."""
        instance = tight_scenario.instance
        result = TrimCachingSpec(epsilon=0.1).solve(instance)
        total_mass = sum(result.stats["per_server_mass"])
        assert total_mass / instance.total_demand == pytest.approx(
            result.hit_ratio
        )


class TestOptimality:
    @given(special_instances())
    @settings(max_examples=30, deadline=None)
    def test_exact_spec_beats_half_optimal(self, instance):
        """Proposition 3 / Theorem 2 with ε=0: U >= U*/2."""
        spec = TrimCachingSpec(epsilon=0.0).solve(instance)
        optimal = ExhaustiveSearch().solve(instance)
        assert spec.hit_ratio >= optimal.hit_ratio / 2.0 - 1e-9
        assert spec.hit_ratio <= optimal.hit_ratio + 1e-9

    @given(special_instances())
    @settings(max_examples=30, deadline=None)
    def test_epsilon_guarantee(self, instance):
        """Theorem 2: U >= (1-ε)/2 U*."""
        epsilon = 0.2
        spec = TrimCachingSpec(epsilon=epsilon).solve(instance)
        optimal = ExhaustiveSearch().solve(instance)
        assert spec.hit_ratio >= (1 - epsilon) / 2 * optimal.hit_ratio - 1e-9

    def test_matches_optimum_on_tight_scenario(self, tight_scenario):
        """The paper's Fig. 6(a) observation: Spec(ε=0) hits the optimum
        (not guaranteed in general, but holds on typical instances)."""
        spec = TrimCachingSpec(epsilon=0.0).solve(tight_scenario.instance)
        optimal = ExhaustiveSearch().solve(tight_scenario.instance)
        assert spec.hit_ratio == pytest.approx(optimal.hit_ratio, abs=1e-9)

    def test_single_server_exact_spec_is_optimal(self):
        """With M=1 the successive greedy is exact, so Spec(ε=0) must
        equal the exhaustive optimum."""
        tuner = FineTuner()
        root = make_resnet_root(RESNET18)
        for index in range(4):
            tuner.freeze_bottom(root, 30 + index, name=f"m{index}")
        library = tuner.build()
        rng = np.random.default_rng(0)
        demand = rng.uniform(0.1, 1.0, size=(3, 4))
        feasible = rng.uniform(size=(1, 3, 4)) < 0.8
        capacity = int(library.model_size(0) * 1.6)
        instance = PlacementInstance(library, demand, feasible, [capacity])
        spec = TrimCachingSpec(epsilon=0.0).solve(instance)
        optimal = ExhaustiveSearch().solve(instance)
        assert spec.hit_ratio == pytest.approx(optimal.hit_ratio, abs=1e-12)


class TestBackendsAgree:
    @given(special_instances())
    @settings(max_examples=20, deadline=None)
    def test_weight_dp_matches_exact(self, instance):
        """Byte-exact weight DP (quantum=1 via small sizes) == exact BB."""
        exact = TrimCachingSpec(epsilon=0.0, backend="exact").solve(instance)
        # Sizes in these instances are tiny ints, so quantum=1 is exact.
        weight = TrimCachingSpec(epsilon=0.1, backend="weight_dp")
        # Patch the backend call to quantum=1 via a subclass-free shim:
        from repro.core import dp as dp_module

        original = dp_module.KNAPSACK_BACKENDS["weight_dp"]
        dp_module.KNAPSACK_BACKENDS["weight_dp"] = (
            lambda v, w, c: original(v, w, c, quantum=1)
        )
        try:
            result = weight.solve(instance)
        finally:
            dp_module.KNAPSACK_BACKENDS["weight_dp"] = original
        assert result.hit_ratio == pytest.approx(exact.hit_ratio, abs=1e-9)


class TestRunKnapsackFallbackChain:
    """The value_dp → weight_dp(quantum) → exact rescue chain, rung by
    rung, on a wide-value-spread instance that blows the rounded DP."""

    # A value spread of ~5 orders of magnitude: at ε = 0.1 the rounded
    # table needs ~1e7 states, so the value_dp rung always raises — and
    # the 1e-4 improvements stay far above the exact backends' 1e-12
    # pruning slack, so every exact rescue rung agrees on the selection.
    wide_values = [1e-4, 7.0, 5.0, 4.0, 3.0]
    wide_weights = [1, 4, 3, 3, 2]
    capacity = 8

    def _spec(self, **kwargs):
        return TrimCachingSpec(epsilon=0.1, **kwargs)

    def test_value_dp_rung_blows_on_this_instance(self):
        from repro.core.dp import knapsack_value_dp

        with pytest.raises(SolverError):
            knapsack_value_dp(
                self.wide_values, self.wide_weights, self.capacity, 0.1
            )

    def test_rung2_lands_on_quantised_weight_dp(self):
        from repro.core.dp import knapsack_weight_dp

        result = self._spec()._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        quantum = max(1, self.capacity // 800)
        assert result == knapsack_weight_dp(
            self.wide_values, self.wide_weights, self.capacity, quantum=quantum
        )

    def test_rung3_lands_on_exact_when_weight_dp_blows(self, monkeypatch):
        from repro.core import dp as dp_module

        def blown(*args, **kwargs):
            raise SolverError("weight DP table blown (test)")

        monkeypatch.setitem(dp_module.KNAPSACK_BACKENDS, "weight_dp", blown)
        result = self._spec()._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        assert result == dp_module.knapsack_branch_and_bound(
            self.wide_values, self.wide_weights, self.capacity
        )

    def test_all_rungs_select_identically_here(self, monkeypatch):
        """On this instance quantum=1 keeps the weight DP exact, so all
        three rescue rungs must return the identical selection."""
        from repro.core import dp as dp_module

        rung2 = self._spec()._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        best_first = self._spec(fallback="best_first")._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )

        def blown(*args, **kwargs):
            raise SolverError("weight DP table blown (test)")

        monkeypatch.setitem(dp_module.KNAPSACK_BACKENDS, "weight_dp", blown)
        rung3 = self._spec()._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        assert rung2[1] == rung3[1] == best_first[1]
        assert rung2[0] == rung3[0] == best_first[0]

    def test_best_first_fallback_used_when_configured(self):
        from repro.core.dp import knapsack_best_first

        result = self._spec(fallback="best_first")._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        assert result == knapsack_best_first(
            self.wide_values, self.wide_weights, self.capacity
        )

    def test_best_first_budget_overrun_drops_to_legacy_rungs(self, monkeypatch):
        from repro.core import dp as dp_module
        from repro.core.dp import knapsack_weight_dp

        def over_budget(*args, **kwargs):
            raise SolverError("best-first node budget exceeded (test)")

        monkeypatch.setitem(
            dp_module.KNAPSACK_BACKENDS, "best_first", over_budget
        )
        result = self._spec(fallback="best_first")._run_knapsack(
            self.wide_values, self.wide_weights, self.capacity
        )
        quantum = max(1, self.capacity // 800)
        assert result == knapsack_weight_dp(
            self.wide_values, self.wide_weights, self.capacity, quantum=quantum
        )

    def test_healthy_instance_never_falls_back(self):
        from repro.core.dp import knapsack_value_dp

        values = [3.0, 4.0, 5.0]
        weights = [2, 3, 4]
        assert self._spec()._run_knapsack(values, weights, 6) == (
            knapsack_value_dp(values, weights, 6, 0.1)
        )


class TestSpecKnobs:
    def test_fallback_validation(self):
        with pytest.raises(ConfigurationError):
            TrimCachingSpec(fallback="magic")
        assert TrimCachingSpec(fallback="best_first").fallback == "best_first"

    def test_knapsack_cache_off_matches_on(self, tight_scenario):
        on = TrimCachingSpec(epsilon=0.1, knapsack_cache=True).solve(
            tight_scenario.instance
        )
        off = TrimCachingSpec(epsilon=0.1, knapsack_cache=False).solve(
            tight_scenario.instance
        )
        assert np.array_equal(on.placement.matrix, off.placement.matrix)
        assert on.hit_ratio == off.hit_ratio
        assert "knapsack_cache_hits" in on.stats
        assert "knapsack_cache_hits" not in off.stats

    def test_prefix_prune_off_matches_on(self, tight_scenario):
        on = TrimCachingSpec(epsilon=0.1, prefix_prune=True).solve(
            tight_scenario.instance
        )
        off = TrimCachingSpec(epsilon=0.1, prefix_prune=False).solve(
            tight_scenario.instance
        )
        assert np.array_equal(on.placement.matrix, off.placement.matrix)
        assert on.hit_ratio == off.hit_ratio

    @given(special_instances())
    @settings(max_examples=20, deadline=None)
    def test_pruned_cached_solve_matches_plain(self, instance):
        """Both fast-path knobs off == both on, placement-identical, on
        random special-case instances."""
        fast = TrimCachingSpec(epsilon=0.1).solve(instance)
        plain = TrimCachingSpec(
            epsilon=0.1, knapsack_cache=False, prefix_prune=False
        ).solve(instance)
        assert np.array_equal(fast.placement.matrix, plain.placement.matrix)
        assert fast.hit_ratio == plain.hit_ratio

    def test_best_first_fallback_matches_default_on_scenario(
        self, tight_scenario
    ):
        default = TrimCachingSpec(epsilon=0.1).solve(tight_scenario.instance)
        best_first = TrimCachingSpec(epsilon=0.1, fallback="best_first").solve(
            tight_scenario.instance
        )
        # Both chains are exact-or-better on these small instances; the
        # placements may only differ if a fallback rung actually fired
        # and disagreed — they must not here.
        assert np.array_equal(
            default.placement.matrix, best_first.placement.matrix
        )


class TestSpecOnSpecialScenario:
    def test_beats_or_matches_gen(self, tight_scenario):
        """The paper's headline: Spec >= Gen on the special case (allow
        tiny numerical slack)."""
        spec = TrimCachingSpec(epsilon=0.1).solve(tight_scenario.instance)
        gen = TrimCachingGen().solve(tight_scenario.instance)
        assert spec.hit_ratio >= gen.hit_ratio - 0.02

    def test_server_orders_all_feasible(self, tight_scenario):
        for order in ("index", "capacity", "coverage"):
            result = TrimCachingSpec(epsilon=0.1, server_order=order).solve(
                tight_scenario.instance
            )
            assert placement_is_feasible(tight_scenario.instance, result.placement)


class TestGuards:
    def test_non_exclusive_specific_blocks_rejected(self):
        # Two models share a block, a third also contains it -> still
        # shared; but craft a library whose "specific" block appears in
        # two models via zero-owner tricks is impossible, so instead test
        # the library check directly on a healthy library.
        blocks = [ParameterBlock(0, 5), ParameterBlock(1, 5)]
        models = [Model(0, (0, 1)), Model(1, (0,))]
        library = ModelLibrary(blocks, models)
        assert library.specific_blocks_are_exclusive()

    def test_combination_explosion_guarded(self):
        tuner = FineTuner()
        root = make_resnet_root(RESNET18)
        tuner.freeze_bottom(root, 30, name="a")
        tuner.freeze_bottom(root, 30, name="b")
        library = tuner.build()
        demand = np.full((1, 2), 0.5)
        feasible = np.ones((1, 1, 2), dtype=bool)
        instance = PlacementInstance(library, demand, feasible, [10**9])
        solver = TrimCachingSpec(epsilon=0.1, max_combinations=1)
        with pytest.raises(SolverError):
            solver.solve(instance)


def _shared_root_library():
    """Block 0 (10 bytes) shared by models 0 and 2, which add 5 and 6
    specific bytes; model 1 is 3 specific bytes alone. A fresh library
    each call, so no per-library memo carries over between tests."""
    return ModelLibrary(
        [ParameterBlock(b, size) for b, size in enumerate((10, 5, 3, 6))],
        [Model(0, (0, 1)), Model(1, (2,)), Model(2, (0, 3))],
    )


def _spy_on_tables(monkeypatch):
    """Record every ``ValueDpTables.solve`` call's arguments."""
    calls = []
    solve = ValueDpTables.solve

    def record(self, *args):
        calls.append(args)
        return solve(self, *args)

    monkeypatch.setattr(ValueDpTables, "solve", record)
    return calls


class TestKnapsackInputs:
    @pytest.mark.parametrize(
        "tamper, match",
        [
            (lambda sizes: sizes.astype(float), "integers"),
            (lambda sizes: sizes - 100, "non-negative"),
        ],
        ids=["float", "negative"],
    )
    def test_bad_specific_weights_refused_before_any_knapsack(
        self, monkeypatch, tamper, match
    ):
        instance = PlacementInstance(
            _shared_root_library(),
            np.ones((1, 3)),
            np.ones((1, 1, 3), dtype=bool),
            [30],
        )
        index = instance.block_index
        monkeypatch.setattr(index, "model_sizes", tamper(index.model_sizes))
        calls = _spy_on_tables(monkeypatch)
        with pytest.raises(SolverError, match=match):
            TrimCachingSpec().solve(instance)
        combos = enumerate_shared_combinations(instance.library, cache=False)
        with pytest.raises(SolverError, match=match):
            TrimCachingSpec().solve_subproblem(
                instance, 0, np.ones(3), combos, tables=ValueDpTables(0.1, 30)
            )
        assert calls == []

    def test_blown_table_counts_one_miss_then_one_hit(self, monkeypatch):
        # Each server alone serves one user, who wants all three models;
        # the 1e-7 utility blows the rounded table of the combination
        # {0}. Server 0 fills it (a miss), server 1 asks for the same
        # items (a hit); both fall back, and neither call counts twice.
        demand = np.array([[1e-7, 1.0, 1.0], [1e-7, 1.0, 1.0]])
        feasible = np.zeros((2, 2, 3), dtype=bool)
        feasible[0, 0] = feasible[1, 1] = True
        instance = PlacementInstance(
            _shared_root_library(), demand, feasible, [30, 30]
        )
        calls = _spy_on_tables(monkeypatch)
        result = TrimCachingSpec().solve(instance)
        assert len(calls) == 2 and calls[0] == calls[1]
        assert calls[0][1] == (5, 3, 6) and calls[0][2] == 20
        stats = result.stats
        assert (stats["knapsack_cache_hits"], stats["knapsack_cache_misses"]) == (1, 1)
        # The fallback cached every model on both servers.
        assert result.placement.matrix.sum() == 6

    @pytest.mark.parametrize(
        "tamper, match",
        [
            (lambda v, w, c: (v + (1.0,), w + (c + 1,)), "exceeds capacity"),
            (lambda v, w, c: (v + (0.0,), w + (0,)), "must be positive"),
            (lambda v, w, c: (v, w[:-1]), "equal length"),
        ],
        ids=["overweight", "zero-value", "length"],
    )
    def test_item_contract_error_is_not_taken_for_a_blown_table(
        self, monkeypatch, tamper, match
    ):
        # A broken filtered-item contract inside Spec's own knapsack
        # items must surface, not be answered by the fallback backends.
        solve = ValueDpTables.solve
        calls = []

        def broken(self, values, weights, capacity):
            calls.append(capacity)
            return solve(self, *tamper(values, weights, capacity), capacity)

        monkeypatch.setattr(ValueDpTables, "solve", broken)
        instance = PlacementInstance(
            _shared_root_library(),
            np.ones((1, 3)),
            np.ones((1, 1, 3), dtype=bool),
            [30],
        )
        combos = enumerate_shared_combinations(instance.library, cache=False)
        with pytest.raises(SolverError, match=match) as raised:
            TrimCachingSpec().solve_subproblem(
                instance, 0, np.ones(3), combos, tables=ValueDpTables(0.1, 30)
            )
        assert not isinstance(raised.value, TableBlownError)
        assert len(calls) == 1

    def test_blown_table_is_its_own_error(self):
        tables = ValueDpTables(epsilon=0.001, capacity=11, max_states=100)
        with pytest.raises(TableBlownError):
            tables.solve((1e-9,) + (1.0,) * 10, (1,) * 11, 11)
