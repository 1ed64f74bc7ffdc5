"""Tests for TrimCaching Gen (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bounds import gamma_bound
from repro.core.gen import GenConfig, TrimCachingGen
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.independent import IndependentCaching, IndependentConfig
from repro.core.objective import hit_ratio, storage_used
from repro.core.placement import Placement
from repro.core.spec import SpecConfig, TrimCachingSpec
from repro.errors import ConfigurationError

from tests.conftest import FEASIBILITY_FORMS, in_feasibility_form
from tests.core.test_submodular import small_instances
from tests.oracles.capacity import placement_is_feasible


class TestBasicBehaviour:
    def test_respects_capacity(self, tiny_instance):
        result = TrimCachingGen().solve(tiny_instance)
        assert placement_is_feasible(tiny_instance, result.placement)

    def test_hit_ratio_matches_placement(self, tiny_instance):
        result = TrimCachingGen().solve(tiny_instance)
        assert result.hit_ratio == pytest.approx(
            hit_ratio(tiny_instance, result.placement)
        )

    def test_exploits_sharing_on_tiny_instance(self, tiny_instance):
        # Server 0 (20 MB) can hold models 0 AND 1 only via dedup; the
        # greedy must find that.
        result = TrimCachingGen().solve(tiny_instance)
        on_zero = set(result.placement.models_on(0))
        assert on_zero == {0, 1}
        assert storage_used(tiny_instance, result.placement, 0) == 20_000_000

    @pytest.mark.parametrize("accelerated", [True, False])
    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    def test_zero_capacity_places_nothing(
        self, tiny_library, feasibility, accelerated
    ):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 0.1),
            np.ones((2, 2, 3), dtype=bool),
            [0, 0],
        )
        result = TrimCachingGen(accelerated=accelerated).solve(
            in_feasibility_form(instance, feasibility)
        )
        assert result.placement.total_placements() == 0
        assert result.hit_ratio == 0.0

    def test_no_feasible_requests(self, tiny_library):
        from tests.conftest import make_instance

        instance = make_instance(
            tiny_library,
            np.full((2, 3), 0.1),
            np.zeros((2, 2, 3), dtype=bool),
            [10**9, 10**9],
        )
        result = TrimCachingGen().solve(instance)
        assert result.hit_ratio == 0.0

    def test_stats_recorded(self, tiny_instance):
        result = TrimCachingGen().solve(tiny_instance)
        assert result.stats["greedy_steps"] == result.placement.total_placements()
        assert result.solver == "TrimCaching Gen"


class TestLazyEqualsNaive:
    @given(small_instances())
    @settings(max_examples=50, deadline=None)
    def test_identical_hit_ratio(self, instance):
        lazy = TrimCachingGen(accelerated=True).solve(instance)
        naive = TrimCachingGen(accelerated=False).solve(instance)
        assert lazy.hit_ratio == pytest.approx(naive.hit_ratio, abs=1e-12)

    def test_identical_placement_on_scenarios(self, tight_scenario):
        lazy = TrimCachingGen(accelerated=True).solve(tight_scenario.instance)
        naive = TrimCachingGen(accelerated=False).solve(tight_scenario.instance)
        assert lazy.placement == naive.placement


class TestGreedyQuality:
    @given(small_instances())
    @settings(max_examples=30, deadline=None)
    def test_within_gamma_bound_of_optimal(self, instance):
        """Theorem 3: U(greedy) >= U(optimal) / Γ."""
        greedy = TrimCachingGen().solve(instance)
        optimal = ExhaustiveSearch().solve(instance)
        gamma = gamma_bound(instance)
        if gamma > 0:
            assert greedy.hit_ratio >= optimal.hit_ratio / gamma - 1e-9
        assert greedy.hit_ratio <= optimal.hit_ratio + 1e-9

    def test_near_optimal_on_tight_scenario(self, tight_scenario):
        """Greedy stays within a constant factor on a realistic instance.

        (The paper's Fig. 6(a) observes a ~1.3% gap on its own setting;
        our deliberately tight fixture is harder — the greedy lands at
        ~84% of optimal — so assert a loose 3/4 bound.)
        """
        greedy = TrimCachingGen().solve(tight_scenario.instance)
        optimal = ExhaustiveSearch().solve(tight_scenario.instance)
        assert greedy.hit_ratio >= 0.75 * optimal.hit_ratio


class TestExactCapacityZeroMarginal:
    """Regression: a server at exact capacity must still cache a model
    whose blocks are already fully cached (zero marginal bytes).

    The naive scan skips exhausted servers as an optimisation; skipping
    on ``remaining == 0`` alone would wrongly drop these free, legal,
    positive-gain placements.
    """

    @pytest.fixture
    def nested_instance(self):
        from repro.models.blocks import ParameterBlock
        from repro.models.library import ModelLibrary
        from repro.models.model import Model
        from tests.conftest import make_instance

        # Model 1's blocks are a subset of model 0's, so after caching
        # model 0 the marginal cost of model 1 is exactly zero.
        blocks = [ParameterBlock(0, 70), ParameterBlock(1, 30)]
        models = [Model(0, (0, 1)), Model(1, (0,))]
        library = ModelLibrary(blocks, models)
        demand = np.array([[0.9, 0.1]])
        feasible = np.ones((1, 1, 2), dtype=bool)
        # Capacity exactly fits model 0; nothing is left afterwards.
        return make_instance(library, demand, feasible, [100])

    @pytest.mark.parametrize("accelerated", [True, False])
    def test_zero_marginal_cacheable_at_exact_capacity(
        self, nested_instance, accelerated
    ):
        result = TrimCachingGen(accelerated=accelerated).solve(nested_instance)
        assert set(result.placement.models_on(0)) == {0, 1}
        assert result.hit_ratio == pytest.approx(1.0)
        assert storage_used(nested_instance, result.placement, 0) == 100

    def test_zero_capacity_server_with_free_model_stays_empty(self):
        """remaining == 0 from the start and no cached blocks: nothing
        has zero marginal cost, so the skip must engage."""
        from repro.models.blocks import ParameterBlock
        from repro.models.library import ModelLibrary
        from repro.models.model import Model
        from tests.conftest import make_instance

        blocks = [ParameterBlock(0, 10)]
        library = ModelLibrary(blocks, [Model(0, (0,))])
        demand = np.array([[1.0]])
        feasible = np.ones((1, 1, 1), dtype=bool)
        instance = make_instance(library, demand, feasible, [0])
        for accelerated in (True, False):
            result = TrimCachingGen(accelerated=accelerated).solve(instance)
            assert result.placement.total_placements() == 0


class TestFillZeroGain:
    def test_fills_leftover_capacity(self, tiny_instance):
        plain = TrimCachingGen(fill_zero_gain=False).solve(tiny_instance)
        filled = TrimCachingGen(fill_zero_gain=True).solve(tiny_instance)
        assert filled.placement.total_placements() >= plain.placement.total_placements()
        assert placement_is_feasible(tiny_instance, filled.placement)
        # Filling never changes the objective.
        assert filled.hit_ratio == pytest.approx(plain.hit_ratio)

    def test_literal_stopping_rule(self, tiny_instance):
        """After filling, no server can cache any further model."""
        result = TrimCachingGen(fill_zero_gain=True).solve(tiny_instance)
        for server in range(tiny_instance.num_servers):
            cached = set(result.placement.models_on(server))
            blocks = set()
            for model_index in cached:
                blocks |= tiny_instance.model_blocks[model_index]
            used = tiny_instance.dedup_storage(cached)
            remaining = int(tiny_instance.capacities[server]) - used
            for model_index in range(tiny_instance.num_models):
                if model_index in cached:
                    continue
                assert tiny_instance.marginal_storage(model_index, blocks) > remaining


class TestFillZeroGainPort:
    """The ServerBlockCache-based filler must replay the seed's set walk."""

    @staticmethod
    def _fill_remaining_set_walk(instance, placement):
        """The pre-port filler (Python set walks), kept as the oracle."""
        cached_blocks = []
        used = []
        for server in range(instance.num_servers):
            blocks = set()
            for model_index in placement.models_on(server):
                blocks |= instance.model_blocks[model_index]
            cached_blocks.append(blocks)
            used.append(instance.dedup_storage(placement.models_on(server)))
        for server in range(instance.num_servers):
            remaining = int(instance.capacities[server] - used[server])
            for model_index in range(instance.num_models):
                if placement.contains(server, model_index):
                    continue
                extra = instance.marginal_storage(
                    model_index, cached_blocks[server]
                )
                if extra <= remaining:
                    placement.add(server, model_index)
                    cached_blocks[server] |= instance.model_blocks[model_index]
                    remaining -= extra

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_identical_fill(self, instance):
        base = TrimCachingGen(fill_zero_gain=False).solve(instance).placement
        ported = base.copy()
        TrimCachingGen(fill_zero_gain=True)._fill_remaining(instance, ported)
        oracle = base.copy()
        self._fill_remaining_set_walk(instance, oracle)
        assert ported == oracle
        assert placement_is_feasible(instance, ported)


def gain_tie_instance():
    """Two servers, two users, three 10-byte models with disjoint blocks,
    one model per server.

    Model 0 is reachable from both servers and model 1 only from server 0,
    each with mass 0.5, so the first step's maximisers are exactly tied:
    (0, 0), (0, 1) and (1, 0). Model 2 (mass 0.3) is reachable only from
    server 1. Lowest server, then lowest model, picks (0, 0), which
    zeroes (1, 0) and leaves server 1 with model 2. Preferring a higher
    server or a higher model ends with model 0 on server 1 instead.
    """
    from repro.models.blocks import ParameterBlock
    from repro.models.library import ModelLibrary
    from repro.models.model import Model
    from tests.conftest import make_instance

    blocks = [ParameterBlock(index, 10) for index in range(3)]
    models = [Model(index, (index,)) for index in range(3)]
    library = ModelLibrary(blocks, models)
    demand = np.array([[0.25, 0.25, 0.1], [0.25, 0.25, 0.2]])
    feasible = np.zeros((2, 2, 3), dtype=bool)
    feasible[:, :, 0] = True
    feasible[0, :, 1] = True
    feasible[1, :, 2] = True
    return make_instance(library, demand, feasible, [10, 10])


class TestEngines:
    """The tie-break pin, and the inert plan-level ``engine`` field."""

    @pytest.mark.parametrize("accelerated", [True, False])
    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    def test_gain_ties_resolve_to_lowest_server_then_model(
        self, feasibility, accelerated
    ):
        from tests.oracles.reference import ReferenceGen

        instance = gain_tie_instance()
        result = TrimCachingGen(accelerated=accelerated).solve(
            in_feasibility_form(instance, feasibility)
        )
        assert result.placement.models_on(0) == [0]
        assert result.placement.models_on(1) == [2]
        reference = ReferenceGen(accelerated=accelerated).solve(instance)
        assert result.placement == reference.placement
        assert result.hit_ratio == reference.hit_ratio

    @pytest.mark.parametrize("config_cls", [GenConfig, SpecConfig, IndependentConfig])
    @pytest.mark.parametrize("engine", ["dense", "sparse", "auto"])
    def test_configs_accept_saved_engine_values(self, config_cls, engine):
        """Saved plans name an engine; it loads and builds the one kernel."""
        config = config_cls(engine=engine)
        assert config.engine == engine
        assert not hasattr(config.build(), "engine")

    @pytest.mark.parametrize("config_cls", [GenConfig, SpecConfig])
    @pytest.mark.parametrize("engine", ["compiled", "magic"])
    def test_configs_reject_unknown_engine(self, config_cls, engine):
        with pytest.raises(ConfigurationError, match=r"dense\|sparse\|auto"):
            config_cls(engine=engine)

    @pytest.mark.parametrize(
        "solver", [TrimCachingGen, TrimCachingSpec, IndependentCaching]
    )
    def test_solvers_take_no_engine(self, solver):
        with pytest.raises(TypeError):
            solver(engine="sparse")
