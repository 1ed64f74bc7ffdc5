"""Tests for scenario assembly."""

import numpy as np
import pytest

from repro.models.generators import SpecialCaseConfig, build_special_case_library
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_library, build_scenario


class TestBuildScenario:
    def test_shapes(self, small_scenario):
        scenario = small_scenario
        assert scenario.num_servers == 3
        assert scenario.num_users == 8
        assert scenario.num_models == 9
        assert scenario.demand.shape == (8, 9)
        assert scenario.instance.feasible.shape == (3, 8, 9)

    def test_deterministic_given_seed(self):
        config = ScenarioConfig(num_servers=2, num_users=4, num_models=6)
        a = build_scenario(config, seed=3)
        b = build_scenario(config, seed=3)
        assert (a.demand == b.demand).all()
        assert (a.topology.distances == b.topology.distances).all()
        assert (a.instance.feasible == b.instance.feasible).all()

    def test_different_seeds_differ(self):
        config = ScenarioConfig(num_servers=2, num_users=4, num_models=6)
        a = build_scenario(config, seed=3)
        b = build_scenario(config, seed=4)
        assert not (a.topology.distances == b.topology.distances).all()

    def test_qos_ranges_respected(self, small_scenario):
        config = small_scenario.config
        for user in small_scenario.topology.users:
            assert (user.deadlines_s >= config.deadline_range_s[0]).all()
            assert (user.deadlines_s <= config.deadline_range_s[1]).all()
            assert (
                user.inference_latency_s >= config.inference_latency_range_s[0]
            ).all()

    def test_demand_rows_normalised(self, small_scenario):
        assert small_scenario.demand.sum(axis=1) == pytest.approx(
            np.ones(small_scenario.num_users)
        )

    def test_capacities_uniform(self, small_scenario):
        assert (
            small_scenario.instance.capacities
            == small_scenario.config.storage_bytes
        ).all()

    def test_heterogeneous_capacities(self):
        from repro.errors import ConfigurationError

        config = ScenarioConfig(
            num_servers=3,
            num_users=4,
            num_models=6,
            storage_bytes_per_server=(10**8, 2 * 10**8, 3 * 10**8),
        )
        scenario = build_scenario(config, seed=0)
        assert scenario.instance.capacities.tolist() == [
            10**8,
            2 * 10**8,
            3 * 10**8,
        ]
        assert [s.storage_bytes for s in scenario.topology.servers] == [
            10**8,
            2 * 10**8,
            3 * 10**8,
        ]
        with pytest.raises(ConfigurationError):
            ScenarioConfig(
                num_servers=2, storage_bytes_per_server=(10**8,)
            )

    def test_library_reuse(self):
        config = ScenarioConfig(num_servers=2, num_users=4, num_models=6)
        library = build_special_case_library(SpecialCaseConfig(num_models=6), 0)
        a = build_scenario(config, seed=1, library=library)
        b = build_scenario(config, seed=2, library=library)
        assert a.library is library
        assert b.library is library
        # Geometry still varies.
        assert not (a.topology.distances == b.topology.distances).all()

    def test_supplied_library_overrides_model_count(self):
        config = ScenarioConfig(num_servers=2, num_users=4, num_models=99)
        library = build_special_case_library(SpecialCaseConfig(num_models=6), 0)
        scenario = build_scenario(config, seed=1, library=library)
        assert scenario.num_models == 6
        assert scenario.config.num_models == 6


class TestBuildLibrary:
    def test_special(self):
        config = ScenarioConfig(num_models=9, library_case="special")
        library = build_library(config, seed=0)
        assert library.num_models == 9

    def test_general(self):
        config = ScenarioConfig(num_models=12, library_case="general")
        library = build_library(config, seed=0)
        assert library.num_models == 12


class TestRebuildInstance:
    def test_moved_users_change_feasibility(self, small_scenario):
        far_positions = np.array([[10_000.0 + i, 10_000.0] for i in range(8)])
        topology = small_scenario.topology.with_user_positions(far_positions)
        instance = small_scenario.rebuild_instance(topology)
        # Users out of everyone's coverage: nothing feasible.
        assert not instance.feasible.any()
        # Demand and capacities carry over.
        assert (instance.demand == small_scenario.demand).all()
        assert (instance.capacities == small_scenario.instance.capacities).all()


class TestRngSchemeV2:
    """``rng_scheme="v2"``: batched construction, same distributions.

    v1 stays the seed's draw order verbatim (bit-identity asserted by
    the reference-equivalence suite); v2 is statistically cross-checked
    here because its stream layout intentionally differs.
    """

    def _configs(self, **kwargs):
        base = dict(num_servers=2, num_users=6, num_models=8)
        base.update(kwargs)
        return (
            ScenarioConfig(rng_scheme="v1", **base),
            ScenarioConfig(rng_scheme="v2", **base),
        )

    def test_v1_explicit_equals_default(self):
        config = ScenarioConfig(num_servers=2, num_users=4, num_models=6)
        explicit = build_scenario(
            config.with_overrides(rng_scheme="v1"), seed=3
        )
        default = build_scenario(config, seed=3)
        assert (explicit.demand == default.demand).all()
        for a, b in zip(
            explicit.topology.users, default.topology.users
        ):
            assert (a.deadlines_s == b.deadlines_s).all()
            assert (a.inference_latency_s == b.inference_latency_s).all()

    def test_v2_deterministic_given_seed(self):
        _, config = self._configs()
        a = build_scenario(config, seed=5)
        b = build_scenario(config, seed=5)
        assert (a.demand == b.demand).all()
        assert (a.instance.feasible == b.instance.feasible).all()

    def test_v2_shares_seed_independent_randomness_with_v1(self):
        """Positions and the library don't go through the versioned
        draws: v1 and v2 scenarios at the same seed agree on them."""
        v1, v2 = (build_scenario(c, seed=5) for c in self._configs())
        assert (v1.topology.distances == v2.topology.distances).all()
        assert [v1.library.model_size(i) for i in v1.library.model_ids] == [
            v2.library.model_size(i) for i in v2.library.model_ids
        ]

    def test_v2_demand_rows_normalised(self):
        _, config = self._configs()
        scenario = build_scenario(config, seed=7)
        assert scenario.demand.sum(axis=1) == pytest.approx(
            np.ones(config.num_users)
        )

    def test_v2_subset_sizes_exact(self):
        _, config = self._configs(requests_per_user=3, num_models=12)
        scenario = build_scenario(config, seed=7)
        assert ((scenario.demand > 0).sum(axis=1) == 3).all()

    def test_v2_rows_carry_the_same_zipf_weights_as_v1(self):
        """Each demand row's nonzero values are exactly the compact Zipf
        weights — identical support to v1, only placed differently."""
        v1_config, v2_config = self._configs(
            requests_per_user=4, num_models=16
        )
        v1 = build_scenario(v1_config, seed=9)
        v2 = build_scenario(v2_config, seed=9)
        for row in range(v2_config.num_users):
            v2_weights = np.sort(v2.demand[row][v2.demand[row] > 0])
            v1_weights = np.sort(v1.demand[row][v1.demand[row] > 0])
            assert v2_weights == pytest.approx(v1_weights)

    def test_v2_qos_ranges_respected(self):
        _, config = self._configs()
        scenario = build_scenario(config, seed=11)
        for user in scenario.topology.users:
            assert (user.deadlines_s >= config.deadline_range_s[0]).all()
            assert (user.deadlines_s <= config.deadline_range_s[1]).all()
            assert (
                user.inference_latency_s
                >= config.inference_latency_range_s[0]
            ).all()
            assert (
                user.inference_latency_s
                <= config.inference_latency_range_s[1]
            ).all()

    def test_v2_subset_choice_is_uniform(self):
        """Marginal statistics: over many users each model is chosen
        with probability subset/I (±5 σ of the binomial)."""
        config = ScenarioConfig(
            num_servers=1,
            num_users=600,
            num_models=10,
            requests_per_user=3,
            rng_scheme="v2",
        )
        scenario = build_scenario(config, seed=13)
        counts = (scenario.demand > 0).sum(axis=0)
        expected = 600 * 3 / 10
        sigma = np.sqrt(600 * 0.3 * 0.7)
        assert (np.abs(counts - expected) < 5 * sigma).all()

    def test_v2_qos_marginals_match_v1(self):
        """Mean/extremes of the batched QoS draws sit where v1's do."""
        kwargs = dict(num_servers=1, num_users=400, num_models=20)
        v1, v2 = (
            build_scenario(c, seed=17) for c in self._configs(**kwargs)
        )
        for scenario in (v1, v2):
            deadlines = np.stack(
                [u.deadlines_s for u in scenario.topology.users]
            )
            assert deadlines.mean() == pytest.approx(0.75, abs=0.01)
            assert deadlines.min() >= 0.5 and deadlines.max() <= 1.0

    def test_v2_full_library_demand(self):
        # requests_per_user=None: the batched path is the pure
        # popularity matrix.
        _, config = self._configs(requests_per_user=None)
        scenario = build_scenario(config, seed=19)
        assert (scenario.demand > 0).all()
        assert scenario.demand.sum(axis=1) == pytest.approx(
            np.ones(config.num_users)
        )
