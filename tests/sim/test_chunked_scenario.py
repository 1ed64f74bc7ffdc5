"""Chunked scenario pipeline: bit-identity to the unchunked v2 build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gen import TrimCachingGen
from repro.errors import ConfigurationError
from repro.models.popularity import ZipfPopularity
from repro.network.users import UserBatch
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

BASE = ScenarioConfig(
    num_users=41,
    num_servers=4,
    num_models=12,
    requests_per_user=5,
    rng_scheme="v2",
)


def _assert_identical(chunked, reference):
    assert np.array_equal(chunked.demand, reference.demand)
    assert np.array_equal(
        chunked.topology.distances, reference.topology.distances
    )
    assert np.array_equal(
        chunked.topology.deadlines_matrix, reference.topology.deadlines_matrix
    )
    assert chunked.instance.sparse_feasible == reference.instance.sparse_feasible


class TestChunkedIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 7, 41, 40, 64, 13])
    def test_chunked_equals_unchunked(self, chunk_size):
        reference = build_scenario(BASE, seed=3)
        chunked = build_scenario(
            BASE.with_overrides(chunk_size=chunk_size), seed=3
        )
        _assert_identical(chunked, reference)

    def test_no_subset_variant(self):
        base = BASE.with_overrides(requests_per_user=None)
        reference = build_scenario(base, seed=11)
        chunked = build_scenario(base.with_overrides(chunk_size=6), seed=11)
        _assert_identical(chunked, reference)

    def test_shared_popularity_variant(self):
        base = BASE.with_overrides(per_user_popularity=False)
        reference = build_scenario(base, seed=5)
        chunked = build_scenario(base.with_overrides(chunk_size=5), seed=5)
        _assert_identical(chunked, reference)

    def test_solver_sees_identical_instance(self):
        reference = build_scenario(BASE, seed=9)
        chunked = build_scenario(BASE.with_overrides(chunk_size=10), seed=9)
        solver = TrimCachingGen()
        a = solver.solve(reference.instance)
        b = solver.solve(chunked.instance)
        assert a.hit_ratio == b.hit_ratio
        assert np.array_equal(a.placement.matrix, b.placement.matrix)

    @settings(max_examples=25, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=55))
    def test_any_chunk_size_is_identical(self, chunk_size):
        reference = build_scenario(BASE, seed=7)
        chunked = build_scenario(
            BASE.with_overrides(chunk_size=chunk_size), seed=7
        )
        _assert_identical(chunked, reference)


class TestChunkedPopularity:
    @pytest.mark.parametrize("per_user", [True, False])
    @pytest.mark.parametrize("chunk_size", [1, 4, 19, 30])
    def test_chunked_rows_match_full_call(self, per_user, chunk_size):
        popularity = ZipfPopularity(per_user_permutation=per_user)
        full = popularity.probabilities_batched(
            19, 8, np.random.default_rng(2)
        )
        chunked = popularity.probabilities_batched(
            19, 8, np.random.default_rng(2), chunk_size=chunk_size
        )
        assert np.array_equal(full, chunked)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ZipfPopularity().probabilities_batched(5, 3, 0, chunk_size=0)


class TestChunkedValidation:
    def test_chunk_size_requires_v2(self):
        with pytest.raises(ConfigurationError, match="rng_scheme='v2'"):
            ScenarioConfig(rng_scheme="v1", chunk_size=8)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(rng_scheme="v2", chunk_size=0)

    def test_chunked_refuses_dense_feasibility(self):
        config = BASE.with_overrides(chunk_size=8)
        with pytest.raises(ValueError, match="sparse"):
            build_scenario(config, seed=0, feasibility="dense")

    def test_config_round_trips_chunk_size(self):
        config = BASE.with_overrides(chunk_size=16)
        assert ScenarioConfig.from_dict(config.to_dict()) == config


class TestLazyUsers:
    @pytest.mark.parametrize(
        "config",
        [
            BASE.with_overrides(rng_scheme="v1"),
            BASE,
            BASE.with_overrides(chunk_size=8),
        ],
        ids=["v1", "v2", "v2-chunked"],
    )
    def test_users_stay_unmaterialised(self, config):
        topology = build_scenario(config, seed=2).topology
        assert isinstance(topology.user_batch, UserBatch)
        assert topology._users is None  # no User objects built yet

    def test_lazy_users_match_eager_build(self):
        reference = build_scenario(BASE, seed=2)
        chunked = build_scenario(BASE.with_overrides(chunk_size=8), seed=2)
        lazy = chunked.topology.users
        eager = reference.topology.users
        assert len(lazy) == len(eager)
        for a, b in zip(lazy, eager):
            assert a.user_id == b.user_id
            assert a.position == b.position
            assert np.array_equal(a.deadlines_s, b.deadlines_s)
            assert np.array_equal(a.inference_latency_s, b.inference_latency_s)


class TestUserBatch:
    def test_validates_like_user(self):
        good = dict(
            positions=np.zeros((3, 2)),
            deadlines_s=np.ones((3, 4)),
            inference_latency_s=np.zeros((3, 4)),
        )
        UserBatch(**good)  # sanity
        with pytest.raises(ConfigurationError, match="positive"):
            UserBatch(**{**good, "deadlines_s": np.zeros((3, 4))})
        with pytest.raises(ConfigurationError, match="non-negative"):
            UserBatch(**{**good, "inference_latency_s": -np.ones((3, 4))})
        with pytest.raises(ConfigurationError, match="equal shape"):
            UserBatch(**{**good, "inference_latency_s": np.zeros((3, 5))})
        with pytest.raises(ConfigurationError, match="one entry per"):
            UserBatch(**{**good, "positions": np.zeros((4, 2))})
        with pytest.raises(ConfigurationError, match="\\(K, 2\\)"):
            UserBatch(**{**good, "positions": np.zeros((3, 3))})
        with pytest.raises(ConfigurationError, match="active_probability"):
            UserBatch(**good, active_probability=0.0)
        with pytest.raises(ConfigurationError, match="2-D"):
            UserBatch(
                **{
                    **good,
                    "deadlines_s": np.ones(4),
                    "inference_latency_s": np.zeros(4),
                }
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["positions", "deadlines_s", "inference_latency_s"]
    )
    def test_rejects_non_finite_entries(self, field, bad):
        arrays = dict(
            positions=np.zeros((3, 2)),
            deadlines_s=np.ones((3, 4)),
            inference_latency_s=np.zeros((3, 4)),
        )
        arrays[field][1, 1] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            UserBatch(**arrays)

    def test_user_views_share_rows(self):
        batch = UserBatch(
            positions=np.arange(6, dtype=float).reshape(3, 2),
            deadlines_s=np.ones((3, 2)),
            inference_latency_s=np.zeros((3, 2)),
        )
        user = batch.user(1)
        assert user.user_id == 1
        assert user.position.x == 2.0 and user.position.y == 3.0
        assert np.shares_memory(user.deadlines_s, batch.deadlines_s)
        assert len(batch.to_users()) == 3
        with pytest.raises(ConfigurationError, match="out of range"):
            batch.user(3)
