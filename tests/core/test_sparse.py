"""Tests for the CSR feasibility artifact (:mod:`repro.core.sparse`).

Everything boolean/integer here must be *exactly* equal to the dense
path — the CSR is a representation change, not an approximation.
"""

import numpy as np
import pytest

from repro.core.placement import PlacementInstance
from repro.core.sparse import SparseFeasibility
from repro.errors import PlacementError
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB


def random_dense(rng, num_servers=None, num_users=None, num_models=None):
    num_servers = num_servers or int(rng.integers(1, 8))
    num_users = num_users or int(rng.integers(1, 40))
    num_models = num_models or int(rng.integers(1, 15))
    density = float(rng.uniform(0.0, 0.5))
    return rng.random((num_servers, num_users, num_models)) < density


class TestRoundTrip:
    def test_dense_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dense = random_dense(rng)
            sparse = SparseFeasibility.from_dense(dense)
            assert sparse.shape == dense.shape
            assert sparse.nnz == int(dense.sum())
            assert (sparse.to_dense() == dense).all()

    def test_empty_and_full_tensors(self):
        for dense in (
            np.zeros((3, 4, 5), dtype=bool),
            np.ones((3, 4, 5), dtype=bool),
        ):
            sparse = SparseFeasibility.from_dense(dense)
            assert (sparse.to_dense() == dense).all()
            assert sparse.density == float(dense.mean())

    def test_pair_users_match_dense(self):
        rng = np.random.default_rng(1)
        dense = random_dense(rng, 5, 20, 8)
        sparse = SparseFeasibility.from_dense(dense)
        for server in range(5):
            for model_index in range(8):
                expected = np.flatnonzero(dense[server, :, model_index])
                assert (sparse.pair_users(server, model_index) == expected).all()

    def test_column_entries_cover_column(self):
        rng = np.random.default_rng(2)
        dense = random_dense(rng, 4, 25, 6)
        sparse = SparseFeasibility.from_dense(dense)
        for model_index in range(6):
            servers, users = sparse.column_entries(model_index)
            rebuilt = np.zeros((4, 25), dtype=bool)
            rebuilt[servers, users] = True
            assert (rebuilt == dense[:, :, model_index]).all()

    def test_column_views_are_the_column_entries_in_order(self):
        rng = np.random.default_rng(3)
        for dense in (
            random_dense(rng, 4, 25, 6),
            np.zeros((0, 3, 4), dtype=bool),
            np.zeros((3, 4, 5), dtype=bool),
        ):
            sparse = SparseFeasibility.from_dense(dense)
            views = sparse.column_views()
            assert len(views) == dense.shape[2]
            assert sparse.column_views() is views
            for model_index, (servers, flat) in enumerate(views):
                expected_servers, users = sparse.column_entries(model_index)
                assert servers.tolist() == expected_servers.tolist()
                assert flat.tolist() == (
                    users.astype(np.int64) * dense.shape[2] + model_index
                ).tolist()

    def test_user_view_matches_dense(self):
        rng = np.random.default_rng(3)
        dense = random_dense(rng, 5, 15, 7)
        sparse = SparseFeasibility.from_dense(dense)
        indptr, user_models, user_servers = sparse.user_view()
        assert indptr[-1] == sparse.nnz
        for user in range(15):
            start, stop = indptr[user], indptr[user + 1]
            rebuilt = np.zeros((5, 7), dtype=bool)
            rebuilt[user_servers[start:stop], user_models[start:stop]] = True
            assert (rebuilt == dense[:, user, :]).all()

    def test_server_coverage_counts(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            dense = random_dense(rng)
            sparse = SparseFeasibility.from_dense(dense)
            expected = dense.any(axis=2).sum(axis=1)
            assert (sparse.server_coverage_counts() == expected).all()

    def test_served_matrix_matches_einsum(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            dense = random_dense(rng)
            sparse = SparseFeasibility.from_dense(dense)
            placement = rng.random((dense.shape[0], dense.shape[2])) < 0.3
            expected = np.einsum("mki,mi->ki", dense, placement) > 0
            assert (sparse.served_matrix(placement) == expected).all()

    def test_served_matrix_rejects_bad_shape(self):
        sparse = SparseFeasibility.from_dense(np.ones((2, 3, 4), dtype=bool))
        with pytest.raises(PlacementError):
            sparse.served_matrix(np.ones((2, 5), dtype=bool))


class TestLatencyConstruction:
    """``feasibility_sparse`` must equal the dense tensor bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_dense_feasibility(self, seed):
        config = ScenarioConfig(
            num_servers=8,
            num_users=50,
            num_models=20,
            requests_per_user=8,
            storage_bytes=int(0.1 * GB),
        )
        scenario = build_scenario(config, seed=seed, feasibility="dense")
        dense = scenario.latency_model.feasibility()
        sparse = scenario.latency_model.feasibility_sparse()
        assert (sparse.to_dense() == dense).all()

    def test_matches_under_faded_rates(self):
        scenario = build_scenario(
            ScenarioConfig(num_servers=4, num_users=12, num_models=8), seed=3
        )
        rng = np.random.default_rng(0)
        rates = scenario.topology.expected_rates * rng.rayleigh(
            scale=np.sqrt(2 / np.pi), size=scenario.topology.expected_rates.shape
        )
        dense = scenario.latency_model.feasibility(rates)
        sparse = scenario.latency_model.feasibility_sparse(rates)
        assert (sparse.to_dense() == dense).all()


class TestSparsePrimaryInstance:
    def test_lazy_dense_identical(self):
        scenario = build_scenario(
            ScenarioConfig(num_servers=4, num_users=20, num_models=10), seed=5
        )
        instance = scenario.instance
        assert instance.has_sparse
        dense_scenario = build_scenario(
            scenario.config, seed=5, feasibility="dense"
        )
        assert not dense_scenario.instance.has_sparse
        assert (instance.feasible == dense_scenario.instance.feasible).all()
        assert instance.feasible_shape == dense_scenario.instance.feasible_shape

    def test_dense_primary_lazy_sparse(self):
        rng = np.random.default_rng(6)
        scenario = build_scenario(
            ScenarioConfig(num_servers=3, num_users=10, num_models=6),
            seed=1,
            feasibility="dense",
        )
        instance = scenario.instance
        assert not instance.has_sparse
        sparse = instance.sparse_feasible
        assert instance.has_sparse
        assert (sparse.to_dense() == instance.feasible).all()

    def test_shape_validation_with_sparse_input(self, tiny_library):
        sparse = SparseFeasibility.from_dense(np.ones((2, 2, 4), dtype=bool))
        with pytest.raises(PlacementError):
            PlacementInstance(
                tiny_library, np.full((2, 3), 0.1), sparse, [10, 10]
            )


def _coo_from_dense(dense):
    models, servers, users = np.nonzero(dense.transpose(2, 0, 1))
    return models, servers, users


class TestFromCoo:
    """from_coo accepts only canonical COO: sorted, unique, in range."""

    def test_canonical_coo_matches_dense(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            dense = random_dense(rng)
            models, servers, users = _coo_from_dense(dense)
            built = SparseFeasibility.from_coo(
                dense.shape, models=models, servers=servers, users=users
            )
            assert built == SparseFeasibility.from_dense(dense)

    def test_unsorted_entries_rejected(self):
        # Accepted unsorted, pair_users(0, 0) would read [0], not [1].
        with pytest.raises(PlacementError, match=r"entry 1 .*sorts before"):
            SparseFeasibility.from_coo(
                (1, 2, 2), models=[1, 0], servers=[0, 0], users=[0, 1]
            )

    def test_duplicate_entry_rejected(self):
        # Accepted, nnz would be 2 for one cell and its demand count twice.
        with pytest.raises(PlacementError, match=r"entry 1 .*duplicates"):
            SparseFeasibility.from_coo(
                (1, 3, 1), models=[0, 0], servers=[0, 0], users=[2, 2]
            )

    def test_out_of_range_user_rejected(self):
        # Accepted, it would only fail later with an IndexError in to_dense.
        with pytest.raises(PlacementError, match=r"entry 1 has user 7"):
            SparseFeasibility.from_coo(
                (1, 3, 1), models=[0, 0], servers=[0, 0], users=[0, 7]
            )

    @pytest.mark.parametrize("field", ["models", "servers"])
    def test_negative_index_rejected(self, field):
        coo = {"models": [0], "servers": [0], "users": [0]}
        coo[field] = [-1]
        with pytest.raises(PlacementError, match="entry 0 has"):
            SparseFeasibility.from_coo((2, 2, 2), **coo)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(PlacementError, match="equal length"):
            SparseFeasibility.from_coo(
                (2, 2, 2), models=[0, 1], servers=[0], users=[0, 1]
            )

    def test_empty_coo(self):
        built = SparseFeasibility.from_coo(
            (2, 3, 4), models=[], servers=[], users=[]
        )
        assert built == SparseFeasibility.from_dense(
            np.zeros((2, 3, 4), dtype=bool)
        )


class TestFromUserBlocks:
    @pytest.mark.parametrize("block_size", [1, 3, 7, 40, 64])
    def test_matches_from_coo(self, block_size):
        rng = np.random.default_rng(11)
        dense = random_dense(rng, 5, 40, 9)
        reference = SparseFeasibility.from_dense(dense)
        blocks = []
        for start in range(0, 40, block_size):
            stop = min(start + block_size, 40)
            models, servers, users = _coo_from_dense(dense[:, start:stop, :])
            blocks.append((models, servers, users + start))
        merged = SparseFeasibility.from_user_blocks(dense.shape, blocks)
        assert merged == reference

    def test_empty_blocks_allowed(self):
        dense = np.zeros((2, 6, 3), dtype=bool)
        dense[1, 4, 2] = True
        blocks = []
        for start in range(0, 6, 2):
            sub = dense[:, start : start + 2, :]
            models, servers, users = _coo_from_dense(sub)
            blocks.append((models, servers, users + start))
        merged = SparseFeasibility.from_user_blocks(dense.shape, blocks)
        assert merged == SparseFeasibility.from_dense(dense)

    def test_no_blocks_is_empty(self):
        merged = SparseFeasibility.from_user_blocks((2, 3, 4), [])
        assert merged.nnz == 0
        assert merged == SparseFeasibility.from_dense(
            np.zeros((2, 3, 4), dtype=bool)
        )


class TestEquality:
    def test_equal_and_unequal(self):
        rng = np.random.default_rng(12)
        dense = random_dense(rng, 3, 10, 5)
        a = SparseFeasibility.from_dense(dense)
        b = SparseFeasibility.from_dense(dense.copy())
        assert a == b and not (a != b)
        flipped = dense.copy()
        flipped[0, 0, 0] = not flipped[0, 0, 0]
        assert a != SparseFeasibility.from_dense(flipped)

    def test_shape_mismatch_unequal(self):
        a = SparseFeasibility.from_dense(np.zeros((2, 3, 4), dtype=bool))
        b = SparseFeasibility.from_dense(np.zeros((2, 4, 3), dtype=bool))
        assert a != b

    def test_other_types_not_implemented(self):
        sparse = SparseFeasibility.from_dense(np.zeros((1, 2, 3), dtype=bool))
        assert sparse != "not a bundle"
        assert (sparse == 42) is False

    def test_hash_is_identity(self):
        dense = np.zeros((1, 2, 3), dtype=bool)
        a = SparseFeasibility.from_dense(dense)
        b = SparseFeasibility.from_dense(dense)
        assert a == b
        assert hash(a) != hash(b) or a is b  # identity hashing retained
        assert len({id(a), id(b)}) == 2


class TestServedMatrixBlock:
    def test_blocks_tile_served_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dense = random_dense(rng)
            sparse = SparseFeasibility.from_dense(dense)
            placement = rng.random((dense.shape[0], dense.shape[2])) < 0.3
            full = sparse.served_matrix(placement)
            for block_size in (1, 3, dense.shape[1]):
                for start in range(0, dense.shape[1], block_size):
                    stop = min(start + block_size, dense.shape[1])
                    block = sparse.served_matrix_block(placement, start, stop)
                    assert (block == full[start:stop]).all()

    def test_range_validation(self):
        sparse = SparseFeasibility.from_dense(np.ones((2, 5, 3), dtype=bool))
        placement = np.ones((2, 3), dtype=bool)
        with pytest.raises(PlacementError, match="out of range"):
            sparse.served_matrix_block(placement, -1, 2)
        with pytest.raises(PlacementError, match="out of range"):
            sparse.served_matrix_block(placement, 0, 6)
        with pytest.raises(PlacementError, match="out of range"):
            sparse.served_matrix_block(placement, 4, 2)

    def test_shape_validation(self):
        sparse = SparseFeasibility.from_dense(np.ones((2, 5, 3), dtype=bool))
        with pytest.raises(PlacementError):
            sparse.served_matrix_block(np.ones((2, 4), dtype=bool), 0, 5)


class TestSparseTrackerBits:
    """The tracker's gains are each server's column entries
    summed one by one in storage order, bit for bit: the contract that
    lets the column refresh be any kernel that keeps that order."""

    @staticmethod
    def sequential_gains(tracker, instance):
        sparse = instance.sparse_feasible
        weighted = tracker.unserved_demand()
        gains = np.zeros((instance.num_servers, instance.num_models))
        for model_index in range(instance.num_models):
            servers, users = sparse.column_entries(model_index)
            sums = [0.0] * instance.num_servers
            for server, user in zip(servers.tolist(), users.tolist()):
                sums[server] += float(weighted[user, model_index])
            gains[:, model_index] = sums
        return gains

    def test_gains_after_marks_equal_the_sequential_sums(self):
        from repro.core.objective import CoverageTracker

        config = ScenarioConfig(num_servers=5, num_users=30, num_models=12,
                                requests_per_user=6)
        instance = build_scenario(config, seed=9).instance
        tracker = CoverageTracker(instance)
        assert np.array_equal(
            tracker.gain_matrix(), self.sequential_gains(tracker, instance)
        )
        clone = tracker.clone()
        rng = np.random.default_rng(4)
        for _ in range(15):
            server = int(rng.integers(instance.num_servers))
            model_index = int(rng.integers(instance.num_models))
            clone.mark_served(server, model_index)
            assert np.array_equal(
                clone.gain_matrix(), self.sequential_gains(clone, instance)
            )
        assert np.array_equal(
            tracker.gain_matrix(), self.sequential_gains(tracker, instance)
        )
        assert not tracker.served.any()
