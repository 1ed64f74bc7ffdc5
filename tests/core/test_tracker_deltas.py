"""Delta operations on :class:`CoverageTracker` (the serving layer's core).

The pinned property: any interleaving of add/remove-user deltas (with
placement marks mixed in) leaves the gain matrix, the served mask, and
the unserved-demand state **bit-identical** to a tracker built fresh on
the final demand matrix with the same marks replayed — for both the
dense and the sparse engine. The serving layer's exactness guarantee
rests on this.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import CoverageTracker
from repro.core.placement import PlacementInstance
from repro.errors import PlacementError
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

ENGINES = ("dense", "sparse")


@pytest.fixture(scope="module")
def delta_scenario():
    """Small but non-trivial: tight storage so marks interact with gains."""
    config = ScenarioConfig(
        num_servers=4,
        num_users=16,
        num_models=12,
        requests_per_user=5,
        storage_bytes=int(0.05 * GB),
    )
    return build_scenario(config, seed=29)


def private_instance(scenario) -> PlacementInstance:
    """A mutation-safe copy, built the way the serving layer builds one."""
    source = scenario.instance
    return PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=source.sparse_feasible,
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )


def assert_trackers_identical(actual: CoverageTracker, expected: CoverageTracker):
    """Bitwise equality of all tracker state (no tolerance)."""
    assert np.array_equal(actual.served, expected.served)
    assert np.array_equal(actual.unserved_demand(), expected.unserved_demand())
    actual_gains = actual.gain_matrix()
    expected_gains = expected.gain_matrix()
    assert (actual_gains == expected_gains).all(), (
        f"gain matrices differ in {np.sum(actual_gains != expected_gains)} "
        "entries"
    )


# Operations are drawn as (opcode, a, b) and interpreted against the
# scenario shape: 0 → remove user a%K, 1 → add user a%K back,
# 2 → mark (server a%M, model b%I).
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=0,
    max_size=40,
)


class TestInterleavedDeltasMatchFreshBuild:
    @pytest.mark.parametrize("engine", ENGINES)
    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_is_bit_identical(
        self, delta_scenario, engine, ops
    ):
        scenario = delta_scenario
        original = scenario.demand
        instance = private_instance(scenario)
        tracker = CoverageTracker(instance, engine=engine)
        num_users = instance.num_users
        num_servers = instance.num_servers
        num_models = instance.num_models

        active = np.ones(num_users, dtype=bool)
        marks = []
        for opcode, a, b in ops:
            if opcode == 0:
                user = a % num_users
                if active[user] and active.sum() == 1:
                    continue  # total demand must stay positive
                tracker.remove_user(user)
                active[user] = False
            elif opcode == 1:
                user = a % num_users
                tracker.add_user(user, original[user].copy())
                active[user] = True
            else:
                pair = (a % num_servers, b % num_models)
                tracker.mark_served(*pair)
                marks.append(pair)

        # Fresh build on the final demand, same marks replayed in order.
        fresh_instance = PlacementInstance(
            library=scenario.library,
            demand=instance.demand.copy(),
            feasible=scenario.instance.sparse_feasible,
            capacities=np.asarray(
                scenario.instance.capacities, dtype=np.int64
            ).copy(),
        )
        fresh = CoverageTracker(fresh_instance, engine=engine)
        for pair in marks:
            fresh.mark_served(*pair)
        assert_trackers_identical(tracker, fresh)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_remove_then_add_restores_exactly(self, delta_scenario, engine):
        scenario = delta_scenario
        instance = private_instance(scenario)
        tracker = CoverageTracker(instance, engine=engine)
        reference = CoverageTracker(private_instance(scenario), engine=engine)
        for user in (0, 3, 7):
            tracker.remove_user(user)
        for user in (7, 0, 3):
            tracker.add_user(user, scenario.demand[user].copy())
        assert_trackers_identical(tracker, reference)


class TestDeltaBookkeeping:
    def test_clone_is_independent(self, delta_scenario):
        tracker = CoverageTracker(private_instance(delta_scenario))
        clone = tracker.clone()
        clone.mark_served(0, 1)
        assert not tracker.served.any()
        assert tracker.instance is clone.instance

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_marks_match_dense_masks(self, delta_scenario, seed):
        """Sparse marks scatter through the flat entry index; the served
        mask and unserved mass must equal the dense engine's exactly."""
        rng = np.random.default_rng(seed)
        dense = CoverageTracker(private_instance(delta_scenario), engine="dense")
        sparse = CoverageTracker(private_instance(delta_scenario), engine="sparse")
        for _ in range(12):
            pair = (
                int(rng.integers(delta_scenario.instance.num_servers)),
                int(rng.integers(delta_scenario.instance.num_models)),
            )
            dense.mark_served(*pair)
            sparse.mark_served(*pair)
            assert np.array_equal(sparse.served, dense.served)
            assert np.array_equal(
                sparse.unserved_demand(), dense.unserved_demand()
            )
        clone = sparse.clone()
        clone.mark_served(0, 0)
        clone.mark_served(1, 1)
        assert np.array_equal(sparse.served, dense.served)

    def test_update_user_returns_changed_columns_only(self, delta_scenario):
        instance = private_instance(delta_scenario)
        tracker = CoverageTracker(instance)
        row = instance.demand[4].copy()
        nonzero = np.flatnonzero(row)
        assert nonzero.size  # scenario gives every user some demand
        changed = tracker.remove_user(4)
        assert np.array_equal(changed, nonzero)
        assert tracker.update_user(4, np.zeros_like(row)).size == 0

    def test_scale_model_factor_one_is_noop(self, delta_scenario):
        tracker = CoverageTracker(private_instance(delta_scenario))
        assert tracker.scale_model(3, 1.0).size == 0

    def test_scale_model_rejects_bad_factor(self, delta_scenario):
        tracker = CoverageTracker(private_instance(delta_scenario))
        with pytest.raises(PlacementError):
            tracker.scale_model(0, -0.5)

    def test_refresh_matches_fresh_build_after_mutation(self, delta_scenario):
        """refresh_columns == rebuilding on mutated demand (both engines)."""
        for engine in ENGINES:
            instance = private_instance(delta_scenario)
            tracker = CoverageTracker(instance, engine=engine)
            tracker.mark_served(2, 4)
            changed = instance.scale_demand_column(4, 0.25)
            tracker.refresh_columns(changed)
            fresh_instance = PlacementInstance(
                library=delta_scenario.library,
                demand=instance.demand.copy(),
                feasible=delta_scenario.instance.sparse_feasible,
                capacities=np.asarray(
                    delta_scenario.instance.capacities, dtype=np.int64
                ).copy(),
            )
            fresh = CoverageTracker(fresh_instance, engine=engine)
            fresh.mark_served(2, 4)
            assert_trackers_identical(tracker, fresh)
