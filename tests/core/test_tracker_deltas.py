"""Delta operations on :class:`CoverageTracker` (the serving layer's core).

The pinned property: any interleaving of add/remove-user deltas (with
placement marks mixed in), applied the way the serving layer applies
them (mutate ``instance.demand``, then ``refresh_columns``), leaves the gain matrix, the served mask, and
the unserved-demand state **bit-identical** to a tracker built fresh on
the final demand matrix with the same marks replayed, whether the
tracker's instance was built from the CSR artifact or the dense tensor.
The serving layer's exactness guarantee rests on this.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import CoverageTracker
from repro.core.placement import PlacementInstance
from tests.oracles.reference import ReferenceCoverageTracker
from repro.core.sparse import SparseFeasibility
from repro.errors import PlacementError
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

from tests.conftest import FEASIBILITY_FORMS


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


def private_instance(scenario, feasibility: str = "sparse") -> PlacementInstance:
    """A mutation-safe copy, built the way the serving layer builds one.

    ``feasibility="dense"`` builds it from the dense tensor instead, so
    the tracker derives the CSR artifact itself.
    """
    source = scenario.instance
    return PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=(
            source.sparse_feasible if feasibility == "sparse" else source.feasible
        ),
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )


def set_user(tracker: CoverageTracker, user: int, row: np.ndarray) -> np.ndarray:
    """Set one user's demand row and re-sync the tracker (the serve path)."""
    changed = tracker.instance.set_demand_row(user, row)
    tracker.refresh_columns(changed, user=user)
    return changed


def remove_user(tracker: CoverageTracker, user: int) -> np.ndarray:
    """Zero one user's demand row and re-sync the tracker."""
    return set_user(tracker, user, np.zeros(tracker.instance.num_models))


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
    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_is_bit_identical(
        self, delta_scenario, feasibility, ops
    ):
        scenario = delta_scenario
        original = scenario.demand
        instance = private_instance(scenario, feasibility)
        tracker = CoverageTracker(instance)
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
                remove_user(tracker, user)
                active[user] = False
            elif opcode == 1:
                user = a % num_users
                set_user(tracker, user, original[user].copy())
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
        fresh = CoverageTracker(fresh_instance)
        for pair in marks:
            fresh.mark_served(*pair)
        assert_trackers_identical(tracker, fresh)

    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    def test_remove_then_add_restores_exactly(self, delta_scenario, feasibility):
        scenario = delta_scenario
        instance = private_instance(scenario, feasibility)
        tracker = CoverageTracker(instance)
        reference = CoverageTracker(private_instance(scenario))
        for user in (0, 3, 7):
            remove_user(tracker, user)
        for user in (7, 0, 3):
            set_user(tracker, user, scenario.demand[user].copy())
        assert_trackers_identical(tracker, reference)


class TestDeltaBookkeeping:
    def test_clone_is_independent(self, delta_scenario):
        tracker = CoverageTracker(private_instance(delta_scenario))
        clone = tracker.clone()
        clone.mark_served(0, 1)
        assert not tracker.served.any()
        assert tracker.instance is clone.instance

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_marks_match_reference_masks(self, delta_scenario, seed):
        """Marks scatter through the flat entry index; the served mask and
        unserved mass must equal the dense seed tracker's exactly."""
        rng = np.random.default_rng(seed)
        dense = ReferenceCoverageTracker(private_instance(delta_scenario))
        sparse = CoverageTracker(private_instance(delta_scenario))
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

    def test_set_demand_row_returns_changed_columns_only(self, delta_scenario):
        instance = private_instance(delta_scenario)
        tracker = CoverageTracker(instance)
        row = instance.demand[4].copy()
        nonzero = np.flatnonzero(row)
        assert nonzero.size  # scenario gives every user some demand
        changed = remove_user(tracker, 4)
        assert np.array_equal(changed, nonzero)
        assert set_user(tracker, 4, np.zeros_like(row)).size == 0

    def test_scale_demand_column_factor_one_is_noop(self, delta_scenario):
        instance = private_instance(delta_scenario)
        assert instance.scale_demand_column(3, 1.0).size == 0

    def test_scale_demand_column_rejects_bad_factor(self, delta_scenario):
        instance = private_instance(delta_scenario)
        with pytest.raises(PlacementError):
            instance.scale_demand_column(0, -0.5)

    def test_refresh_matches_fresh_build_after_mutation(self, delta_scenario):
        """refresh_columns == rebuilding on mutated demand."""
        instance = private_instance(delta_scenario)
        tracker = CoverageTracker(instance)
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
        fresh = CoverageTracker(fresh_instance)
        fresh.mark_served(2, 4)
        assert_trackers_identical(tracker, fresh)

    def test_repeated_column_is_not_counted_twice(self, delta_scenario):
        """Refreshing a column twice in one call recomputes it; it does
        not add the column's entries twice."""
        tracker = CoverageTracker(private_instance(delta_scenario))
        expected = tracker.gain_matrix()
        tracker.refresh_columns([3, 3])
        assert np.array_equal(tracker.gain_matrix(), expected)


#: Model columns blanked out of the column-kernel scenario's feasibility,
#: so its refreshes meet columns with no entries at all.
EMPTY_COLUMNS = (0, 5)


def blanked_instance(scenario, feasibility: str) -> PlacementInstance:
    """``private_instance`` with :data:`EMPTY_COLUMNS` unreachable."""
    feasible = scenario.instance.feasible.copy()
    feasible[:, :, list(EMPTY_COLUMNS)] = False
    return PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=(
            feasible
            if feasibility == "dense"
            else SparseFeasibility.from_dense(feasible)
        ),
        capacities=np.asarray(scenario.instance.capacities, dtype=np.int64).copy(),
    )


class TestColumnKernel:
    @pytest.mark.parametrize("feasibility", FEASIBILITY_FORMS)
    @given(
        marks=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            max_size=12,
        ),
        edits=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.7]),
            ),
            max_size=10,
        ),
        extra_columns=st.lists(st.integers(0, 10_000), max_size=8),
        order_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_refresh_equals_fresh_build(
        self, delta_scenario, feasibility, marks, edits, extra_columns,
        order_seed,
    ):
        """After marks and demand edits, refreshing any column list that
        covers the edited columns (unsorted, repeated, empty columns
        included) leaves the gains equal to a fresh tracker's."""
        instance = blanked_instance(delta_scenario, feasibility)
        tracker = CoverageTracker(instance)
        num_servers = instance.num_servers
        num_users = instance.num_users
        num_models = instance.num_models
        pairs = [(a % num_servers, b % num_models) for a, b in marks]
        for pair in pairs:
            tracker.mark_served(*pair)
        edited = []
        for user, model, value in edits:
            instance.demand[user % num_users, model % num_models] = value
            edited.append(model % num_models)
        assert instance.demand.sum() > 0  # the fresh instance needs some
        columns = (
            edited
            + [column % num_models for column in extra_columns]
            + list(EMPTY_COLUMNS)
        )
        columns += columns[: len(columns) // 2]  # repeats
        np.random.default_rng(order_seed).shuffle(columns)
        tracker.refresh_columns(columns)

        fresh_instance = PlacementInstance(
            library=instance.library,
            demand=instance.demand.copy(),
            feasible=instance.sparse_feasible,
            capacities=instance.capacities.copy(),
        )
        fresh = CoverageTracker(fresh_instance)
        for pair in pairs:
            fresh.mark_served(*pair)
        assert_trackers_identical(tracker, fresh)
