"""Equivalence of the vectorised solver engine against the seed code.

The seed implementations (pure-Python inner loops) are retained verbatim
in :mod:`repro.core.reference`; these tests pin the vectorised engine to
them:

* the incremental :class:`CoverageTracker` maintains a gain matrix whose
  every server row is **bit-identical** to the reference's per-server
  sum (:meth:`ReferenceCoverageTracker.server_gains`);
* ``TrimCachingGen`` — lazy/vectorised and naive — produces placements
  identical to the seed naive greedy (the literal Algorithm 3, whose
  einsum gains define the canonical tie-breaking);
* ``TrimCachingSpec`` matches the seed Spec;
* the vectorised ``knapsack_value_dp`` returns the exact selections of
  the seed DP, including its guard errors.

The randomized sweeps run ≥20 seeded scenario instances each (both
library cases, several capacity regimes).
"""

import numpy as np
import pytest

from repro.core.dp import knapsack_value_dp
from repro.core.gen import TrimCachingGen
from repro.core.independent import IndependentCaching
from repro.core.objective import CoverageTracker
from repro.core.placement import PlacementInstance
from repro.core.reference import (
    ReferenceCoverageTracker,
    ReferenceGen,
    ReferenceIndependent,
    ReferenceSpec,
    reference_knapsack_value_dp,
)
from repro.core.spec import TrimCachingSpec
from repro.errors import SolverError
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

# 24 scenario instances: 2 library cases x 3 capacity regimes x 4 seeds.
SCENARIO_GRID = [
    (case, storage, seed)
    for case in ("special", "general")
    for storage in (0.06, 0.12, 0.3)
    for seed in (0, 1, 2, 3)
]


def grid_instance(case, storage, seed, feasibility="sparse") -> PlacementInstance:
    config = ScenarioConfig(
        num_servers=6,
        num_users=40,
        num_models=24,
        requests_per_user=10,
        storage_bytes=int(storage * GB),
        library_case=case,
    )
    return build_scenario(config, seed=seed, feasibility=feasibility).instance


def random_tracker_instance(rng) -> PlacementInstance:
    num_models = int(rng.integers(1, 12))
    num_blocks = num_models * 2
    blocks = [
        ParameterBlock(b, int(rng.integers(1, 50))) for b in range(num_blocks)
    ]
    models = [
        Model(
            i,
            tuple(
                sorted(
                    set(
                        int(x)
                        for x in rng.integers(
                            0, num_blocks, size=rng.integers(1, 5)
                        )
                    )
                )
            ),
        )
        for i in range(num_models)
    ]
    library = ModelLibrary(blocks, models)
    num_servers = int(rng.integers(1, 6))
    num_users = int(rng.integers(1, 120))
    demand = rng.random((num_users, num_models)) + 1e-6
    feasible = rng.random((num_servers, num_users, num_models)) < 0.5
    capacities = [int(rng.integers(0, 200)) for _ in range(num_servers)]
    return PlacementInstance(library, demand, feasible, capacities)


def reference_row(ref, server):
    """The left-to-right sum of ``server``'s unserved mass, per model.

    That is :meth:`ReferenceCoverageTracker.server_gains` whenever the
    instance has two or more models. With one model the ``(K, 1)``
    product is contiguous along users and numpy reduces it pairwise, so
    the reference's sum is not left to right; ``np.add.accumulate``
    gives the left-to-right one there.
    """
    if ref.instance.num_models > 1:
        return ref.server_gains(server)
    terms = ref.instance.feasible[server] * ref.unserved_demand()
    return np.add.accumulate(terms, axis=0)[-1]


def assert_rows_equal_reference(new, ref):
    gains = new.gain_matrix()
    for server in range(ref.instance.num_servers):
        assert np.array_equal(gains[server], reference_row(ref, server))
        assert np.array_equal(new.server_gains(server), gains[server])


class TestTrackerBitEquality:
    def test_gain_rows_bit_identical_to_reference_server_sums(self):
        """The build and every column refresh reproduce the reference's
        per-server sums bit for bit: both add a server's users one by
        one in user order."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            instance = random_tracker_instance(rng)
            new = CoverageTracker(instance)
            ref = ReferenceCoverageTracker(instance)
            assert_rows_equal_reference(new, ref)
            for _ in range(25):
                server = int(rng.integers(0, instance.num_servers))
                model = int(rng.integers(0, instance.num_models))
                new.mark_served(server, model)
                ref.mark_served(server, model)
                assert (new.served == ref.served).all()
                assert (new.unserved_demand() == ref.unserved_demand()).all()
                assert_rows_equal_reference(new, ref)

    def test_placed_pair_gain_is_exact_zero(self):
        """mark_served zeroes the pair's own gain exactly (the vectorised
        engine's argmax relies on this instead of a placed mask)."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            instance = random_tracker_instance(rng)
            tracker = CoverageTracker(instance)
            for _ in range(10):
                server = int(rng.integers(0, instance.num_servers))
                model = int(rng.integers(0, instance.num_models))
                tracker.mark_served(server, model)
                assert tracker.gain(server, model) == 0.0


class TestGenEquivalence:
    @pytest.mark.parametrize("case,storage,seed", SCENARIO_GRID)
    def test_all_paths_match_seed_naive(self, case, storage, seed):
        """vectorised ≡ naive ≡ seed naive greedy, placement-for-placement."""
        instance = grid_instance(case, storage, seed)
        vectorised = TrimCachingGen(accelerated=True).solve(instance)
        naive = TrimCachingGen(accelerated=False).solve(instance)
        seed_naive = ReferenceGen(accelerated=False).solve(instance)
        assert vectorised.placement == naive.placement
        assert vectorised.placement == seed_naive.placement
        assert vectorised.hit_ratio == seed_naive.hit_ratio

    @pytest.mark.parametrize("case,storage,seed", SCENARIO_GRID)
    def test_matches_seed_lazy(self, case, storage, seed):
        """The seed's lazy greedy agrees on this grid too. (Its
        pairwise-sum gains can round mathematically tied pairs apart
        from its own naive scan's einsum on some larger instances — a
        seed-internal quirk — so the canonical reference is the naive
        scan; this grid is one where the seed agrees with itself.)"""
        instance = grid_instance(case, storage, seed)
        vectorised = TrimCachingGen(accelerated=True).solve(instance)
        seed_lazy = ReferenceGen(accelerated=True).solve(instance)
        assert vectorised.placement == seed_lazy.placement

    @pytest.mark.parametrize("storage,seed", [(0.06, 1), (0.12, 42)])
    def test_every_path_agrees_at_paper_scale(self, storage, seed):
        """``M=30, K=200, I=120``: the seed's lazy and naive greedy and
        both new paths place the same (the instances the Gen speed gate
        has timed)."""
        config = ScenarioConfig(
            num_servers=30,
            num_users=200,
            num_models=120,
            requests_per_user=30,
            storage_bytes=int(storage * GB),
        )
        instance = build_scenario(config, seed=seed).instance
        vectorised = TrimCachingGen(accelerated=True).solve(instance)
        for other in (
            TrimCachingGen(accelerated=False),
            ReferenceGen(accelerated=False),
            ReferenceGen(accelerated=True),
        ):
            assert other.solve(instance).placement == vectorised.placement


class TestSpecEquivalence:
    @pytest.mark.parametrize(
        "storage,seed",
        [(s, seed) for s in (0.06, 0.12, 0.3) for seed in (0, 1, 2, 3)],
    )
    def test_matches_seed_spec(self, storage, seed):
        instance = grid_instance("special", storage, seed)
        new = TrimCachingSpec(epsilon=0.1).solve(instance)
        ref = ReferenceSpec(epsilon=0.1).solve(instance)
        assert new.placement == ref.placement
        assert new.stats["per_server_mass"] == ref.stats["per_server_mass"]


class TestIndependentEquivalence:
    @pytest.mark.parametrize("case,storage,seed", SCENARIO_GRID)
    def test_masked_argmax_matches_seed(self, case, storage, seed):
        """The masked-argmax Independent port is byte-identical to the
        seed's per-step rescan loop."""
        instance = grid_instance(case, storage, seed)
        new = IndependentCaching().solve(instance)
        ref = ReferenceIndependent().solve(instance)
        assert new.placement == ref.placement
        assert new.hit_ratio == ref.hit_ratio
        assert new.stats["greedy_steps"] == ref.stats["greedy_steps"]


class TestSparseEquivalence:
    """The CSR feasibility/coverage path pinned against the dense seed.

    The tracker's ``served``/``unserved_demand`` state is exactly the
    seed's; its gain sums reduce only the CSR nonzeros and so may differ
    from the seed's einsum in final ulps — placements, hit ratios and
    the zero/positive gain structure must still match exactly.
    """

    def test_tracker_state_exact_and_gains_tight(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            instance = random_tracker_instance(rng)
            sparse = CoverageTracker(instance)
            ref = ReferenceCoverageTracker(instance)
            for _ in range(15):
                server = int(rng.integers(0, instance.num_servers))
                model = int(rng.integers(0, instance.num_models))
                sparse.mark_served(server, model)
                ref.mark_served(server, model)
                assert (sparse.served == ref.served).all()
                assert (
                    sparse.unserved_demand() == ref.unserved_demand()
                ).all()
                gains_sparse = sparse.gain_matrix()
                gains_ref = ref.gain_matrix()
                # Same terms, possibly different reduction grouping.
                assert np.allclose(gains_sparse, gains_ref, rtol=1e-12, atol=0.0)
                # Zero structure is exact: a pair with no reachable mass
                # reads exactly 0.0 in both (the argmax stopping rule
                # depends on it).
                assert ((gains_sparse == 0.0) == (gains_ref == 0.0)).all()
                assert sparse.hit_ratio() == float(
                    (instance.demand * ref.served).sum()
                    / instance.total_demand
                )

    @pytest.mark.parametrize("case,storage,seed", SCENARIO_GRID)
    def test_sparse_gen_matches_seed(self, case, storage, seed):
        sparse_instance = grid_instance(case, storage, seed)
        assert sparse_instance.has_sparse
        result = TrimCachingGen().solve(sparse_instance)
        seed_result = ReferenceGen(accelerated=False).solve(
            grid_instance(case, storage, seed, feasibility="dense")
        )
        assert result.placement == seed_result.placement
        assert result.hit_ratio == seed_result.hit_ratio

    @pytest.mark.parametrize(
        "storage,seed",
        [(s, seed) for s in (0.06, 0.12, 0.3) for seed in (0, 1, 2, 3)],
    )
    def test_sparse_spec_matches_seed(self, storage, seed):
        sparse_instance = grid_instance("special", storage, seed)
        result = TrimCachingSpec(epsilon=0.1).solve(sparse_instance)
        ref = ReferenceSpec(epsilon=0.1).solve(
            grid_instance("special", storage, seed, feasibility="dense")
        )
        assert result.placement == ref.placement
        assert result.hit_ratio == ref.hit_ratio

    @pytest.mark.parametrize("case,storage,seed", SCENARIO_GRID[:8])
    def test_sparse_independent_matches_seed(self, case, storage, seed):
        sparse_instance = grid_instance(case, storage, seed)
        result = IndependentCaching().solve(sparse_instance)
        ref = ReferenceIndependent().solve(
            grid_instance(case, storage, seed, feasibility="dense")
        )
        assert result.placement == ref.placement
        assert result.hit_ratio == ref.hit_ratio


class TestParallelSpecEquivalence:
    """``workers=N`` Spec is byte-identical to the serial traversal."""

    @pytest.mark.parametrize(
        "storage,seed", [(s, seed) for s in (0.06, 0.12) for seed in (0, 1, 2)]
    )
    def test_workers_byte_identical(self, storage, seed):
        instance = grid_instance("special", storage, seed)
        serial = TrimCachingSpec(epsilon=0.1).solve(instance)
        parallel = TrimCachingSpec(epsilon=0.1, workers=3).solve(instance)
        assert parallel.placement == serial.placement
        assert parallel.hit_ratio == serial.hit_ratio
        assert (
            parallel.stats["per_server_mass"]
            == serial.stats["per_server_mass"]
        )

    def test_cache_disabled_identical(self):
        instance = grid_instance("special", 0.12, 0)
        cached = TrimCachingSpec(epsilon=0.1).solve(instance)
        uncached = TrimCachingSpec(
            epsilon=0.1, reuse_library_cache=False
        ).solve(instance)
        assert cached.placement == uncached.placement
        assert (
            cached.stats["per_server_mass"] == uncached.stats["per_server_mass"]
        )


class TestKnapsackEquivalence:
    def test_vectorised_value_dp_matches_reference(self):
        """Identical (value, selection) on 300 random knapsacks, and
        identical guard errors when the state table would blow up."""
        rng = np.random.default_rng(7)
        checked = raised = 0
        for _ in range(300):
            n = int(rng.integers(1, 25))
            values = (rng.random(n) * float(rng.integers(1, 100))).tolist()
            weights = rng.integers(0, 60, size=n).tolist()
            capacity = int(rng.integers(0, 300))
            epsilon = float(rng.choice([0.05, 0.1, 0.3]))
            try:
                expected = reference_knapsack_value_dp(
                    values, weights, capacity, epsilon
                )
            except SolverError:
                with pytest.raises(SolverError):
                    knapsack_value_dp(values, weights, capacity, epsilon)
                raised += 1
                continue
            assert knapsack_value_dp(values, weights, capacity, epsilon) == expected
            checked += 1
        assert checked >= 200
