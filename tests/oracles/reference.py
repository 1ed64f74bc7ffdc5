"""Frozen seed implementations of the solver hot paths.

When the vectorised solvers (blockmask tables, incremental coverage
tracking, slice-shift DP) replaced the original pure-Python inner loops,
the originals were moved here *verbatim* so that

* the equivalence test suite can assert the new paths produce
  **bit-identical placements** (same tie-breaking) on randomized
  instances, and
* ``benchmarks/bench_perf.py`` can time two speed gates against
  them: Gen (:class:`ReferenceGen`) and the sweep (the
  ``reference-gen``/``reference-independent`` solvers of
  ``ORACLE_SOLVERS`` in this package).

Nothing here should be "improved": this module is the behavioural
baseline. Production code lives in :mod:`repro.core.objective`,
:mod:`repro.core.gen`, :mod:`repro.core.spec` and :mod:`repro.core.dp`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.core.dp import (
    SharedCombination,
    _chains_are_nested,
    _distinct_shared_sets,
    _group_nested_chains,
    knapsack_branch_and_bound,
    knapsack_weight_dp,
)
from repro.models.library import ModelLibrary
from repro.core.placement import Placement, PlacementInstance
from repro.core.result import SolverResult
from repro.errors import SolverError


class ReferenceCoverageTracker:
    """The seed :class:`~repro.core.objective.CoverageTracker`.

    Recomputes the full ``O(M·K·I)`` einsum on every ``gain_matrix`` call
    instead of maintaining it incrementally.

    :meth:`server_gains` is a left-to-right sum over users only when the
    instance has two or more models. With one model,
    ``(feasible[m] * weighted).sum(axis=0)`` reduces a contiguous
    ``(K, 1)`` axis, which numpy sums pairwise, so on a one-model
    instance with more than 8 feasible users a row can differ from
    :class:`~repro.core.objective.CoverageTracker`'s in the last ulp, and
    :class:`ReferenceSpec`'s per-server masses with it. The bit tests
    compare one-model rows with ``np.add.accumulate`` instead.
    """

    def __init__(self, instance: PlacementInstance) -> None:
        self.instance = instance
        self.served = np.zeros(
            (instance.num_users, instance.num_models), dtype=bool
        )

    def unserved_demand(self) -> np.ndarray:
        return self.instance.demand * ~self.served

    def gain(self, server: int, model_index: int) -> float:
        feas = self.instance.feasible[server, :, model_index]
        unserved = ~self.served[:, model_index]
        return float(
            (self.instance.demand[:, model_index] * feas * unserved).sum()
        )

    def gain_matrix(self) -> np.ndarray:
        weighted = self.unserved_demand()
        return np.einsum("mki,ki->mi", self.instance.feasible, weighted)

    def server_gains(self, server: int) -> np.ndarray:
        weighted = self.unserved_demand()
        return (self.instance.feasible[server] * weighted).sum(axis=0)

    def mark_served(self, server: int, model_index: int) -> None:
        feas = self.instance.feasible[server, :, model_index]
        self.served[:, model_index] |= feas

    def mark_server_models(self, server, model_indices) -> None:
        for model_index in model_indices:
            self.mark_served(server, model_index)


class ReferenceGen:
    """The seed TrimCaching Gen: set-walk storage, einsum gains."""

    name = "TrimCaching Gen (reference)"

    def __init__(self, accelerated: bool = True) -> None:
        self.accelerated = accelerated

    def solve(self, instance: PlacementInstance) -> SolverResult:
        start = time.perf_counter()
        if self.accelerated:
            placement, steps = self._solve_lazy(instance)
        else:
            placement, steps = self._solve_naive(instance)
        from repro.core.objective import hit_ratio

        return SolverResult(
            placement=placement,
            hit_ratio=hit_ratio(instance, placement),
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={"greedy_steps": steps, "accelerated": self.accelerated},
        )

    def _solve_naive(self, instance: PlacementInstance) -> Tuple[Placement, int]:
        placement = instance.new_placement()
        tracker = ReferenceCoverageTracker(instance)
        cached_blocks: List[Set[int]] = [set() for _ in range(instance.num_servers)]
        used = np.zeros(instance.num_servers, dtype=np.int64)
        steps = 0
        while True:
            gains = tracker.gain_matrix()
            gains[placement.matrix] = -1.0  # already placed
            best_gain = -1.0
            best_pair = None
            for server in range(instance.num_servers):
                remaining = int(instance.capacities[server] - used[server])
                if remaining < 0:
                    continue
                order = np.argsort(-gains[server], kind="stable")
                for model_index in order:
                    gain = gains[server, model_index]
                    if gain <= best_gain or gain <= 0.0:
                        break
                    extra = instance.marginal_storage(
                        int(model_index), cached_blocks[server]
                    )
                    if extra <= remaining:
                        best_gain = gain
                        best_pair = (server, int(model_index))
                        break
            if best_pair is None:
                break
            server, model_index = best_pair
            self._apply(
                instance, placement, tracker, cached_blocks, used, server, model_index
            )
            steps += 1
        return placement, steps

    def _solve_lazy(self, instance: PlacementInstance) -> Tuple[Placement, int]:
        placement = instance.new_placement()
        tracker = ReferenceCoverageTracker(instance)
        cached_blocks: List[Set[int]] = [set() for _ in range(instance.num_servers)]
        used = np.zeros(instance.num_servers, dtype=np.int64)

        initial = tracker.gain_matrix()
        heap: List[Tuple[float, int, int]] = []
        for server in range(instance.num_servers):
            for model_index in range(instance.num_models):
                gain = initial[server, model_index]
                if gain > 0.0:
                    heap.append((-gain, server, model_index))
        heapq.heapify(heap)
        parked: Dict[int, List[Tuple[float, int, int]]] = {
            m: [] for m in range(instance.num_servers)
        }
        steps = 0
        while heap:
            neg_gain, server, model_index = heapq.heappop(heap)
            if placement.contains(server, model_index):
                continue
            fresh = tracker.gain(server, model_index)
            if fresh <= 0.0:
                continue
            candidate = (-fresh, server, model_index)
            if heap and heap[0] < candidate:
                heapq.heappush(heap, candidate)
                continue
            extra = instance.marginal_storage(model_index, cached_blocks[server])
            if extra > instance.capacities[server] - used[server]:
                parked[server].append((-fresh, server, model_index))
                continue
            self._apply(
                instance, placement, tracker, cached_blocks, used, server, model_index
            )
            steps += 1
            if parked[server]:
                for entry in parked[server]:
                    heapq.heappush(heap, entry)
                parked[server] = []
        return placement, steps

    @staticmethod
    def _apply(
        instance: PlacementInstance,
        placement: Placement,
        tracker: ReferenceCoverageTracker,
        cached_blocks: List[Set[int]],
        used: np.ndarray,
        server: int,
        model_index: int,
    ) -> None:
        extra = instance.marginal_storage(model_index, cached_blocks[server])
        placement.add(server, model_index)
        cached_blocks[server] |= instance.model_blocks[model_index]
        used[server] += extra
        tracker.mark_served(server, model_index)


class ReferenceIndependent:
    """The seed Independent Caching: per-step gain-matrix copy + rescan.

    Verbatim the pre-port greedy loop (full-size knapsack storage, masked
    copy of the gain matrix each step), driven by
    :class:`ReferenceCoverageTracker` — whose recomputed gains are pinned
    bit-identical to the maintained tracker the seed used, so the
    placements are the seed's exactly.
    """

    name = "Independent Caching (reference)"

    def solve(self, instance: PlacementInstance) -> SolverResult:
        start = time.perf_counter()
        placement = instance.new_placement()
        tracker = ReferenceCoverageTracker(instance)
        remaining = instance.capacities.astype(np.int64).copy()
        steps = 0
        while True:
            gains = tracker.gain_matrix()
            gains[placement.matrix] = -1.0
            # A model fits iff its full size fits the remaining capacity.
            fits = instance.model_sizes[None, :] <= remaining[:, None]
            gains[~fits] = -1.0
            if gains.size == 0:  # no servers (the seed's argmax raised here)
                break
            flat = int(np.argmax(gains))
            server, model_index = divmod(flat, instance.num_models)
            if gains[server, model_index] <= 0.0:
                break
            placement.add(server, model_index)
            remaining[server] -= int(instance.model_sizes[model_index])
            tracker.mark_served(server, model_index)
            steps += 1
        from repro.core.objective import hit_ratio

        return SolverResult(
            placement=placement,
            hit_ratio=hit_ratio(instance, placement),
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={"greedy_steps": steps},
        )


def reference_knapsack_value_dp(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    epsilon: float = 0.1,
    max_states: int = 5_000_000,
) -> Tuple[float, List[int]]:
    """The seed rounded value-dimension DP (Python state loop)."""
    if len(values) != len(weights):
        raise SolverError("values and weights must have equal length")
    if capacity < 0:
        raise SolverError(f"capacity must be non-negative, got {capacity}")
    if any(v < 0 for v in values):
        raise SolverError("knapsack values must be non-negative")
    if any(w < 0 for w in weights):
        raise SolverError("knapsack weights must be non-negative")
    if epsilon <= 0:
        raise SolverError("knapsack_value_dp requires epsilon > 0")
    items = [
        (index, float(values[index]), int(weights[index]))
        for index in range(len(values))
        if values[index] > 0 and weights[index] <= capacity
    ]
    if not items:
        return 0.0, []
    v_min = min(value for _, value, _ in items)
    unit = epsilon * v_min
    rounded = [max(1, int(math.floor(value / unit))) for _, value, _ in items]
    total_rounded = sum(rounded)
    if (total_rounded + 1) * len(items) > max_states:
        raise SolverError(
            f"value DP needs {(total_rounded + 1) * len(items)} states "
            f"(> {max_states}); increase epsilon or use another backend"
        )

    inf = float("inf")
    min_weight = [inf] * (total_rounded + 1)
    min_weight[0] = 0.0
    take = np.zeros((len(items), total_rounded + 1), dtype=bool)
    reachable = 0
    for item_pos, ((_, _, weight), value_units) in enumerate(zip(items, rounded)):
        reachable = min(reachable + value_units, total_rounded)
        for units in range(reachable, value_units - 1, -1):
            candidate = min_weight[units - value_units] + weight
            if candidate < min_weight[units]:
                min_weight[units] = candidate
                take[item_pos, units] = True

    best_units = 0
    for units in range(total_rounded, -1, -1):
        if min_weight[units] <= capacity:
            best_units = units
            break
    selected: List[int] = []
    units = best_units
    for item_pos in range(len(items) - 1, -1, -1):
        if take[item_pos, units]:
            selected.append(items[item_pos][0])
            units -= rounded[item_pos]
    if units != 0:
        raise SolverError("value DP backtrack failed (internal error)")
    selected.reverse()
    true_value = float(sum(values[index] for index in selected))
    return true_value, selected


def reference_enumerate_shared_combinations(
    library: ModelLibrary,
    mode: str = "auto",
    max_combinations: int = 1_000_000,
) -> List[SharedCombination]:
    """The seed combination-set enumeration: one frozenset per element.

    Builds every combination's block set by union and sizes it with a
    Python sum over its blocks. The array-form
    :func:`repro.core.dp.enumerate_shared_combinations` must yield the
    same combinations, in the same order, with the same sizes.
    """
    if mode not in ("auto", "prefix", "exhaustive"):
        raise SolverError(f"unknown combination mode {mode!r}")
    shared = sorted(library.shared_block_ids)
    if not shared:
        return [SharedCombination(frozenset(), 0)]

    def sized(blocks: FrozenSet[int]) -> SharedCombination:
        return SharedCombination(blocks, library.blocks_size(blocks))

    if mode in ("auto", "prefix"):
        shared_sets = _distinct_shared_sets(library)
        chains = _group_nested_chains(shared_sets)
        nested = all(_chains_are_nested(chain) for chain in chains)
        if not nested and mode == "prefix":
            raise SolverError(
                "library's shared blocks are not chain-structured; "
                "use mode='exhaustive'"
            )
        if nested:
            count = 1
            for chain in chains:
                count *= len(chain) + 1
                if count > max_combinations:
                    raise SolverError(
                        f"combination set would exceed {max_combinations} "
                        f"elements; the library is too general for Spec"
                    )
            combos: List[SharedCombination] = []
            choice_lists = [
                [frozenset()] + list(chain) for chain in chains
            ]
            for selection in itertools.product(*choice_lists):
                blocks = frozenset().union(*selection)
                combos.append(sized(blocks))
            return combos

    count = 2 ** len(shared)
    if count > max_combinations:
        raise SolverError(
            f"2^{len(shared)} shared-block subsets exceed {max_combinations}; "
            "the library is too general for exhaustive enumeration"
        )
    combos = []
    for r in range(len(shared) + 1):
        for subset in itertools.combinations(shared, r):
            combos.append(sized(frozenset(subset)))
    return combos


class ReferenceSpec:
    """The seed TrimCaching Spec: per-server Python candidate loops."""

    name = "TrimCaching Spec (reference)"

    def __init__(
        self,
        epsilon: float = 0.1,
        backend: str = "value_dp",
        combinations: str = "auto",
        max_combinations: int = 200_000,
    ) -> None:
        self.epsilon = epsilon
        self.backend = backend
        self.combinations = combinations
        self.max_combinations = max_combinations

    def _run_knapsack(
        self, values: Sequence[float], weights: Sequence[int], capacity: int
    ) -> Tuple[float, List[int]]:
        if self.backend == "value_dp":
            try:
                return reference_knapsack_value_dp(
                    values, weights, capacity, epsilon=self.epsilon
                )
            except SolverError:
                try:
                    quantum = max(1, capacity // 800)
                    return knapsack_weight_dp(
                        values, weights, capacity, quantum=quantum
                    )
                except SolverError:
                    return knapsack_branch_and_bound(values, weights, capacity)
        if self.backend == "weight_dp":
            return knapsack_weight_dp(values, weights, capacity)
        return knapsack_branch_and_bound(values, weights, capacity)

    def solve_subproblem(
        self,
        instance: PlacementInstance,
        server: int,
        utilities: np.ndarray,
        combos: Sequence[SharedCombination],
    ) -> Tuple[float, List[int]]:
        capacity = int(instance.capacities[server])
        shared_of = [
            frozenset(blocks & instance.library.shared_block_ids)
            for blocks in instance.model_blocks
        ]
        specific_weight = [
            int(
                instance.model_sizes[index]
                - instance.library.blocks_size(shared_of[index])
            )
            for index in range(instance.num_models)
        ]

        candidates = []
        for combo in combos:
            if combo.size_bytes > capacity:
                continue
            eligible = [
                index
                for index in range(instance.num_models)
                if utilities[index] > 0.0 and shared_of[index] <= combo.blocks
            ]
            if not eligible:
                continue
            bound = float(sum(utilities[index] for index in eligible))
            candidates.append((bound, combo, eligible))
        candidates.sort(key=lambda entry: -entry[0])

        best_mass = 0.0
        best_selection: List[int] = []
        for bound, combo, eligible in candidates:
            if bound <= best_mass:
                break
            values = [float(utilities[index]) for index in eligible]
            weights = [specific_weight[index] for index in eligible]
            mass, chosen = self._run_knapsack(
                values, weights, capacity - combo.size_bytes
            )
            if mass > best_mass:
                best_mass = mass
                best_selection = [eligible[pos] for pos in chosen]
        return best_mass, best_selection

    def solve(self, instance: PlacementInstance) -> SolverResult:
        from repro.core.objective import hit_ratio

        start = time.perf_counter()
        if not instance.library.specific_blocks_are_exclusive():
            raise SolverError(
                "Spec requires specific blocks to be model-exclusive "
                "(additive DP weights); this library violates that"
            )
        # The frozen baseline keeps paying the seed's per-solve,
        # per-frozenset enumeration cost — never the array form or its
        # per-library memo.
        combos = reference_enumerate_shared_combinations(
            instance.library, self.combinations, self.max_combinations
        )
        placement = instance.new_placement()
        tracker = ReferenceCoverageTracker(instance)
        per_server_mass: List[float] = []
        for server in range(instance.num_servers):
            utilities = tracker.server_gains(server)
            mass, selection = self.solve_subproblem(
                instance, server, utilities, combos
            )
            for model_index in selection:
                placement.add(server, model_index)
            tracker.mark_server_models(server, selection)
            per_server_mass.append(mass)
        return SolverResult(
            placement=placement,
            hit_ratio=hit_ratio(instance, placement),
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={
                "num_combinations": len(combos),
                "epsilon": self.epsilon,
                "backend": self.backend,
                "per_server_mass": per_server_mass,
            },
        )


@dataclass(frozen=True)
class ReferenceGenConfig:
    """Typed constructor knobs of :class:`ReferenceGen` (seed Gen).

    Registered in ``ORACLE_SOLVERS`` under ``"reference-gen"``.
    """

    accelerated: bool = True

    def build(self) -> "ReferenceGen":
        """Construct the solver."""
        return ReferenceGen(accelerated=self.accelerated)


@dataclass(frozen=True)
class ReferenceIndependentConfig:
    """Typed constructor knobs of :class:`ReferenceIndependent`.

    Registered in ``ORACLE_SOLVERS`` under ``"reference-independent"``.
    """

    def build(self) -> "ReferenceIndependent":
        """Construct the solver."""
        return ReferenceIndependent()


@dataclass(frozen=True)
class ReferenceSpecConfig:
    """Typed constructor knobs of :class:`ReferenceSpec` (seed Spec).

    Registered in ``ORACLE_SOLVERS`` under ``"reference-spec"``.
    """

    epsilon: float = 0.1
    backend: str = "value_dp"
    combinations: str = "auto"
    max_combinations: int = 200_000

    def build(self) -> "ReferenceSpec":
        """Construct the solver."""
        return ReferenceSpec(
            epsilon=self.epsilon,
            backend=self.backend,
            combinations=self.combinations,
            max_combinations=self.max_combinations,
        )
