"""Exhaustive (optimal) search for small instances.

Used for the Fig. 6(a) optimality study and as the oracle in tests. Two
structural facts keep the search tractable:

* storage is monotone in the cached set, so infeasible subsets are pruned
  together with all their supersets during enumeration;
* the objective is monotone, so only *maximal* feasible per-server subsets
  can be optimal and the cross-server product is taken over those.

Complexity is still exponential (the paper quotes ``2^{M K I}`` for naive
search; ours enumerates ``∏_m |maximal subsets of m|``), so the solver
guards itself with explicit limits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Set

import numpy as np

from repro.core.objective import hit_ratio
from repro.core.placement import PlacementInstance
from repro.core.result import SolverResult
from repro.errors import SolverError


class ExhaustiveSearch:
    """Exact optimum by enumerating maximal feasible per-server subsets.

    Parameters
    ----------
    max_subsets_per_server:
        Abort threshold for the per-server enumeration.
    max_product:
        Abort threshold for the cross-server combination count.
    """

    name = "Optimal (exhaustive)"

    def __init__(
        self,
        max_subsets_per_server: int = 200_000,
        max_product: int = 5_000_000,
    ) -> None:
        self.max_subsets_per_server = max_subsets_per_server
        self.max_product = max_product

    # ------------------------------------------------------------------
    def _feasible_subsets(
        self, instance: PlacementInstance, server: int
    ) -> List[FrozenSet[int]]:
        """All maximal feasible model subsets of one server."""
        capacity = int(instance.capacities[server])
        num_models = instance.num_models
        results: List[FrozenSet[int]] = []

        def extend(start: int, chosen: Set[int], blocks: Set[int], used: int) -> None:
            if len(results) > self.max_subsets_per_server:
                raise SolverError(
                    f"server {server} has more than "
                    f"{self.max_subsets_per_server} feasible subsets"
                )
            extended = False
            for model_index in range(start, num_models):
                extra = instance.marginal_storage(model_index, blocks)
                if used + extra <= capacity:
                    extended = True
                    chosen.add(model_index)
                    added = instance.model_blocks[model_index] - blocks
                    blocks |= added
                    extend(model_index + 1, chosen, blocks, used + extra)
                    blocks -= added
                    chosen.remove(model_index)
            if not extended:
                # No *later* model fits; the subset is maximal only if no
                # earlier model fits either.
                for model_index in range(0, start):
                    if model_index in chosen:
                        continue
                    if (
                        used + instance.marginal_storage(model_index, blocks)
                        <= capacity
                    ):
                        return
                results.append(frozenset(chosen))

        extend(0, set(), set(), 0)
        if not results:
            results.append(frozenset())
        return results

    # ------------------------------------------------------------------
    def solve(self, instance: PlacementInstance) -> SolverResult:
        """Enumerate all maximal subset combinations; return the best."""
        start = time.perf_counter()
        per_server = [
            self._feasible_subsets(instance, server)
            for server in range(instance.num_servers)
        ]
        product = 1
        for subsets in per_server:
            product *= len(subsets)
            if product > self.max_product:
                raise SolverError(
                    f"exhaustive search would evaluate more than "
                    f"{self.max_product} combinations"
                )

        # served_masks[m][s] is the flattened (K*I,) boolean mask of
        # requests server m serves with subset s cached.
        demand_flat = instance.demand.reshape(-1)
        served_masks: List[np.ndarray] = []
        for server, subsets in enumerate(per_server):
            masks = np.zeros((len(subsets), instance.num_users * instance.num_models), dtype=bool)
            feas = instance.feasible[server]  # (K, I)
            for row, subset in enumerate(subsets):
                if not subset:
                    continue
                mask = np.zeros_like(feas)
                for model_index in subset:
                    mask[:, model_index] |= feas[:, model_index]
                masks[row] = mask.reshape(-1)
            served_masks.append(masks)

        best_mass = -1.0
        best_choice: List[int] = [0] * instance.num_servers

        def recurse(server: int, covered: np.ndarray, mass: float, choice: List[int]) -> None:
            nonlocal best_mass, best_choice
            if server == instance.num_servers - 1:
                residual = demand_flat * ~covered
                gains = served_masks[server] @ residual
                row = int(np.argmax(gains))
                if mass + gains[row] > best_mass:
                    best_mass = mass + float(gains[row])
                    best_choice = choice + [row]
                return
            for row, mask in enumerate(served_masks[server]):
                newly = demand_flat[~covered & mask].sum()
                recurse(
                    server + 1,
                    covered | mask,
                    mass + float(newly),
                    choice + [row],
                )

        recurse(0, np.zeros_like(demand_flat, dtype=bool), 0.0, [])

        placement = instance.new_placement()
        for server, row in enumerate(best_choice):
            for model_index in per_server[server][row]:
                placement.add(server, model_index)
        return SolverResult(
            placement=placement,
            hit_ratio=hit_ratio(instance, placement),
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={
                "subsets_per_server": [len(s) for s in per_server],
                "combinations": product,
            },
        )


@dataclass(frozen=True)
class ExhaustiveConfig:
    """Typed constructor knobs of :class:`ExhaustiveSearch`.

    Registered in :data:`repro.api.SOLVERS` under ``"exhaustive"``.
    """

    max_subsets_per_server: int = 200_000
    max_product: int = 5_000_000

    def build(self) -> "ExhaustiveSearch":
        """Construct the solver (constructor performs validation)."""
        return ExhaustiveSearch(
            max_subsets_per_server=self.max_subsets_per_server,
            max_product=self.max_product,
        )
