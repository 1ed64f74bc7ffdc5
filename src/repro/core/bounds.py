"""Approximation-bound calculators (Theorems 2-3).

* :func:`spec_guarantee` — TrimCaching Spec's ``(1 - ε)/2`` factor.
* :func:`gamma_bound` — the Γ of Theorem 3: the largest number of
  placements any feasible solution can contain, which lower-bounds the
  Gen greedy as ``U(X) >= U(X*) / Γ``. Γ grows with the library and the
  server count, which is exactly why the Gen guarantee is not constant.
"""

from __future__ import annotations

from typing import List

from repro.core.placement import PlacementInstance
from repro.errors import ConfigurationError


def spec_guarantee(epsilon: float) -> float:
    """The Spec approximation factor ``(1 - ε)/2`` (Theorem 2)."""
    if not 0 <= epsilon <= 1:
        raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
    return (1.0 - epsilon) / 2.0


def max_models_per_server(instance: PlacementInstance, server: int) -> int:
    """Upper bound on how many models one server can hold.

    Greedily packs models by increasing *specific* footprint, counting
    every shared block only once (for free after first use) — this
    over-estimates what fits, which is the safe direction for Γ.
    """
    capacity = int(instance.capacities[server])
    # Cheapest possible marginal cost of each model: its exclusive blocks
    # (every shared block might already be cached).
    library = instance.library
    shared = library.shared_block_ids
    specific_costs: List[int] = []
    for model_index in range(instance.num_models):
        blocks = instance.model_blocks[model_index]
        specific_costs.append(
            sum(instance.block_sizes[b] for b in blocks if b not in shared)
        )
    specific_costs.sort()
    count = 0
    used = 0
    for cost in specific_costs:
        if used + cost > capacity:
            break
        used += cost
        count += 1
    return count


def gamma_bound(instance: PlacementInstance) -> int:
    """Γ = max{|X| : g_m(X_m) <= Q_m ∀m} (Theorem 3), upper-bounded.

    Computed as the sum over servers of an optimistic per-server packing
    bound; the true Γ is at most this, so ``1 / gamma_bound`` is a valid
    (if loose) lower bound on the Gen greedy's approximation factor.
    """
    return int(
        sum(
            max_models_per_server(instance, server)
            for server in range(instance.num_servers)
        )
    )
