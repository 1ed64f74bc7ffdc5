"""Capacity check of a placement, with or without parameter sharing.

The solvers keep their own storage accounting while they place models;
this check recomputes it from the finished placement, so the tests can
assert that no server holds more than ``Q_m``.
"""

from __future__ import annotations

from repro.core.objective import _check_shapes, storage_used
from repro.core.placement import Placement, PlacementInstance


def independent_storage_used(
    instance: PlacementInstance, placement: Placement, server: int
) -> int:
    """Bytes used on ``server`` when models are stored without sharing."""
    _check_shapes(instance, placement)
    return int(sum(instance.model_sizes[i] for i in placement.models_on(server)))


def placement_is_feasible(
    instance: PlacementInstance,
    placement: Placement,
    *,
    deduplicate: bool = True,
) -> bool:
    """Does the placement respect every server's capacity?

    ``deduplicate=False`` applies the Independent-Caching storage
    accounting (full model sizes, knapsack constraint).
    """
    for server in range(instance.num_servers):
        if deduplicate:
            used = storage_used(instance, placement, server)
        else:
            used = independent_storage_used(instance, placement, server)
        if used > instance.capacities[server]:
            return False
    return True
