"""Placement diagnostics: what a decision looks like operationally.

The solvers optimise one number (the hit ratio); an operator adopting
them needs to see *how* that number is achieved. This module summarises a
placement: per-server storage utilisation and dedup savings, per-model
replication, per-user service quality and its fairness (Jain's index),
and which demand goes unserved and why (not cached vs. physically
unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.objective import served_matrix, storage_used
from repro.core.placement import Placement, PlacementInstance
from repro.utils.tables import format_table


@dataclass(frozen=True)
class ServerSummary:
    """One server's cache, storage-wise."""

    server: int
    num_models: int
    used_bytes: int
    capacity_bytes: int
    dedup_saved_bytes: int

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use (0 for a zero-capacity server)."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.used_bytes / self.capacity_bytes


@dataclass(frozen=True)
class PlacementReport:
    """Full diagnostic summary of one placement."""

    hit_ratio: float
    servers: List[ServerSummary]
    replication: np.ndarray  # (I,) copies of each model across servers
    per_user_hit: np.ndarray  # (K,) per-user served demand fraction
    unserved_uncached: float  # demand missing because nothing cached it
    unserved_unreachable: float  # demand missing because no server CAN serve it

    @property
    def jain_fairness(self) -> float:
        """Jain's index of the per-user hit ratios (1 = perfectly fair)."""
        values = self.per_user_hit
        total = values.sum()
        if total == 0:
            return 1.0
        return float(total**2 / (len(values) * (values**2).sum()))

    @property
    def mean_replication(self) -> float:
        """Average number of cached copies per placed model."""
        placed = self.replication[self.replication > 0]
        if len(placed) == 0:
            return 0.0
        return float(placed.mean())

    def to_table(self) -> str:
        """Per-server rows plus a footer of global metrics."""
        rows = []
        for summary in self.servers:
            rows.append(
                [
                    summary.server,
                    summary.num_models,
                    f"{summary.used_bytes / 1e6:.1f} MB",
                    f"{summary.utilization:.0%}",
                    f"{summary.dedup_saved_bytes / 1e6:.1f} MB",
                ]
            )
        table = format_table(
            ["server", "models", "used", "utilisation", "dedup saved"],
            rows,
            title="Placement diagnostics",
        )
        footer = format_table(
            ["metric", "value"],
            [
                ["hit ratio", f"{self.hit_ratio:.4f}"],
                ["mean replication", f"{self.mean_replication:.2f}"],
                ["Jain fairness (users)", f"{self.jain_fairness:.3f}"],
                ["unserved (not cached)", f"{self.unserved_uncached:.4f}"],
                ["unserved (unreachable)", f"{self.unserved_unreachable:.4f}"],
            ],
        )
        return table + "\n" + footer


def analyze_placement(
    instance: PlacementInstance, placement: Placement
) -> PlacementReport:
    """Build a :class:`PlacementReport` for ``placement``."""
    servers: List[ServerSummary] = []
    for server in range(instance.num_servers):
        cached = placement.models_on(server)
        used = storage_used(instance, placement, server)
        independent = int(sum(instance.model_sizes[i] for i in cached))
        servers.append(
            ServerSummary(
                server=server,
                num_models=len(cached),
                used_bytes=used,
                capacity_bytes=int(instance.capacities[server]),
                dedup_saved_bytes=independent - used,
            )
        )

    served = served_matrix(instance, placement)  # (K, I)
    weights = instance.demand
    row_demand = weights.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_user = np.where(
            row_demand > 0, (weights * served).sum(axis=1) / row_demand, 0.0
        )

    # Decompose misses: a (k, i) pair is *reachable* if some server could
    # serve it within deadline (I1 true for some m); unreachable demand can
    # never be a hit no matter the placement.
    reachable = instance.feasible.any(axis=0)  # (K, I)
    missed = ~served
    unserved_uncached = float(
        (weights * (missed & reachable)).sum() / instance.total_demand
    )
    unserved_unreachable = float(
        (weights * (missed & ~reachable)).sum() / instance.total_demand
    )
    hit = float((weights * served).sum() / instance.total_demand)
    return PlacementReport(
        hit_ratio=hit,
        servers=servers,
        replication=placement.matrix.sum(axis=0),
        per_user_hit=per_user,
        unserved_uncached=unserved_uncached,
        unserved_unreachable=unserved_unreachable,
    )
