"""Per-request latency accounting, including cloud-fallback misses.

The paper optimises the cache *hit ratio* and notes that misses are
forwarded to the cloud, "much slower" than edge delivery. This module
quantifies that: given a placement, it computes the expected end-to-end
delivery latency per request with misses served over a (configurable)
cloud link — the user-facing metric a hit ratio ultimately stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import Placement
from repro.errors import ConfigurationError
from repro.sim.scenario import Scenario
from repro.utils.units import MBPS


@dataclass(frozen=True)
class LatencyReport:
    """Expected request latency under one placement.

    Attributes
    ----------
    hit_ratio:
        Fraction of demand served by edge servers within deadline.
    mean_latency_s:
        Demand-weighted expected delivery latency across all requests
        (hits at their best edge latency, misses via the cloud link).
    mean_hit_latency_s / mean_miss_latency_s:
        Conditional means (``nan`` when the condition never occurs).
    deadline_satisfaction:
        Fraction of demand whose *realised* latency (edge or cloud)
        meets the request deadline — cloud delivery may still make some
        deadlines when they are loose.
    """

    hit_ratio: float
    mean_latency_s: float
    mean_hit_latency_s: float
    mean_miss_latency_s: float
    deadline_satisfaction: float


class LatencyAnalyzer:
    """Compute :class:`LatencyReport` objects for placements.

    Parameters
    ----------
    scenario:
        The snapshot under analysis.
    cloud_rate_bps:
        Effective per-user throughput of the cloud path (paper: "much
        slower" than the edge; default 50 Mbps — a congested WAN share).
    cloud_extra_delay_s:
        Fixed extra delay of the cloud path (propagation + backbone).
    """

    def __init__(
        self,
        scenario: Scenario,
        cloud_rate_bps: float = 50 * MBPS,
        cloud_extra_delay_s: float = 0.1,
    ) -> None:
        if cloud_rate_bps <= 0:
            raise ConfigurationError("cloud_rate_bps must be positive")
        if cloud_extra_delay_s < 0:
            raise ConfigurationError("cloud_extra_delay_s must be non-negative")
        self.scenario = scenario
        self.cloud_rate_bps = cloud_rate_bps
        self.cloud_extra_delay_s = cloud_extra_delay_s

    def report(self, placement: Placement) -> LatencyReport:
        """Expected latency metrics for ``placement``."""
        instance = self.scenario.instance
        latency_model = self.scenario.latency_model

        latency = latency_model.latency()  # (M, K, I); inf = unreachable
        feasible = instance.feasible
        cached = placement.matrix  # (M, I)

        # Best edge latency per (k, i) over servers that cache the model.
        masked = np.where(cached[:, None, :], latency, np.inf)
        best_edge = masked.min(axis=0)  # (K, I)
        # A hit also requires meeting the deadline (I1 on some caching
        # server) — equivalent to best_edge <= deadline since I1 was
        # derived from the same latency tensor.
        hit = np.einsum("mki,mi->ki", feasible, cached) > 0

        # Cloud path for misses.
        cloud = latency_model.model_bits / self.cloud_rate_bps
        cloud_latency = (
            cloud[None, :] + latency_model.inference + self.cloud_extra_delay_s
        )  # (K, I)

        realised = np.where(hit, best_edge, cloud_latency)
        weights = instance.demand / instance.total_demand

        hit_mass = float((weights * hit).sum())
        miss_mass = float((weights * ~hit).sum())
        mean_latency = float((weights * realised).sum())
        mean_hit = (
            float((weights * np.where(hit, best_edge, 0.0)).sum() / hit_mass)
            if hit_mass > 0
            else float("nan")
        )
        mean_miss = (
            float(
                (weights * np.where(~hit, cloud_latency, 0.0)).sum() / miss_mass
            )
            if miss_mass > 0
            else float("nan")
        )
        meets = realised <= latency_model.deadlines
        return LatencyReport(
            hit_ratio=hit_mass,
            mean_latency_s=mean_latency,
            mean_hit_latency_s=mean_hit,
            mean_miss_latency_s=mean_miss,
            deadline_satisfaction=float((weights * meets).sum()),
        )
