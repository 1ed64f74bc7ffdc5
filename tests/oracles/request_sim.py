"""Discrete-event request-level simulation.

The paper's objective ``U(X)`` (eq. 2) is an *expectation* over the
request distribution. This module grounds that expectation in an actual
request stream: users become active with probability ``p_A`` per slot,
draw a model from their personal distribution ``p_{k,i}``, and the
request either hits (some server delivers within deadline, optionally
under a fresh Rayleigh fade) or misses to the cloud.

Two uses:

* **validation** — the empirical hit ratio converges to ``U(X)`` as the
  number of slots grows (tested in the suite), confirming the objective
  implementation and eq. (2) agree;
* **operations** — per-request latency samples and per-server load
  (requests served) that the analytic objective cannot expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.placement import Placement
from repro.errors import ConfigurationError
from repro.network.channel import ChannelModel
from repro.sim.scenario import Scenario
from repro.utils.rng import SeedLike, as_generator
from .latency import latency_tensor


@dataclass
class RequestLog:
    """Aggregate outcome of a simulated request stream."""

    num_requests: int
    num_hits: int
    latencies_s: np.ndarray
    server_load: np.ndarray

    @property
    def hit_ratio(self) -> float:
        """Empirical hit ratio (0.0 when no requests arrived)."""
        if self.num_requests == 0:
            return 0.0
        return self.num_hits / self.num_requests

    @property
    def mean_hit_latency_s(self) -> float:
        """Mean delivery latency over hits (``nan`` with no hits)."""
        if len(self.latencies_s) == 0:
            return float("nan")
        return float(self.latencies_s.mean())

class RequestSimulator:
    """Simulate slotted request arrivals against a fixed placement.

    Parameters
    ----------
    scenario:
        The snapshot (topology, demand, QoS).
    fading:
        ``True`` draws an independent Rayleigh fade per slot, matching
        the paper's evaluation; ``False`` uses expected rates, in which
        case the empirical hit ratio estimates exactly ``U(X)``.
    """

    def __init__(self, scenario: Scenario, fading: bool = False) -> None:
        self.scenario = scenario
        self.fading = fading

    def run(
        self,
        placement: Placement,
        num_slots: int = 1000,
        seed: SeedLike = None,
    ) -> RequestLog:
        """Simulate ``num_slots`` slots of user activity."""
        if num_slots < 1:
            raise ConfigurationError("num_slots must be at least 1")
        rng = as_generator(seed)
        scenario = self.scenario
        instance = scenario.instance
        topology = scenario.topology
        latency_model = scenario.latency_model

        num_servers = topology.num_servers
        num_users = topology.num_users
        active_prob = topology.active_probabilities
        # Per-user request distribution (rows of the demand matrix).
        demand = instance.demand
        row_sums = demand.sum(axis=1)
        cached = placement.matrix  # (M, I)

        expected_latency = latency_tensor(latency_model)
        num_requests = 0
        num_hits = 0
        latencies: List[float] = []
        server_load = np.zeros(num_servers, dtype=np.int64)

        for _ in range(num_slots):
            active = rng.uniform(size=num_users) < active_prob
            if not active.any():
                continue
            if self.fading:
                gains = ChannelModel.sample_rayleigh_gains(
                    (num_servers, num_users), rng
                )
                latency = latency_tensor(
                    latency_model, topology.faded_rates(gains)
                )
            else:
                latency = expected_latency
            for user in np.flatnonzero(active):
                if row_sums[user] <= 0:
                    continue
                probs = demand[user] / row_sums[user]
                model_index = int(rng.choice(instance.num_models, p=probs))
                num_requests += 1
                deadline = latency_model.deadlines[user, model_index]
                # Best caching server within deadline.
                options = latency[:, user, model_index]
                options = np.where(cached[:, model_index], options, np.inf)
                best_server = int(np.argmin(options))
                best_latency = float(options[best_server])
                if best_latency <= deadline:
                    num_hits += 1
                    latencies.append(best_latency)
                    server_load[best_server] += 1
        return RequestLog(
            num_requests=num_requests,
            num_hits=num_hits,
            latencies_s=np.array(latencies),
            server_load=server_load,
        )
