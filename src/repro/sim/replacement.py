"""Threshold-triggered model re-placement under mobility.

The paper solves a snapshot problem and argues (§IV-A) that in practice
the operator would "re-initiate model placement when the performance
degrades to a certain threshold", trading hit ratio against the backbone
bandwidth that shipping models to edge servers consumes. Fig. 7 shows the
degradation is slow, so replacement can be rare.

This module implements that loop — the paper describes it but never
builds it: users move, the hit ratio of the standing placement is
monitored, and when it drops below ``threshold`` times the value it had
when last (re)placed, the solver runs again on the current snapshot. The
run records every replacement and the backhaul bytes it moved (the cost
the paper wants to keep low).

A policy walks the snapshots of a :class:`~repro.sim.mobility_eval.MobilityStudy`,
so policies built on one study (one per threshold, say) share one trajectory
and one set of rebuilt instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

import numpy as np

from repro.core.objective import hit_ratio
from repro.core.placement import Placement
from repro.errors import ConfigurationError
from repro.sim.mobility_eval import MobilityStudy
from repro.sim.scenario import Scenario
from repro.utils.rng import SeedLike


@dataclass
class ReplacementEvent:
    """One re-placement: when it fired and what it cost."""

    time_s: float
    hit_ratio_before: float
    hit_ratio_after: float
    bytes_shipped: int


@dataclass
class ReplacementTrace:
    """Outcome of a monitored run with threshold-triggered replacement."""

    times_s: np.ndarray
    hit_ratios: np.ndarray
    events: List[ReplacementEvent] = field(default_factory=list)

    @property
    def num_replacements(self) -> int:
        """How many times placement was re-initiated."""
        return len(self.events)

    @property
    def total_bytes_shipped(self) -> int:
        """Backbone traffic spent on re-placements."""
        return sum(event.bytes_shipped for event in self.events)

    @property
    def mean_hit_ratio(self) -> float:
        """Time-averaged hit ratio over the horizon."""
        return float(self.hit_ratios.mean())


def placement_delta_bytes(
    scenario: Scenario, old: Placement, new: Placement
) -> int:
    """Bytes the backbone must ship to turn ``old`` into ``new``.

    Per server, the cost is the total size of parameter blocks needed by
    the new cached set that the old cached set did not already hold
    (evictions are free; shared blocks already present are reused).
    """
    instance = scenario.instance
    total = 0
    for server in range(instance.num_servers):
        old_blocks = set()
        for model_index in old.models_on(server):
            old_blocks |= instance.model_blocks[model_index]
        new_blocks = set()
        for model_index in new.models_on(server):
            new_blocks |= instance.model_blocks[model_index]
        for block_id in new_blocks - old_blocks:
            total += instance.block_sizes[block_id]
    return total


class ReplacementPolicy:
    """Monitor a placement under mobility; re-solve when it degrades.

    Parameters
    ----------
    study:
        The mobility study whose snapshots are monitored: its scenario is
        the initial snapshot, and the trigger is checked at its sample
        times (every ``study.sample_every`` slots).
    solver:
        Any placement solver (``solve(instance) -> SolverResult``).
    threshold:
        Re-place when the current hit ratio falls below
        ``threshold * hit_ratio_at_last_placement``. ``0`` never
        replaces (reproduces :meth:`MobilityStudy.run`).
    """

    def __init__(
        self, study: MobilityStudy, solver: Any, threshold: float = 0.9
    ) -> None:
        if not 0 <= threshold <= 1:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {threshold}"
            )
        self.study = study
        self.solver = solver
        self.threshold = threshold

    def run(self, horizon_s: float = 7200.0, seed: SeedLike = 0) -> ReplacementTrace:
        """Simulate the monitor-and-replace loop over ``horizon_s``."""
        times, instances = self.study.snapshots(horizon_s, seed)
        scenario = self.study.scenario
        placement = self.solver.solve(scenario.instance).placement
        reference = hit_ratio(scenario.instance, placement)

        ratios: List[float] = [reference]
        events: List[ReplacementEvent] = []
        for now, instance in zip(times[1:], instances[1:]):
            current = hit_ratio(instance, placement)
            if self.threshold > 0 and current < self.threshold * reference:
                new_placement = self.solver.solve(instance).placement
                after = hit_ratio(instance, new_placement)
                events.append(
                    ReplacementEvent(
                        time_s=now,
                        hit_ratio_before=current,
                        hit_ratio_after=after,
                        bytes_shipped=placement_delta_bytes(
                            scenario, placement, new_placement
                        ),
                    )
                )
                placement = new_placement
                reference = after
                current = after
            ratios.append(current)
        return ReplacementTrace(
            times_s=np.array(times), hit_ratios=np.array(ratios), events=events
        )
