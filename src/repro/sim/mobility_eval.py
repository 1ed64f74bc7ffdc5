"""The §VII-E mobility-robustness study (Fig. 7).

A placement is computed once on the initial snapshot, then users move for
a long horizon (2 h of 5 s slots in the paper) while the placement stays
*fixed*; the hit ratio is re-evaluated as coverage and rates drift. The
paper's finding — only a few percent degradation over 2 h — is what the
Fig. 7 benchmark checks for shape.

Users move independently of the placement, so a study walks one
``(slots + 1, K, 2)`` trajectory and rebuilds the sampled instances once per
``(horizon, seed)``; every placement it evaluates, and every
:class:`~repro.sim.replacement.ReplacementPolicy` built on it, reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.objective import hit_ratio
from repro.core.placement import Placement, PlacementInstance
from repro.errors import ConfigurationError
from repro.network.mobility import DEFAULT_CLASSES, MobilityClass, MobilityModel
from repro.sim.scenario import Scenario
from repro.utils.rng import SeedLike


#: Mobility slot length in seconds (paper: 5 s).
SLOT_DURATION_S = 5.0


def sample_schedule(
    horizon_s: float, sample_every: int, slot_duration_s: float = SLOT_DURATION_S
) -> Tuple[List[int], List[float]]:
    """The slots a study samples, and their times in seconds.

    Slot 0, every ``sample_every``-th slot and the last one, which is
    the horizon's slot count ``int(horizon_s / slot_duration_s)``.
    """
    num_slots = int(horizon_s / slot_duration_s)
    slots = list(range(0, num_slots + 1, sample_every))
    if num_slots % sample_every:
        slots.append(num_slots)
    return slots, [slot * slot_duration_s for slot in slots]


@dataclass
class MobilityTrace:
    """Hit ratio of one fixed placement over time."""

    times_s: np.ndarray
    hit_ratios: np.ndarray

    @property
    def initial(self) -> float:
        """Hit ratio at t = 0."""
        return float(self.hit_ratios[0])

    @property
    def final(self) -> float:
        """Hit ratio at the end of the horizon."""
        return float(self.hit_ratios[-1])

    @property
    def degradation(self) -> float:
        """Relative drop from the initial hit ratio (paper's headline)."""
        if self.initial == 0:
            return 0.0
        return (self.initial - self.final) / self.initial


class MobilityStudy:
    """Run the fixed-placement mobility evaluation.

    Parameters
    ----------
    scenario:
        The initial snapshot (placement decisions are made here).
    slot_duration_s:
        Mobility slot length (paper: 5 s).
    sample_every:
        Evaluate the hit ratio every this many slots (evaluating every
        5 s slot over 2 h is wasteful; the paper plots minutes).
    classes:
        Mobility classes assigned to users round-robin.
    """

    def __init__(
        self,
        scenario: Scenario,
        slot_duration_s: float = SLOT_DURATION_S,
        sample_every: int = 12,
        classes: Sequence[MobilityClass] = DEFAULT_CLASSES,
    ) -> None:
        if sample_every < 1:
            raise ConfigurationError("sample_every must be at least 1")
        self.scenario = scenario
        self.model = MobilityModel(
            side_length=scenario.config.area_side_m,
            slot_duration_s=slot_duration_s,
            classes=classes,
        )
        self.sample_every = sample_every
        self._cached: Optional[tuple] = None

    def snapshots(
        self, horizon_s: float, seed: SeedLike = 0
    ) -> Tuple[Tuple[float, ...], Tuple[PlacementInstance, ...]]:
        """Sample times and the instances users see then (index 0: t = 0).

        Users move for ``int(horizon_s / slot_duration_s)`` slots; every
        ``sample_every``-th slot and the last one are sampled. The result
        is kept for the next call with the same horizon and an equal int
        or tuple ``seed``; a generator or ``None`` seed walks afresh.
        """
        if not (math.isfinite(horizon_s) and horizon_s >= 0):
            raise ConfigurationError(
                f"horizon_s must be finite and non-negative, got {horizon_s}"
            )
        slots, times = sample_schedule(
            horizon_s, self.sample_every, self.model.slot_duration_s
        )
        cacheable = isinstance(seed, (int, np.integer, tuple))
        key = (slots[-1], seed)
        if cacheable and self._cached is not None and self._cached[0] == key:
            return self._cached[1]
        topology = self.scenario.topology
        frames = self.model.trajectory(
            topology.user_batch.positions,
            slots[-1],
            seed,
        )
        instances = (self.scenario.instance,) + tuple(
            self.scenario.rebuild_instance(topology.with_user_positions(frames[slot]))
            for slot in slots[1:]
        )
        sampled = (tuple(times), instances)
        if cacheable:
            self._cached = (key, sampled)
        return sampled

    def run(
        self,
        placement: Placement,
        horizon_s: float = 7200.0,
        seed: SeedLike = 0,
    ) -> MobilityTrace:
        """Evaluate ``placement`` while users move for ``horizon_s``."""
        times, instances = self.snapshots(horizon_s, seed)
        return MobilityTrace(
            times_s=np.array(times),
            hit_ratios=np.array(
                [hit_ratio(instance, placement) for instance in instances]
            ),
        )
