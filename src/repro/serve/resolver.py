"""The serving layer's re-solve and its from-scratch reference.

After every event the service runs :func:`warm_solve`: the solvers' own
greedy (:func:`~repro.core.gen.greedy_place`) over a clone of the
resident base tracker (and, for Gen, of the resident unplaced block
cache, whose delta table the clones share). The base tracker is kept
in sync with the instance's demand by column refreshes, so its clone
equals a fresh ``CoverageTracker(instance)`` bit for bit: the answer
*is* a solve of the mutated scenario from scratch, minus the
feasibility rebuild and the tracker's initial gain kernel. Exactness is enforced by the pinned
equivalence suite in ``tests/serve/``; :func:`resolve_from_scratch` is the
reference it compares against (it re-derives feasibility, instance and
solve per event, sharing the instance mutators so the demand bits match).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.blockmask import ServerBlockCache
from repro.core.gen import TrimCachingGen, greedy_place
from repro.core.independent import IndependentCaching
from repro.core.objective import CoverageTracker, hit_ratio
from repro.core.placement import Placement, PlacementInstance
from repro.errors import ServeError
from repro.network.latency import LatencyModel
from repro.serve.events import apply_event

#: Solvers the serving layer supports: the greedy pair solvers that run on
#: the maintained CoverageTracker gain matrix. ("gen" = deduplicated
#: storage via ServerBlockCache; "independent" = full model sizes.)
SERVE_SOLVERS = ("gen", "independent")

#: The one value the ``engine`` keyword of :class:`~repro.serve.service.
#: PlacementService`, :class:`~repro.serve.service.ServiceSession` and
#: :func:`resolve_from_scratch` accepts. The keyword selects nothing (the
#: coverage tracker has one kernel); it stays because the repo benchmark
#: passes ``engine="sparse"``, and leaves with the benchmark change of
#: ROADMAP item 2.
SERVE_ENGINES = ("sparse",)


def check_serve_config(solver: str, engine: str) -> None:
    """Raise :class:`ServeError` unless the service can run this pair."""
    if solver not in SERVE_SOLVERS:
        raise ServeError(f"serving supports solvers {SERVE_SOLVERS}, got {solver!r}")
    if engine not in SERVE_ENGINES:
        raise ServeError(f"serving supports engines {SERVE_ENGINES}, got {engine!r}")


@dataclass(frozen=True)
class SolveState:
    """The resident solution: the current placement and its hit ratio."""

    placement: Placement
    hit_ratio: float


def warm_solve(
    instance: PlacementInstance,
    base_tracker: CoverageTracker,
    base_cache: Optional[ServerBlockCache],
) -> SolveState:
    """Solve ``instance`` with the greedy over a clone of ``base_tracker``.

    ``base_cache`` set selects Gen's deduplicated storage: the greedy
    runs on a clone of that unplaced block cache, so a resident cache
    (:meth:`ServerBlockCache.resident`) lends every re-solve its shared
    delta table. ``None`` selects Independent's full model sizes. The
    hit ratio mirrors each solver's own computation so serve answers are
    ``==`` to ``SolverResult.hit_ratio``: Gen reads the tracker,
    Independent recomputes from the placement.
    """
    tracker = base_tracker.clone()
    if base_cache is None:
        placement, _ = greedy_place(instance, tracker)
        return SolveState(placement, hit_ratio(instance, placement))
    placement, _ = greedy_place(instance, tracker, base_cache.clone())
    return SolveState(placement, tracker.hit_ratio())


def _solver_for(solver: str):
    if solver == "gen":
        return TrimCachingGen(accelerated=True, fill_zero_gain=False)
    if solver == "independent":
        return IndependentCaching()
    raise ServeError(
        f"serving supports solvers {SERVE_SOLVERS}, got {solver!r}"
    )


@dataclass
class ScratchRecord:
    """One from-scratch reference solve (see :func:`resolve_from_scratch`)."""

    placement: Placement
    hit_ratio: float
    seconds: float
    changed_columns: int
    capacity_changed: bool


def resolve_from_scratch(
    scenario,
    events,
    solver: str = "gen",
    engine: str = "sparse",
) -> List[ScratchRecord]:
    """The stateless reference: after each event, solve the mutated
    scenario from scratch (feasibility rebuild + fresh instance + solve).

    Events mutate a private carrier instance through the same
    :class:`PlacementInstance` mutators the service uses, so the demand
    and capacity arrays match the resident path bit for bit. ``seconds``
    times the full stateless path (what a server without resident state
    would pay per event) — the serve benchmark's baseline.
    """
    check_serve_config(solver, engine)
    source = scenario.instance
    carrier = PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=source.sparse_feasible,
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )
    original_demand = scenario.demand.copy()
    model_sizes = scenario.library.model_size_array.astype(float)
    algorithm = _solver_for(solver)
    records: List[ScratchRecord] = []
    for event in events:
        changed, capacity_changed = apply_event(carrier, event, original_demand)
        start = time.perf_counter()
        latency = LatencyModel(scenario.topology, model_sizes)
        instance = PlacementInstance(
            library=scenario.library,
            demand=carrier.demand.copy(),
            feasible=latency.feasibility_sparse(),
            capacities=carrier.capacities.copy(),
        )
        result = algorithm.solve(instance)
        records.append(
            ScratchRecord(
                placement=result.placement,
                hit_ratio=result.hit_ratio,
                seconds=time.perf_counter() - start,
                changed_columns=int(changed.size),
                capacity_changed=capacity_changed,
            )
        )
    return records
