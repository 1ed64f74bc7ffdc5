"""The resident placement service and its Python session API.

:class:`PlacementService` solves a scenario once and then stays warm: the
:class:`~repro.core.objective.CoverageTracker` base state, the CSR
feasibility artifact and the solved placement stay resident, so
processing an event costs a few column refreshes plus one greedy solve
over a clone of the base tracker, instead of a stateless rebuild. Every
answer is ``==``-identical to solving the mutated scenario from scratch —
the pinned equivalence suite in ``tests/serve/`` enforces it.

:class:`ServiceSession` is the ergonomic front end (one method per event
kind); :mod:`repro.serve.http` exposes the same service over stdlib HTTP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.blockmask import ServerBlockCache
from repro.core.objective import CoverageTracker
from repro.core.placement import PlacementInstance
from repro.errors import PlacementError, ServeError
from repro.serve.events import Event, apply_event, as_index
from repro.serve.resolver import SolveState, check_serve_config, warm_solve


@dataclass(frozen=True)
class EventResult:
    """Outcome of one processed event.

    ``mode`` is ``"full"`` (the event changed demand or capacity and the
    placement was re-solved) or ``"noop"`` (nothing changed).
    """

    event: Event
    mode: str
    hit_ratio: float
    latency_s: float
    changed_columns: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by the HTTP transport)."""
        return {
            "event": self.event.to_dict(),
            "mode": self.mode,
            "hit_ratio": self.hit_ratio,
            "latency_s": self.latency_s,
            "changed_columns": self.changed_columns,
        }


@dataclass(frozen=True)
class RouteResult:
    """Answer to ``route(user, model)``: the serving server, if any.

    Among the feasible servers currently caching the model, the lowest
    index is reported (servers are equivalent under the objective — any
    feasible cached copy serves the request within its deadline — so the
    choice is a deterministic convention, not a latency optimisation).
    """

    user: int
    model: int
    server: Optional[int]
    hit: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload."""
        return {
            "user": self.user,
            "model": self.model,
            "server": self.server,
            "hit": self.hit,
        }


def _index_arg(name: str, value: object, bound: int) -> int:
    """``value`` as a Python int in ``[0, bound)``, else :class:`ServeError`."""
    if type(value) is not int:
        value = as_index(name, value)
    if not 0 <= value < bound:  # type: ignore[operator]
        raise ServeError(f"{name} {value} out of range [0, {bound})")
    return value  # type: ignore[return-value]


class PlacementService:
    """A long-lived solver: one scenario, resident state, an event stream.

    Parameters
    ----------
    scenario:
        The :class:`~repro.sim.scenario.Scenario` to serve. The service
        takes private copies of the demand and capacity arrays (events
        never mutate the scenario) and shares the immutable CSR
        feasibility artifact.
    solver:
        ``"gen"`` (deduplicated storage, the paper's Algorithm 3) or
        ``"independent"`` (knapsack storage baseline).
    engine:
        Only ``"sparse"`` is accepted, and it selects nothing (see
        :data:`~repro.serve.resolver.SERVE_ENGINES`, which documents when
        the keyword leaves).
    """

    def __init__(
        self,
        scenario,
        solver: str = "gen",
        engine: str = "sparse",
    ) -> None:
        check_serve_config(solver, engine)
        self.scenario = scenario
        self.solver = solver
        source = scenario.instance
        # Private copies: the instance constructor shares float/int64
        # arrays it is given, and events mutate them in place.
        self.instance = PlacementInstance(
            library=scenario.library,
            demand=scenario.demand.copy(),
            feasible=source.sparse_feasible,
            capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
        )
        self._original_demand = scenario.demand.copy()
        # Unmarked tracker, kept in sync with the instance's demand by
        # column refreshes after every mutation — a clone of it always
        # equals a fresh CoverageTracker(instance) bit for bit.
        self.base_tracker = CoverageTracker(self.instance)
        # Unplaced block cache (Gen only): every re-solve runs on a clone
        # of it, and the clones share its delta table, so the block adds
        # that recur from event to event are computed once per service.
        self.base_cache: Optional[ServerBlockCache] = (
            ServerBlockCache.resident(
                self.instance.block_index, self.instance.num_servers
            )
            if solver == "gen"
            else None
        )
        # route()'s view of the CSR bundle: each (user, model) request's
        # feasible servers are one run of the per-user entries (sorted
        # by user, model, server), bounded at row ``user * I + model``.
        indptr, user_models, user_servers = (
            self.instance.sparse_feasible.user_view()
        )
        num_users = self.instance.num_users
        num_models = self.instance.num_models
        requests = np.repeat(
            np.arange(num_users) * num_models, np.diff(indptr)
        ) + user_models
        run_indptr = np.zeros(num_users * num_models + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(requests, minlength=num_users * num_models),
            out=run_indptr[1:],
        )
        self._routes = (num_users, num_models, run_indptr, user_servers)
        start = time.perf_counter()
        self.state: SolveState = warm_solve(
            self.instance, self.base_tracker, self.base_cache
        )
        self.initial_solve_s = time.perf_counter() - start
        self.events_processed = 0
        self.hit_ratios: List[float] = [self.state.hit_ratio]
        # Every event is a "full" re-solve or a "noop". The "replay" and
        # "fallback" keys are kept at 0 for readers of the counter set
        # that predate the single re-solve path (the repo benchmark
        # indexes them).
        self.counters: Dict[str, int] = {
            "replay": 0,
            "fallback": 0,
            "full": 0,
            "noop": 0,
        }

    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        """The current placement's hit ratio."""
        return self.state.hit_ratio

    def route(self, user: int, model: int) -> RouteResult:
        """Which server serves ``user``'s request for ``model`` now?

        ``user`` and ``model`` must be integers (any ``__index__`` type
        but ``bool``) inside the instance; anything else is a
        :class:`ServeError`. The result holds Python ints.
        """
        num_users, num_models, run_indptr, user_servers = self._routes
        user = _index_arg("user", user, num_users)
        model = _index_arg("model", model, num_models)
        row = user * num_models + model
        start, stop = run_indptr.item(row), run_indptr.item(row + 1)
        if start != stop:
            servers = user_servers[start:stop]
            cached = servers[self.state.placement.matrix[servers, model]]
            if cached.size:
                # Each run is sorted by server: the first hit is the
                # lowest feasible caching server.
                return RouteResult(user, model, int(cached[0]), True)
        return RouteResult(user, model, None, False)

    def status(self) -> Dict[str, object]:
        """JSON-ready service summary."""
        instance = self.instance
        return {
            "solver": self.solver,
            "num_servers": instance.num_servers,
            "num_users": instance.num_users,
            "num_models": instance.num_models,
            "hit_ratio": self.state.hit_ratio,
            "placements": self.state.placement.total_placements(),
            "events_processed": self.events_processed,
            "counters": dict(self.counters),
            "initial_solve_s": self.initial_solve_s,
        }

    def stats(self) -> Dict[str, int]:
        """Re-solve counters plus the event total, JSON-ready.

        The focused view of :meth:`status`'s ``counters`` block: how
        many events were re-solved (``full``) and how many touched
        nothing (``noop``). ``replay`` and ``fallback`` always read 0;
        they stay in the set for readers that index them.

        Counters are cumulative for the life of the service and are
        **never reset**; each event increments exactly one of them, so
        their sum always equals ``events_processed``. The same numbers
        are exported in Prometheus text format by the HTTP transport's
        ``/metrics`` endpoint (:func:`repro.serve.http.metrics_exposition`)
        as ``repro_serve_resolves_total{mode=...}``.
        """
        return {
            **self.counters,
            "events_processed": self.events_processed,
        }

    def placement_dict(self) -> Dict[str, object]:
        """JSON-ready placement: model indices per server."""
        placement = self.state.placement
        return {
            "hit_ratio": self.state.hit_ratio,
            "servers": {
                str(server): placement.models_on(server)
                for server in range(placement.num_servers)
            },
        }

    # ------------------------------------------------------------------
    def check_ids(self, event: Event) -> None:
        """Raise :class:`ServeError` if ``event`` names an id outside the
        instance; events never change the instance's shape, so a batch
        can be checked whole before any of it is applied."""
        instance = self.instance
        if event.kind == "capacity_change":
            _index_arg("server", event.server, instance.num_servers)
        elif event.kind == "popularity_update":
            _index_arg("model", event.model, instance.num_models)
        else:
            _index_arg("user", event.user, instance.num_users)

    def process(self, event: Event) -> EventResult:
        """Apply one event and, if it changed anything, re-solve.

        An event the instance refuses (an id out of range, a negative
        capacity, a change that would zero total demand) raises
        :class:`ServeError` before anything is mutated or counted.
        """
        self.check_ids(event)
        instance = self.instance
        start = time.perf_counter()
        with obs.span("serve.event", kind=event.kind) as span:
            try:
                changed, capacity_changed = apply_event(
                    instance, event, self._original_demand
                )
            except PlacementError as exc:
                # The instance mutators check before they write (or
                # restore what they wrote), so nothing has changed.
                raise ServeError(str(exc)) from exc
            if changed.size:
                # User events touch a single demand row; telling the
                # tracker lets it restrict the weighted resync to that row
                # (the gain kernel still re-runs on the whole column —
                # exact either way).
                with obs.span("serve.refresh", columns=int(changed.size)):
                    self.base_tracker.refresh_columns(
                        changed,
                        user=event.user
                        if event.kind in ("user_arrive", "user_depart")
                        else None,
                    )
            if changed.size == 0 and not capacity_changed:
                mode = "noop"
            else:
                with obs.span("serve.full_solve"):
                    self.state = warm_solve(
                        self.instance, self.base_tracker, self.base_cache
                    )
                mode = "full"
            span["mode"] = mode
        self.counters[mode] += 1
        self.events_processed += 1
        self.hit_ratios.append(self.state.hit_ratio)
        latency_s = time.perf_counter() - start
        obs.observe("repro_serve_event_seconds", latency_s, mode=mode)
        obs.count("repro_serve_events_total", 1, mode=mode)
        return EventResult(
            event=event,
            mode=mode,
            hit_ratio=self.state.hit_ratio,
            latency_s=latency_s,
            changed_columns=int(changed.size),
        )

    def process_trace(self, trace) -> List[EventResult]:
        """Apply a whole :class:`EventTrace` (or iterable of events)."""
        return [self.process(event) for event in trace]


class ServiceSession:
    """Ergonomic Python front end: one method per event kind.

    >>> session = ServiceSession(scenario)
    >>> session.depart(3).hit_ratio
    >>> session.route(5, 2).server
    """

    def __init__(
        self,
        scenario,
        solver: str = "gen",
        engine: str = "sparse",
    ) -> None:
        self.service = PlacementService(scenario, solver=solver, engine=engine)

    @property
    def hit_ratio(self) -> float:
        """The current placement's hit ratio."""
        return self.service.hit_ratio

    def arrive(self, user: int) -> EventResult:
        """A departed user re-arrives (original demand row restored)."""
        return self.service.process(Event(kind="user_arrive", user=user))

    def depart(self, user: int) -> EventResult:
        """A user departs (demand row zeroed)."""
        return self.service.process(Event(kind="user_depart", user=user))

    def set_capacity(self, server: int, capacity_bytes: int) -> EventResult:
        """Step one server's capacity to an absolute byte count."""
        return self.service.process(
            Event(
                kind="capacity_change",
                server=server,
                capacity_bytes=capacity_bytes,
            )
        )

    def scale_popularity(self, model: int, factor: float) -> EventResult:
        """Scale one model's demand column by ``factor``."""
        return self.service.process(
            Event(kind="popularity_update", model=model, factor=factor)
        )

    def apply(self, trace) -> List[EventResult]:
        """Apply an :class:`EventTrace` (or any iterable of events)."""
        return self.service.process_trace(trace)

    def route(self, user: int, model: int) -> RouteResult:
        """Which server serves this (user, model) request now?"""
        return self.service.route(user, model)

    def status(self) -> Dict[str, object]:
        """Service summary (see :meth:`PlacementService.status`)."""
        return self.service.status()

    def stats(self) -> Dict[str, int]:
        """Re-solve counters (see :meth:`PlacementService.stats`)."""
        return self.service.stats()
