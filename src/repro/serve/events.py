"""Event model for the serving layer.

An :class:`Event` is one mutation of a live scenario: a user departing
(their demand row drops to zero), a departed user re-arriving (their
original row is restored), a server's storage capacity stepping to a new
absolute value, or a model's popularity being scaled. :class:`EventTrace`
is an ordered, JSON-round-trippable sequence of events plus the seed that
generated it, so serve benchmarks and equivalence tests are reproducible —
a stepping stone to the ROADMAP's trace-driven ``TraceSpec`` workloads.

:func:`apply_event` is the single source of mutation arithmetic: both the
resident :class:`~repro.serve.service.PlacementService` and the
from-scratch reference path route events through it (and through the
:class:`~repro.core.placement.PlacementInstance` mutators it calls), so
the mutated demand/capacity arrays are bit-identical on both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError
from repro.utils.rng import RngFactory

TRACE_FORMAT = "trimcaching-events-v1"

EVENT_KINDS = (
    "user_arrive",
    "user_depart",
    "capacity_change",
    "popularity_update",
)

#: Required payload field per event kind (beyond ``kind`` itself).
_REQUIRED = {
    "user_arrive": ("user",),
    "user_depart": ("user",),
    "capacity_change": ("server", "capacity_bytes"),
    "popularity_update": ("model", "factor"),
}


@dataclass(frozen=True)
class Event:
    """One mutation of a live scenario.

    Exactly the fields required by ``kind`` must be set:

    * ``user_arrive`` / ``user_depart`` — ``user``;
    * ``capacity_change`` — ``server`` and ``capacity_bytes`` (absolute);
    * ``popularity_update`` — ``model`` and ``factor`` (multiplicative).
    """

    kind: str
    user: Optional[int] = None
    server: Optional[int] = None
    model: Optional[int] = None
    capacity_bytes: Optional[int] = None
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ServeError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        for field in _REQUIRED[self.kind]:
            if getattr(self, field) is None:
                raise ServeError(f"{self.kind} event requires {field!r}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (only the fields the kind uses)."""
        payload: Dict[str, object] = {"kind": self.kind}
        for field in _REQUIRED[self.kind]:
            payload[field] = getattr(self, field)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Event":
        """Inverse of :meth:`to_dict` (tolerates extra keys)."""
        if not isinstance(payload, dict):
            raise ServeError(f"event payload must be an object, got {payload!r}")
        kind = payload.get("kind")
        if kind not in EVENT_KINDS:
            raise ServeError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        kwargs: Dict[str, object] = {"kind": kind}
        for field in _REQUIRED[kind]:
            if field not in payload:
                raise ServeError(f"{kind} event requires {field!r}")
            value = payload[field]
            if field == "factor":
                kwargs[field] = float(value)  # type: ignore[arg-type]
            else:
                kwargs[field] = int(value)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class EventTrace:
    """An ordered, reproducible sequence of events."""

    events: Tuple[Event, ...]
    seed: Optional[int] = None
    name: str = "event trace"

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index: int) -> Event:
        return self.events[index]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to JSON; :meth:`from_json` restores it exactly."""
        payload = {
            "format": TRACE_FORMAT,
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EventTrace":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServeError(f"invalid event-trace JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != TRACE_FORMAT:
            raise ServeError(
                f"not an event trace (expected format={TRACE_FORMAT!r})"
            )
        events = payload.get("events")
        if not isinstance(events, list):
            raise ServeError("event trace must carry an 'events' list")
        seed = payload.get("seed")
        return cls(
            events=tuple(Event.from_dict(entry) for entry in events),
            seed=None if seed is None else int(seed),
            name=str(payload.get("name", "event trace")),
        )


def apply_event(instance, event: Event, original_demand: np.ndarray):
    """Apply one event to a live :class:`PlacementInstance` in place.

    Returns ``(changed_columns, capacity_changed)``: the dense model
    indices whose demand column changed (empty for capacity events) and
    whether a capacity moved. ``user_arrive`` restores the user's row
    from ``original_demand`` (the scenario's pristine demand matrix);
    ``user_depart`` zeroes it.
    """
    if event.kind == "user_depart":
        row = np.zeros(instance.num_models, dtype=float)
        return instance.set_demand_row(int(event.user), row), False
    if event.kind == "user_arrive":
        user = int(event.user)
        if not 0 <= user < original_demand.shape[0]:
            raise ServeError(f"user {user} out of range")
        return instance.set_demand_row(user, original_demand[user].copy()), False
    if event.kind == "popularity_update":
        return (
            instance.scale_demand_column(int(event.model), float(event.factor)),
            False,
        )
    # capacity_change
    instance.set_capacity(int(event.server), int(event.capacity_bytes))
    return np.empty(0, dtype=np.intp), True


def generate_event_trace(
    scenario,
    num_events: int,
    seed: int = 0,
    *,
    weights: Sequence[float] = (0.3, 0.4, 0.15, 0.15),
    min_active_users: int = 1,
    name: Optional[str] = None,
) -> EventTrace:
    """A seeded, reproducible event trace for one scenario.

    Draws every choice from the named RNG stream
    ``RngFactory(seed).child("event-trace")``, so the trace depends only
    on ``seed`` and the scenario's shape. ``weights`` orders the kinds as
    ``EVENT_KINDS`` (arrive, depart, capacity, popularity); arrivals with
    no departed user fall back to departures and vice versa, and
    departures never drop the active-user count below
    ``min_active_users`` (total demand must stay positive). Capacity
    steps are absolute: a uniform factor in [0.5, 1.5] of the server's
    *original* capacity. Popularity factors are uniform in [0.5, 2.0].
    """
    if num_events < 0:
        raise ServeError("num_events must be non-negative")
    if len(weights) != len(EVENT_KINDS):
        raise ServeError(f"weights must have {len(EVENT_KINDS)} entries")
    weight_arr = np.asarray(weights, dtype=float)
    if np.any(weight_arr < 0) or weight_arr.sum() <= 0:
        raise ServeError("weights must be non-negative and sum to > 0")
    probabilities = weight_arr / weight_arr.sum()
    min_active_users = max(1, int(min_active_users))

    instance = scenario.instance
    num_users = instance.num_users
    num_servers = instance.num_servers
    num_models = instance.num_models
    original_capacities = np.asarray(instance.capacities, dtype=np.int64).copy()

    rng = RngFactory(seed).child("event-trace")
    active = np.ones(num_users, dtype=bool)
    events = []
    for _ in range(int(num_events)):
        kind = EVENT_KINDS[int(rng.choice(len(EVENT_KINDS), p=probabilities))]
        if kind == "user_arrive" and not (~active).any():
            kind = "user_depart"  # nobody to bring back
        if kind == "user_depart" and int(active.sum()) <= min_active_users:
            kind = "user_arrive" if (~active).any() else "capacity_change"
        if kind == "user_depart":
            user = int(rng.choice(np.flatnonzero(active)))
            active[user] = False
            events.append(Event(kind="user_depart", user=user))
        elif kind == "user_arrive":
            user = int(rng.choice(np.flatnonzero(~active)))
            active[user] = True
            events.append(Event(kind="user_arrive", user=user))
        elif kind == "capacity_change":
            server = int(rng.integers(num_servers))
            factor = float(rng.uniform(0.5, 1.5))
            events.append(
                Event(
                    kind="capacity_change",
                    server=server,
                    capacity_bytes=int(original_capacities[server] * factor),
                )
            )
        else:  # popularity_update
            model = int(rng.integers(num_models))
            factor = float(rng.uniform(0.5, 2.0))
            events.append(
                Event(kind="popularity_update", model=model, factor=factor)
            )
    return EventTrace(
        events=tuple(events),
        seed=int(seed),
        name=name
        or f"trace seed={seed} M={num_servers} K={num_users} I={num_models}",
    )
