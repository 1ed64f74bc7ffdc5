"""Placement-as-a-service: a long-lived serving layer with warm re-solve.

The batch solvers answer "given this snapshot, what is the best
placement?"; this package answers it *continuously*. A
:class:`PlacementService` solves a scenario once, keeps the coverage
tracker / CSR feasibility state resident, and processes a stream of
events (user churn, capacity steps, popularity drift) by refreshing the
changed tracker columns and re-running the solvers' own greedy on a
clone of the warm tracker. Every answer is ``==``-identical to solving
the mutated scenario from scratch.

Transports: :class:`ServiceSession` (Python) and :func:`serve_http`
(stdlib HTTP/JSON, ``python -m repro serve``). The HTTP transport is
imported on first use: ``http.server`` and the ``email`` modules it
pulls in take ~30 ms to import (2-core x86 VM), which a user of the
Python session API need not pay.
"""

from repro.serve.events import (
    EVENT_KINDS,
    Event,
    EventTrace,
    apply_event,
    generate_event_trace,
)
from repro.serve.resolver import (
    SERVE_ENGINES,
    SERVE_SOLVERS,
    ScratchRecord,
    SolveState,
    resolve_from_scratch,
    warm_solve,
)
from repro.serve.service import (
    EventResult,
    PlacementService,
    RouteResult,
    ServiceSession,
)

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventTrace",
    "EventResult",
    "PlacementHTTPServer",
    "PlacementService",
    "RouteResult",
    "SERVE_ENGINES",
    "SERVE_SOLVERS",
    "ScratchRecord",
    "ServiceSession",
    "SolveState",
    "apply_event",
    "generate_event_trace",
    "resolve_from_scratch",
    "serve_http",
    "warm_solve",
]


def __getattr__(name: str):
    if name in ("PlacementHTTPServer", "serve_http"):
        from repro.serve import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
