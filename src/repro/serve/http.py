"""Stdlib HTTP/JSON transport for :class:`PlacementService`.

Mirrors the ``exec`` process backend's stdlib-only style: no frameworks,
just :mod:`http.server`. Endpoints:

``GET /status``
    Service summary (solver, shape, hit ratio, event counters).
``GET /route?user=K&model=I``
    Which server serves the request — ``{"server": m | null, "hit": …}``.
``GET /placement``
    The full placement as ``{server: [model indices]}``.
``GET /metrics``
    Prometheus text exposition (``text/plain``): the service's resolve
    counters and hit-ratio gauge, plus — when :mod:`repro.obs` is
    enabled in this process — everything in the global obs registry
    (event/route latency histograms, span-derived counters). See
    :func:`metrics_exposition`.
``POST /events``
    Body ``{"events": [{...}, ...]}`` (event dicts, see
    :mod:`repro.serve.events`) or a serialised :class:`EventTrace`
    payload. Every event's ids are checked before any is applied; the
    events are then applied in order under the server's lock, and the
    response carries one result summary per event and the final hit
    ratio. A refusal (an id out of range refuses the whole batch; a
    change that would zero total demand stops it there) answers 400
    with ``processed``, the number of events applied before it.

Errors return ``{"error": ...}`` with status 400 (bad request / domain
error), 404 (unknown path) or 413 (a declared body over
:data:`MAX_BODY_BYTES`, refused unread). Mutation and reads share one
lock, so routed answers never observe a half-applied event batch.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.errors import ReproError, ServeError
from repro.serve.events import TRACE_FORMAT, Event
from repro.serve.service import PlacementService

#: Largest ``POST /events`` body the server reads, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024


def metrics_exposition(service: PlacementService) -> str:
    """Prometheus text exposition for one service.

    The service-derived metrics are rebuilt from the service's own
    counters on every call (no sampling lag, no obs dependency):

    * ``repro_serve_resolves_total{mode=...}`` — the cumulative
      counters of :meth:`PlacementService.stats` (``full``/``noop``;
      ``replay``/``fallback`` stay 0).
    * ``repro_serve_events_processed_total`` — their sum.
    * ``repro_serve_hit_ratio`` — the current placement's hit ratio.
    * ``repro_serve_initial_solve_seconds`` — the cold-start solve time.

    When :func:`repro.obs.metrics_enabled`, the global obs registry's
    exposition (``repro_serve_event_seconds``/``repro_serve_route_seconds``
    histograms, ``repro_serve_events_total`` and any solver counters) is
    appended; its metric names are disjoint from the ones above, so the
    combined text stays a valid exposition.
    """
    registry = obs.MetricsRegistry()
    for mode, value in service.counters.items():
        registry.counter("repro_serve_resolves_total", mode=mode).inc(value)
    registry.counter("repro_serve_events_processed_total").inc(
        service.events_processed
    )
    registry.gauge("repro_serve_hit_ratio").set(service.hit_ratio)
    registry.gauge("repro_serve_initial_solve_seconds").set(
        service.initial_solve_s
    )
    text = registry.to_prometheus()
    if obs.metrics_enabled():
        text += obs.registry().to_prometheus()
    return text


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's ``PlacementService``."""

    server_version = "trimcaching-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, close: bool = False) -> None:
        self._reply(status, {"error": message}, close)

    @staticmethod
    def _int_param(params: dict, name: str) -> int:
        values = params.get(name)
        if not values:
            raise ServeError(f"missing query parameter {name!r}")
        try:
            return int(values[0])
        except ValueError:
            raise ServeError(
                f"query parameter {name!r} must be an integer, got {values[0]!r}"
            ) from None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service: PlacementService = self.server.service  # type: ignore[attr-defined]
        lock: threading.Lock = self.server.lock  # type: ignore[attr-defined]
        parts = urlsplit(self.path)
        try:
            if parts.path == "/status":
                with lock:
                    self._reply(200, service.status())
            elif parts.path == "/route":
                params = parse_qs(parts.query)
                user = self._int_param(params, "user")
                model = self._int_param(params, "model")
                started = time.perf_counter()
                with lock:
                    result = service.route(user, model)
                obs.observe(
                    "repro_serve_route_seconds",
                    time.perf_counter() - started,
                )
                self._reply(200, result.to_dict())
            elif parts.path == "/placement":
                with lock:
                    self._reply(200, service.placement_dict())
            elif parts.path == "/metrics":
                with lock:
                    text = metrics_exposition(service)
                self._reply_text(200, text)
            else:
                self._error(404, f"unknown path {parts.path!r}")
        except ReproError as exc:
            self._error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        service: PlacementService = self.server.service  # type: ignore[attr-defined]
        lock: threading.Lock = self.server.lock  # type: ignore[attr-defined]
        parts = urlsplit(self.path)
        if parts.path != "/events":
            self._error(404, f"unknown path {parts.path!r}")
            return
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        # A refused body stays unread, so the connection cannot carry
        # another request: both refusals close it.
        if length < 0:
            self._error(400, f"invalid Content-Length {declared!r}", close=True)
            return
        if length > MAX_BODY_BYTES:
            self._error(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}", close=True
            )
            return
        try:
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            entries = self._event_entries(payload)
            events = [Event.from_dict(entry) for entry in entries]
        except ReproError as exc:
            self._error(400, str(exc))
            return
        results = []
        try:
            with lock:
                for event in events:
                    service.check_ids(event)
                for event in events:
                    results.append(service.process(event))
                final_ratio = service.hit_ratio
        except ReproError as exc:
            self._reply(400, {"error": str(exc), "processed": len(results)})
            return
        self._reply(
            200,
            {
                "processed": len(results),
                "hit_ratio": final_ratio,
                "results": [result.to_dict() for result in results],
            },
        )

    @staticmethod
    def _event_entries(payload: object) -> list:
        """Accept ``{"events": [...]}``, a trace payload, or a bare list."""
        if isinstance(payload, list):
            return payload
        if isinstance(payload, dict):
            if payload.get("format") == TRACE_FORMAT or "events" in payload:
                events = payload.get("events")
                if isinstance(events, list):
                    return events
        raise ServeError(
            "POST /events body must be {'events': [...]} or an event-trace"
        )


class PlacementHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning one placement service."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: PlacementService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.lock = threading.Lock()
        self.verbose = verbose

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ephemeral ``port=0``)."""
        return int(self.server_address[1])


def serve_http(
    service: PlacementService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> PlacementHTTPServer:
    """Bind (but do not start) an HTTP server for ``service``.

    Call :meth:`~socketserver.BaseServer.serve_forever` to block, or run
    it in a thread and :meth:`shutdown`/:meth:`server_close` when done.
    ``port=0`` binds an ephemeral port (read it back via ``.port``).
    """
    return PlacementHTTPServer((host, port), service, verbose=verbose)
