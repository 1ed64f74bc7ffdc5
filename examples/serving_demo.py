"""Serve a placement as a long-lived service with warm re-solve.

The batch pipeline answers "what is the best placement for this
scenario?" once. :mod:`repro.serve` keeps that answer *warm*: a
:class:`~repro.serve.PlacementService` holds the coverage state and the
feasibility artifact resident, refreshes the changed demand columns as
users arrive and depart, capacities step, and popularity drifts, and
re-runs the greedy on a clone of its warm tracker — every post-event
answer ``==``-identical to re-solving the mutated scenario from scratch,
at a fraction of the cost.

This demo drives the same seeded event trace through both transports:

1. the in-process :class:`~repro.serve.ServiceSession` Python API,
   cross-checked event by event against the stateless
   ``resolve_from_scratch`` reference (exact hit-ratio equality and a
   byte-identical final placement are *asserted*, not eyeballed);
2. the stdlib HTTP/JSON endpoint (``repro.serve.http``), run on a
   background thread and exercised with nothing but :mod:`urllib` —
   the same events POSTed to ``/events`` must report the same final
   hit ratio, and ``/route`` answers match the session's.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

import json
import threading
import urllib.request

import numpy as np

from repro.serve import (
    PlacementService,
    ServiceSession,
    generate_event_trace,
    resolve_from_scratch,
)
from repro.serve.http import serve_http
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB


def main() -> None:
    config = ScenarioConfig(
        num_servers=8,
        num_users=60,
        num_models=40,
        requests_per_user=10,
        storage_bytes=int(0.1 * GB),
    )
    scenario = build_scenario(config, seed=11)
    trace = generate_event_trace(scenario, num_events=30, seed=4)

    # ------------------------------------------------------------------
    # 1. The Python session API, checked against the stateless reference.
    # ------------------------------------------------------------------
    session = ServiceSession(scenario, solver="gen")
    print(f"initial hit ratio: {session.hit_ratio:.4f}")

    results = session.apply(trace)
    reference = resolve_from_scratch(scenario, trace, solver="gen")
    for result, record in zip(results, reference):
        assert result.hit_ratio == record.hit_ratio  # the pinned contract
    assert np.array_equal(
        session.service.state.placement.matrix,
        reference[-1].placement.matrix,
    )

    served_ms = [r.latency_s * 1e3 for r in results]
    scratch_ms = [r.seconds * 1e3 for r in reference]
    counters = session.status()["counters"]
    print(
        f"processed {len(results)} events: {counters['full']} re-solved, "
        f"{counters['noop']} changed nothing"
    )
    print(
        f"median latency: resident {np.median(served_ms):.2f} ms vs "
        f"from-scratch {np.median(scratch_ms):.2f} ms "
        f"({np.median(scratch_ms) / np.median(served_ms):.1f}x) — "
        "every answer exactly equal"
    )
    print(f"final hit ratio: {session.hit_ratio:.4f}")

    route = session.route(user=0, model=int(np.argmax(scenario.demand[0])))
    print(
        f"route(user=0, favourite model {route.model}): "
        f"{'server %d' % route.server if route.hit else 'MISS (cloud)'}"
    )

    # ------------------------------------------------------------------
    # 2. The HTTP transport: same events over the wire, same answers.
    # ------------------------------------------------------------------
    server = serve_http(PlacementService(scenario, solver="gen"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        body = trace.to_json().encode("utf-8")
        request = urllib.request.Request(
            f"{base}/events",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            reply = json.load(response)
        assert reply["hit_ratio"] == session.hit_ratio
        with urllib.request.urlopen(
            f"{base}/route?user={route.user}&model={route.model}"
        ) as response:
            routed = json.load(response)
        assert routed["server"] == route.server
        print(
            f"HTTP transport on port {server.port}: POST /events reported "
            f"hit ratio {reply['hit_ratio']:.4f} — identical to the session"
        )
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
