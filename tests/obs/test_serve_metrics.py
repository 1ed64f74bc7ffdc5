"""The serve layer's observability surface: /metrics, counters, spans."""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro import obs
from repro.serve import PlacementService, serve_http
from repro.serve.events import Event
from repro.serve.http import metrics_exposition
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB


@pytest.fixture(scope="module")
def scenario():
    config = ScenarioConfig(
        num_servers=3,
        num_users=12,
        num_models=9,
        requests_per_user=4,
        storage_bytes=int(0.09 * GB),
    )
    return build_scenario(config, seed=3)


def run_server(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, thread


def fetch(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read().decode()


class TestExposition:
    def test_service_metrics_without_obs(self, scenario):
        service = PlacementService(scenario)
        service.process(Event(kind="user_depart", user=3))
        parsed = obs.parse_prometheus(metrics_exposition(service))
        resolves = parsed["repro_serve_resolves_total"]
        assert sum(resolves.values()) == 1
        assert parsed["repro_serve_events_processed_total"][""] == 1
        assert parsed["repro_serve_hit_ratio"][""] == service.hit_ratio
        # Obs disabled: no histogram families leak in.
        assert "repro_serve_event_seconds_bucket" not in parsed

    def test_obs_registry_appended_when_enabled(self, scenario):
        obs.enable(metrics=True, tracing=False)
        service = PlacementService(scenario)
        service.process(Event(kind="user_depart", user=3))
        (mode,) = [m for m, n in service.counters.items() if n == 1]
        key = f'{{mode="{mode}"}}'
        parsed = obs.parse_prometheus(metrics_exposition(service))
        assert parsed["repro_serve_event_seconds_count"][key] == 1
        assert parsed["repro_serve_events_total"][key] == 1

    def test_counters_accumulate_across_resolves(self, scenario):
        # Reset semantics: every event increments exactly one counter and
        # nothing ever zeroes them.
        service = PlacementService(scenario)
        for user in range(3):
            service.process(Event(kind="user_depart", user=user))
            service.process(Event(kind="user_arrive", user=user))
        service.process(Event(kind="user_arrive", user=0))  # already present
        stats = service.stats()
        assert stats["events_processed"] == 7
        assert stats["noop"] >= 1
        assert stats["replay"] == stats["fallback"] == 0
        modes = ("replay", "fallback", "full", "noop")
        assert sum(stats[mode] for mode in modes) == 7
        parsed = obs.parse_prometheus(metrics_exposition(service))
        resolves = parsed["repro_serve_resolves_total"]
        assert sum(resolves.values()) == 7


class TestHTTP:
    def test_metrics_endpoint_plaintext_and_parseable(self, scenario):
        obs.enable(metrics=True, tracing=False)
        service = PlacementService(scenario)
        server, thread = run_server(service)
        try:
            status, headers, body = fetch(server, "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            parsed = obs.parse_prometheus(body)
            assert "repro_serve_resolves_total" in parsed
            # Exercise a route, then see its latency histogram appear.
            fetch(server, "/route?user=1&model=2")
            _, _, body = fetch(server, "/metrics")
            parsed = obs.parse_prometheus(body)
            assert parsed["repro_serve_route_seconds_count"][""] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_metrics_matches_status(self, scenario):
        service = PlacementService(scenario)
        service.process(Event(kind="user_depart", user=1))
        server, thread = run_server(service)
        try:
            _, _, body = fetch(server, "/metrics")
            parsed = obs.parse_prometheus(body)
            import json

            status_url = f"http://127.0.0.1:{server.port}/status"
            with urllib.request.urlopen(status_url, timeout=10) as response:
                status_payload = json.loads(response.read().decode())
            for mode, value in status_payload["counters"].items():
                key = f'{{mode="{mode}"}}'
                assert parsed["repro_serve_resolves_total"][key] == value
            assert (
                parsed["repro_serve_events_processed_total"][""]
                == status_payload["events_processed"]
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestServeSpans:
    def test_event_spans_annotate_mode(self, scenario):
        obs.enable(metrics=True, tracing=True)
        service = PlacementService(scenario)
        service.process(Event(kind="user_depart", user=3))
        spans = {record[0]: record for record in obs.tracer().spans}
        assert spans["serve.event"][6]["mode"] == "full"
        assert spans["serve.event"][6]["kind"] == "user_depart"
        assert "serve.refresh" in spans
        assert "serve.full_solve" in spans
