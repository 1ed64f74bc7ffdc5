"""HTTP/JSON transport: an in-process server driven through urllib."""

from __future__ import annotations

import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    Event,
    PlacementService,
    generate_event_trace,
    resolve_from_scratch,
    serve_http,
)
from repro.serve.http import MAX_BODY_BYTES


@pytest.fixture
def http_server(micro_scenario):
    """A live server on an ephemeral port; stopped at teardown."""
    service = PlacementService(micro_scenario, engine="sparse")
    server = serve_http(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def get_json(server, path, expect_status=200):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == expect_status
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        assert error.code == expect_status, error.read().decode("utf-8")
        return json.loads(error.read().decode("utf-8"))


def post_json(server, path, payload, expect_status=200):
    url = f"http://127.0.0.1:{server.port}{path}"
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == expect_status
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        assert error.code == expect_status, error.read().decode("utf-8")
        return json.loads(error.read().decode("utf-8"))


def post_raw(server, content_length):
    """POST /events with a hand-written Content-Length and no body.

    Returns ``(status, payload)``; a server that waits for the declared
    body instead of answering trips the socket timeout.
    """
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(
            b"POST /events HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8"))


class TestGet:
    def test_status(self, http_server):
        payload = get_json(http_server, "/status")
        assert payload["solver"] == "gen"
        assert payload["engine"] == "sparse"
        assert payload["events_processed"] == 0
        assert 0.0 < payload["hit_ratio"] <= 1.0

    def test_route_matches_service(self, http_server):
        service = http_server.service
        expected = service.route(1, 2).to_dict()
        assert get_json(http_server, "/route?user=1&model=2") == expected

    def test_route_missing_param_is_400(self, http_server):
        payload = get_json(http_server, "/route?user=1", expect_status=400)
        assert "model" in payload["error"]

    def test_route_bad_param_is_400(self, http_server):
        payload = get_json(
            http_server, "/route?user=x&model=0", expect_status=400
        )
        assert "integer" in payload["error"]

    def test_route_out_of_range_is_400(self, http_server):
        payload = get_json(
            http_server, "/route?user=9999&model=0", expect_status=400
        )
        assert "out of range" in payload["error"]

    def test_placement(self, http_server):
        payload = get_json(http_server, "/placement")
        assert payload == http_server.service.placement_dict()

    def test_unknown_path_is_404(self, http_server):
        payload = get_json(http_server, "/nope", expect_status=404)
        assert "unknown path" in payload["error"]


class TestPostEvents:
    def test_events_list_processed_in_order(self, http_server, micro_scenario):
        events = [
            {"kind": "user_depart", "user": 3},
            {"kind": "popularity_update", "model": 1, "factor": 2.0},
            {"kind": "user_arrive", "user": 3},
        ]
        payload = post_json(http_server, "/events", {"events": events})
        assert payload["processed"] == 3
        assert [r["event"] for r in payload["results"]] == events
        assert payload["hit_ratio"] == http_server.service.hit_ratio
        assert get_json(http_server, "/status")["events_processed"] == 3

    def test_trace_payload_and_scratch_equality(
        self, http_server, micro_scenario
    ):
        trace = generate_event_trace(micro_scenario, 8, seed=19)
        payload = post_json(
            http_server, "/events", json.loads(trace.to_json())
        )
        assert payload["processed"] == 8
        records = resolve_from_scratch(
            micro_scenario, trace, solver="gen", engine="sparse"
        )
        assert payload["hit_ratio"] == records[-1].hit_ratio

    def test_bare_list_accepted(self, http_server):
        payload = post_json(
            http_server, "/events", [{"kind": "user_depart", "user": 0}]
        )
        assert payload["processed"] == 1

    def test_invalid_json_is_400(self, http_server):
        payload = post_json(
            http_server, "/events", b"{broken", expect_status=400
        )
        assert "invalid JSON" in payload["error"]

    def test_bad_shape_is_400(self, http_server):
        payload = post_json(
            http_server, "/events", {"nope": 1}, expect_status=400
        )
        assert "events" in payload["error"]

    def test_unknown_kind_is_400(self, http_server):
        payload = post_json(
            http_server,
            "/events",
            {"events": [{"kind": "meteor_strike"}]},
            expect_status=400,
        )
        assert "unknown event kind" in payload["error"]

    def test_post_unknown_path_is_404(self, http_server):
        payload = post_json(http_server, "/other", {}, expect_status=404)
        assert "unknown path" in payload["error"]


class TestBodyLength:
    def test_negative_content_length_is_400(self, http_server):
        status, payload = post_raw(http_server, -1)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_non_integer_content_length_is_400(self, http_server):
        status, payload = post_raw(http_server, "lots")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_body_is_413_without_reading_it(self, http_server):
        # The body is never sent: the reply must come from the header.
        status, payload = post_raw(http_server, MAX_BODY_BYTES + 1)
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert http_server.service.events_processed == 0


class TestConcurrentClients:
    def test_posts_and_routes_in_parallel(self, micro_scenario):
        """Writers depart distinct users (the events commute) while
        readers route; the end state equals a from-scratch solve."""
        instance = micro_scenario.instance
        service = PlacementService(micro_scenario, engine="sparse")
        server = serve_http(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        errors = []
        answers = []
        groups = [(0, 3), (1, 4), (2, 5)]

        def writer(users):
            try:
                for user in users:
                    post_json(
                        server,
                        "/events",
                        {"events": [{"kind": "user_depart", "user": user}]},
                    )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def reader(offset):
            try:
                for step in range(15):
                    user = (offset + step) % instance.num_users
                    model = (offset * 5 + step) % instance.num_models
                    answer = get_json(server, f"/route?user={user}&model={model}")
                    answers.append((user, model, answer))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        clients = [threading.Thread(target=writer, args=(g,)) for g in groups]
        clients += [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        # Frequent thread switches make an unlocked read-modify-write in
        # the handlers far more likely to interleave.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        try:
            assert not errors, errors
            assert not any(client.is_alive() for client in clients)
            assert len(answers) == 45
            feasible = instance.feasible
            for user, model, answer in answers:
                assert answer["user"] == user and answer["model"] == model
                if answer["hit"]:
                    server_index = answer["server"]
                    assert 0 <= server_index < instance.num_servers
                    assert feasible[server_index, user, model]
                else:
                    assert answer["server"] is None
            events = [
                Event(kind="user_depart", user=user)
                for group in groups
                for user in group
            ]
            final = resolve_from_scratch(
                micro_scenario, events, solver="gen", engine="sparse"
            )[-1]
            payload = get_json(server, "/placement")
            assert payload["hit_ratio"] == final.hit_ratio
            assert payload["servers"] == {
                str(m): final.placement.models_on(m)
                for m in range(instance.num_servers)
            }
            assert get_json(server, "/status")["events_processed"] == 6
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
