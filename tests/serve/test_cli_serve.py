"""`python -m repro serve`: the HTTP endpoint as a real subprocess."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def start_server(extra_args, tmp_env_cwd):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=tmp_env_cwd,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("port="):
            port = int(line.strip().split("=", 1)[1])
            break
        if not line and process.poll() is not None:
            break
    if port is None:
        stderr = process.stderr.read() if process.poll() is not None else ""
        process.kill()
        raise AssertionError(f"server never reported its port: {stderr}")
    return process, port


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


SHAPE_ARGS = [
    "--servers", "3", "--users", "12", "--models", "9",
    "--requests-per-user", "4", "--storage-gb", "0.09", "--seed", "3",
]


class TestServeCommand:
    def test_serve_with_shape_flags(self, tmp_path):
        process, port = start_server(SHAPE_ARGS, tmp_path)
        try:
            status = fetch(port, "/status")
            assert status["num_servers"] == 3
            assert status["num_users"] == 12
            reply = post(
                port,
                "/events",
                {"events": [{"kind": "user_depart", "user": 2}]},
            )
            assert reply["processed"] == 1
            assert fetch(port, "/status")["events_processed"] == 1
            route = fetch(port, "/route?user=0&model=0")
            assert set(route) == {"user", "model", "server", "hit"}
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_serve_with_plan_file(self, tmp_path):
        from repro.api import ExperimentPlan, SolverSpec, SweepSpec, plan_to_json

        plan = ExperimentPlan(
            name="serve plan",
            solvers=(SolverSpec("gen"),),
            sweep=SweepSpec("users", (12,)),
            base={
                "num_servers": 3,
                "num_users": 12,
                "num_models": 9,
                "requests_per_user": 4,
                "storage_bytes": 90_000_000,
            },
            seed=3,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_to_json(plan))
        process, port = start_server(["--plan", str(plan_path)], tmp_path)
        try:
            status = fetch(port, "/status")
            assert status["num_users"] == 12
            assert status["num_models"] == 9
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_serve_rejects_bad_plan_path(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--plan", str(tmp_path / "missing.json"),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert result.returncode == 2
        assert "cannot read --plan file" in result.stderr

    def test_flags_path_matches_plan_path(self, tmp_path):
        """Same scenario via flags and via plan → identical hit ratio."""
        process, port = start_server(SHAPE_ARGS, tmp_path)
        try:
            flags_ratio = fetch(port, "/status")["hit_ratio"]
        finally:
            process.terminate()
            process.wait(timeout=10)

        from repro.api import ExperimentPlan, SolverSpec, SweepSpec, plan_to_json
        from repro.utils.units import GB

        plan = ExperimentPlan(
            name="serve plan",
            solvers=(SolverSpec("gen"),),
            sweep=SweepSpec("users", (12,)),
            base={
                "num_servers": 3,
                "num_users": 12,
                "num_models": 9,
                "requests_per_user": 4,
                "storage_bytes": int(0.09 * GB),
            },
            seed=3,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_to_json(plan))
        process, port = start_server(["--plan", str(plan_path)], tmp_path)
        try:
            assert fetch(port, "/status")["hit_ratio"] == flags_ratio
        finally:
            process.terminate()
            process.wait(timeout=10)
