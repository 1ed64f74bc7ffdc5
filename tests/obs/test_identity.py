"""The obs identity contract: telemetry never touches a result byte.

Runs the same plan with observability off and fully on (metrics +
tracing) over every backend and asserts the deterministic result
content, the artifact-store hashes and the hit-ratio series are
``==``-identical — the same bar the chaos suite holds fault tolerance
to.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.exec import (
    ArtifactStore,
    LocalClusterBackend,
    ProcessBackend,
    RemoteClusterBackend,
    SerialBackend,
    execute_plan,
    plan_cache_key,
)
from repro.sim.serialization import result_set_content_json


def make_plan(**overrides):
    kwargs = dict(
        name="obs identity",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base={"num_servers": 3, "num_users": 8, "num_models": 9},
        num_topologies=2,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessBackend(workers=2),
    "cluster": lambda: LocalClusterBackend(workers=2),
    "remote": lambda: RemoteClusterBackend(workers=2, heartbeat_interval=0.05),
}


@pytest.fixture(scope="module")
def dark_reference():
    obs.disable()
    result, _ = execute_plan(make_plan(), backend=SerialBackend())
    return result


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_observed_run_is_content_identical(backend, dark_reference):
    obs.enable(metrics=True, tracing=True)
    result, _ = execute_plan(make_plan(), backend=BACKENDS[backend]())
    assert result_set_content_json(result) == result_set_content_json(
        dark_reference
    )
    # The series values themselves — not just the canonical JSON — are
    # == across the obs boundary.
    for algo, series in dark_reference.series.items():
        observed = result.series[algo]
        assert observed.means.tolist() == series.means.tolist()
        assert observed.stds.tolist() == series.stds.tolist()
    # And the run actually collected telemetry (the test is vacuous if
    # instrumentation silently stayed off).
    assert len(obs.tracer()) > 0


def test_obs_does_not_perturb_store_hashes(tmp_path, dark_reference):
    plan = make_plan()
    key_dark = plan_cache_key(plan)
    obs.enable(metrics=True, tracing=True)
    assert plan_cache_key(plan) == key_dark  # cache key ignores obs
    store = ArtifactStore(tmp_path / "observed")
    execute_plan(plan, backend=SerialBackend(), store=store)
    obs.disable()
    # A dark run must *hit* the observed run's cache: same key, and the
    # stored bytes deserialise to the identical content.
    warm, report = execute_plan(plan, backend=SerialBackend(), store=store)
    assert report.cache == "hit"
    assert result_set_content_json(warm) == result_set_content_json(
        dark_reference
    )


def test_metrics_only_and_tracing_only_are_identical_too(dark_reference):
    for metrics, tracing in ((True, False), (False, True)):
        obs.enable(metrics=metrics, tracing=tracing)
        result, _ = execute_plan(make_plan(), backend=SerialBackend())
        assert result_set_content_json(result) == result_set_content_json(
            dark_reference
        )
        obs.disable()


def test_spec_phase_spans_cover_the_solve_and_leave_results_alone():
    plan = make_plan(solvers=(SolverSpec("spec"),))
    dark, _ = execute_plan(plan, backend=SerialBackend())
    obs.enable(metrics=True, tracing=True)
    observed, _ = execute_plan(plan, backend=SerialBackend())
    totals = obs.phase_totals()
    assert result_set_content_json(observed) == result_set_content_json(dark)
    phases = (
        "solve.spec.combinations",
        "solve.spec.context",
        "solve.spec.traverse",
    )
    for name in ("solve.spec",) + phases:
        assert totals[name]["count"] > 0, name
    # The sub-phases nest inside the widened solve span (1 µs of
    # timestamp rounding allowed per span).
    inner = sum(totals[name]["seconds"] for name in phases)
    slack = 1e-6 * sum(totals[name]["count"] for name in phases)
    assert inner <= totals["solve.spec"]["seconds"] + slack
