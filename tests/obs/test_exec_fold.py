"""Cross-process telemetry fold: envelopes, queue-wait, chaos safety."""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.exec import (
    ChaosPolicy,
    ProcessBackend,
    SerialBackend,
    execute_plan,
)
from repro.exec.retry import RetryPolicy
from repro.obs.runtime import ObsEnvelope, ObsTask
from repro.sim.serialization import result_set_content_json

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_s=0.0,
    backoff_max_s=0.0,
    jitter=0.0,
    degrade_in_process=True,
)


def _instrumented_double(x):
    # Module-level so it survives pickling, like real grid tasks do.
    obs.count("repro_worker_things_total")
    with obs.span("task.work"):
        return x * 2


def make_plan(**overrides):
    kwargs = dict(
        name="obs exec fold",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"),),
        base={"num_servers": 3, "num_users": 8, "num_models": 9},
        num_topologies=2,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestEnvelope:
    def test_wrap_task_is_identity_when_disabled(self):
        def fn(x):
            return x * 2

        assert obs.wrap_task(fn) is fn
        assert obs.absorb(21) == 21

    def test_envelope_roundtrip_folds_metrics_and_spans(self):
        obs.enable(metrics=True, tracing=True)

        wrapped = obs.wrap_task(_instrumented_double)
        assert isinstance(wrapped, ObsTask)
        # Ship it the way every backend does: through pickle.
        wrapped = pickle.loads(pickle.dumps(wrapped))
        envelope = wrapped(21)
        assert isinstance(envelope, ObsEnvelope)
        value = obs.absorb(envelope, submitted_epoch=envelope.started_epoch)
        assert value == 42
        assert obs.registry().counter("repro_worker_things_total").state() == 1
        names = {record[0] for record in obs.tracer().spans}
        assert {"exec.task", "task.work"} <= names
        run_hist = obs.registry().histogram("repro_exec_task_run_seconds")
        assert run_hist.count == 1
        wait_hist = obs.registry().histogram("repro_exec_queue_wait_seconds")
        assert wait_hist.count == 1

    def test_task_exceptions_pass_through_unwrapped(self):
        obs.enable(metrics=True, tracing=True)

        def boom(x):
            raise RuntimeError("kaput")

        wrapped = obs.wrap_task(boom)
        with pytest.raises(RuntimeError, match="kaput"):
            wrapped(1)

    def test_worker_collection_does_not_touch_parent_state(self):
        obs.enable(metrics=True, tracing=True)

        def fn(x):
            obs.count("repro_worker_things_total", 5)
            return x

        envelope = obs.wrap_task(fn)(1)
        # Until absorbed, the worker-side count exists only inside the
        # envelope — the parent registry is untouched.
        assert obs.registry().counter("repro_worker_things_total").state() == 0
        obs.absorb(envelope)
        assert obs.registry().counter("repro_worker_things_total").state() == 5


class TestBackendFold:
    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: SerialBackend(),
            lambda: ProcessBackend(workers=2),
            lambda: ProcessBackend(
                workers=2, retry=FAST_RETRY, heartbeat_interval=0.05
            ),
        ],
        ids=["serial", "process", "process-retry"],
    )
    def test_queue_wait_and_task_spans_fold_in(self, backend_factory):
        obs.enable(metrics=True, tracing=True)
        execute_plan(make_plan(), backend=backend_factory())
        registry = obs.registry()
        tasks = registry.counter("repro_exec_tasks_total").state()
        assert tasks > 0
        assert registry.histogram("repro_exec_task_run_seconds").count == tasks
        assert (
            registry.histogram("repro_exec_queue_wait_seconds").count == tasks
        )
        task_spans = [
            record
            for record in obs.tracer().spans
            if record[0] == "exec.task"
        ]
        assert len(task_spans) == tasks
        # Worker spans ride in under solver phases too.
        names = {record[0] for record in obs.tracer().spans}
        assert "task.solve" in names

    def test_heartbeat_gap_histogram(self):
        obs.enable(metrics=True, tracing=True)
        # A warm run can finish before the first heartbeat fires, so a
        # straggling worker holds the run open past heartbeat_interval.
        execute_plan(
            make_plan(),
            backend=ProcessBackend(
                workers=2,
                heartbeat_interval=0.02,
                chaos=ChaosPolicy(straggle_every=1, straggle_s=0.2),
            ),
        )
        gaps = obs.registry().histogram("repro_exec_heartbeat_gap_seconds")
        assert gaps.count > 0

    def test_killed_workers_cannot_corrupt_the_merged_view(self):
        # A killed worker dies before shipping its envelope; retries make
        # a fresh one. The merged trace must hold exactly one exec.task
        # span per grid task, and content identity must hold.
        obs.disable()
        reference, _ = execute_plan(make_plan(), backend=SerialBackend())
        obs.enable(metrics=True, tracing=True)
        result, report = execute_plan(
            make_plan(),
            backend=ProcessBackend(
                workers=2,
                retry=FAST_RETRY,
                heartbeat_interval=0.05,
                # Worker 0 dies on its first task, which the first
                # dispatch always gives it.
                chaos=ChaosPolicy(kill_after=0),
            ),
        )
        assert report.workers_lost >= 1
        assert result_set_content_json(result) == result_set_content_json(
            reference
        )
        tasks = obs.registry().counter("repro_exec_tasks_total").state()
        task_spans = [
            record
            for record in obs.tracer().spans
            if record[0] == "exec.task"
        ]
        assert len(task_spans) == tasks
        instants = {record[0] for record in obs.tracer().instants}
        assert "exec.worker_lost" in instants
