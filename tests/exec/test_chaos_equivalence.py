"""The chaos equivalence suite: crashes must not change a single bit.

Runs a real sweep plan on the process backend under seeded fault
schedules — worker kills, dropped connections, retry exhaustion into
degradation — and asserts the deterministic content of the result
(canonical JSON minus measured wall-clock runtimes) is **identical**,
``==`` not approximately, to the serial reference. Also pins that a
chaos run over a shared artifact store leaves resumable, uncorrupted
partials.
"""

import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.exec import (
    ArtifactStore,
    ChaosPolicy,
    ProcessBackend,
    SerialBackend,
    execute_plan,
    plan_cache_key,
)
from repro.exec.retry import RetryPolicy
from repro.sim.serialization import result_set_content_json

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_s=0.0,
    backoff_max_s=0.0,
    jitter=0.0,
    degrade_in_process=True,
)


def make_plan(**overrides):
    kwargs = dict(
        name="chaos equivalence",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base={"num_servers": 3, "num_users": 8, "num_models": 9},
        num_topologies=3,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def process(chaos=None, **kwargs):
    defaults = dict(
        workers=2, retry=FAST_RETRY, heartbeat_interval=0.05, chaos=chaos
    )
    defaults.update(kwargs)
    return ProcessBackend(**defaults)


@pytest.fixture(scope="module")
def serial_reference():
    result, _ = execute_plan(make_plan(), backend=SerialBackend())
    return result_set_content_json(result)


def assert_content_identical(result, serial_reference):
    assert result_set_content_json(result) == serial_reference


class TestContentView:
    def test_runtimes_are_the_only_exclusion(self):
        # Two serial runs of the same plan differ only in measured
        # runtimes; the content view must make them identical while
        # still containing the series and plan provenance.
        a, _ = execute_plan(make_plan(), backend=SerialBackend())
        b, _ = execute_plan(make_plan(), backend=SerialBackend())
        assert a.to_json() != b.to_json()  # wall-clock differs
        assert result_set_content_json(a) == result_set_content_json(b)
        assert '"series"' in result_set_content_json(a)
        assert '"runtimes"' not in result_set_content_json(a)

    def test_accepts_json_text(self):
        result, _ = execute_plan(make_plan(), backend=SerialBackend())
        assert result_set_content_json(
            result.to_json()
        ) == result_set_content_json(result)

    def test_content_differs_when_results_differ(self):
        a, _ = execute_plan(make_plan(), backend=SerialBackend())
        b, _ = execute_plan(make_plan(seed=1), backend=SerialBackend())
        assert result_set_content_json(a) != result_set_content_json(b)


class TestChaosEquivalence:
    def test_failure_free_process_matches_serial(self, serial_reference):
        result, report = execute_plan(make_plan(), backend=process())
        assert_content_identical(result, serial_reference)
        assert report.retries == 0
        assert report.workers_lost == 0

    def test_kill_schedule_matches_serial(self, serial_reference):
        # One worker, so the armed worker always receives a 3rd task.
        result, report = execute_plan(
            make_plan(), backend=process(ChaosPolicy(kill_after=2), workers=1)
        )
        assert_content_identical(result, serial_reference)
        assert report.workers_lost == 1

    def test_immediate_double_kill_matches_serial(self, serial_reference):
        # Both initial workers die on their first task; replacements
        # (unarmed) recompute everything lost.
        result, report = execute_plan(
            make_plan(),
            backend=process(ChaosPolicy(kill_after=0, kill_limit=2)),
        )
        assert_content_identical(result, serial_reference)
        assert report.workers_lost >= 2
        assert report.retries >= 2

    def test_dropped_connections_match_serial(self, serial_reference):
        result, _ = execute_plan(
            make_plan(), backend=process(ChaosPolicy(drop_after=1))
        )
        assert_content_identical(result, serial_reference)

    def test_degraded_run_matches_serial(self, serial_reference):
        # Retry budget of 1 attempt + perpetual kills: the whole grid
        # ends up executing in the parent, and still folds the same bits.
        degrade_now = RetryPolicy(
            max_attempts=1,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            jitter=0.0,
            degrade_in_process=True,
        )
        result, report = execute_plan(
            make_plan(),
            backend=process(
                ChaosPolicy(kill_after=0, kill_limit=99),
                retry=degrade_now,
                max_restarts=1,
            ),
        )
        assert_content_identical(result, serial_reference)
        assert report.degraded == 6

    def test_chaos_run_with_store_is_resumable_and_identical(
        self, tmp_path, serial_reference
    ):
        # A chaos run persisting through the artifact store must leave a
        # cache a later (clean, serial) run hits byte-for-byte.
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        chaotic, report = execute_plan(
            plan,
            backend=process(ChaosPolicy(kill_after=1)),
            store=store,
        )
        assert_content_identical(chaotic, serial_reference)
        assert store.has_result(plan_cache_key(plan))
        warm, warm_report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        assert warm_report.cache == "hit"
        assert warm.to_json() == chaotic.to_json()  # byte-identical
