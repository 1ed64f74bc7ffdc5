"""Tests for the cache-and-backend-aware plan executor.

Pins the subsystem's contract: every backend's series are bit-identical
to the plain ``run_plan`` path, a warm re-run is a pure cache hit with
byte-identical result JSON, and a killed sweep resumes from its
completed tasks to the same numbers an uninterrupted run produces.
"""

import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.exec import (
    ArtifactStore,
    ExecutionReport,
    FaultStats,
    ProcessBackend,
    SerialBackend,
    build_sweep_tasks,
    execute_plan,
    plan_cache_key,
)


def make_plan(**overrides):
    kwargs = dict(
        name="exec test",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base={"num_servers": 3, "num_users": 8, "num_models": 9},
        num_topologies=3,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def assert_same_series(a, b):
    assert list(a.series) == list(b.series)
    for label in a.series:
        assert (a.series[label].means == b.series[label].means).all()
        assert (a.series[label].stds == b.series[label].stds).all()
        assert (a.series[label].counts == b.series[label].counts).all()


class CountingBackend:
    """Serial backend that counts how many tasks actually ran."""

    name = "counting"

    def __init__(self):
        self.ran = 0
        self._inner = SerialBackend()

    def map(self, fn, payloads):
        def _iterate():
            for result in self._inner.map(fn, payloads):
                self.ran += 1
                yield result

        return _iterate()


class KillAfterBackend:
    """Serial backend that dies after ``after`` completed tasks."""

    name = "kill-after"

    def __init__(self, after):
        self.after = after
        self._inner = SerialBackend()

    def map(self, fn, payloads):
        def _iterate():
            for index, result in enumerate(self._inner.map(fn, payloads)):
                if index >= self.after:
                    raise RuntimeError("simulated mid-sweep kill")
                yield result

        return _iterate()


class TestTaskGrid:
    def test_grid_shape_and_order(self):
        plan = make_plan()
        tasks = build_sweep_tasks(plan)
        assert len(tasks) == 2 * 3  # points x topologies
        assert [t.task_id for t in tasks] == [
            "x0-t0", "x0-t1", "x0-t2", "x1-t0", "x1-t1", "x1-t2",
        ]
        assert [t.x_index for t in tasks] == [0, 0, 0, 1, 1, 1]

    def test_seeds_match_the_runner_derivation(self):
        plan = make_plan()
        tasks = build_sweep_tasks(plan)
        for task in tasks:
            expected = hash(
                (plan.seed, task.x_index, task.topology_index)
            ) % (2**31)
            assert task.scenario_seed == expected


class TestBackendEquivalence:
    def test_all_backends_bit_identical_to_plain_run_plan(self):
        plan = make_plan()
        plain = run_plan(plan)
        for backend in (
            SerialBackend(),
            ProcessBackend(workers=2),
        ):
            result, report = execute_plan(plan, backend=backend)
            assert_same_series(plain, result)
            assert report.cache == "off"
            assert report.tasks_run == 6

    def test_run_plan_wrapper_accepts_backend(self):
        plan = make_plan()
        plain = run_plan(plan)
        routed = run_plan(plan, backend=ProcessBackend(workers=2))
        assert_same_series(plain, routed)

    def test_metadata_matches_the_runner_path(self):
        plan = make_plan(workers=2)
        plain = run_plan(plan)
        result, _ = execute_plan(plan, backend=SerialBackend())
        assert result.metadata == plain.metadata


class TestFullResultCache:
    def test_warm_rerun_is_a_pure_hit_with_identical_bytes(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        cold, cold_report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        warm, warm_report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        assert cold_report.cache == "miss"
        assert warm_report.cache == "hit"
        assert warm_report.tasks_run == 0
        assert warm.to_json() == cold.to_json()  # byte-identical

    def test_hits_cross_backends(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        cold, _ = execute_plan(plan, backend=ProcessBackend(2), store=store)
        warm, report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        assert report.cache == "hit"
        assert warm.to_json() == cold.to_json()

    def test_hits_cross_workers(self, tmp_path):
        # workers is excluded from the cache key: same content address.
        store = ArtifactStore(tmp_path)
        execute_plan(make_plan(workers=1), store=store)
        _, report = execute_plan(make_plan(workers=2), store=store)
        assert report.cache == "hit"

    def test_plan_edit_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        execute_plan(make_plan(), store=store)
        _, report = execute_plan(make_plan(seed=1), store=store)
        assert report.cache == "miss"

    def test_partials_cleared_once_the_full_result_lands(self, tmp_path):
        # The full result supersedes per-task partials; a completed run
        # must not leave one dead file per task behind.
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        execute_plan(plan, store=store)
        key = plan_cache_key(plan)
        assert store.has_result(key)
        assert store.completed_tasks(key) == set()

    def test_run_plan_wrapper_accepts_store(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        first = run_plan(plan, store=store)
        second = run_plan(plan, store=store)
        assert second.to_json() == first.to_json()
        assert store.has_result(plan_cache_key(plan))

    def test_comparison_kind_caches_whole_results(self, tmp_path):
        plan = ExperimentPlan(
            name="cmp",
            solvers=(SolverSpec("gen"), SolverSpec("independent")),
            base={"num_servers": 3, "num_users": 8, "num_models": 9},
            num_topologies=2,
        )
        store = ArtifactStore(tmp_path)
        cold, cold_report = execute_plan(plan, store=store)
        warm, warm_report = execute_plan(plan, store=store)
        assert cold_report.cache == "miss"
        assert warm_report.cache == "hit"
        assert warm.to_json() == cold.to_json()


class TestResume:
    def test_killed_sweep_resumes_from_completed_tasks(self, tmp_path):
        plan = make_plan()
        uninterrupted = run_plan(plan)

        store = ArtifactStore(tmp_path)
        key = plan_cache_key(plan)
        killed_after = 4
        with pytest.raises(RuntimeError, match="simulated mid-sweep kill"):
            execute_plan(
                plan, backend=KillAfterBackend(killed_after), store=store
            )
        # The completed prefix survived the kill...
        assert len(store.completed_tasks(key)) == killed_after
        assert not store.has_result(key)

        # ...and the resumed run executes only the remainder.
        counting = CountingBackend()
        resumed, report = execute_plan(plan, backend=counting, store=store)
        assert report.cache == "partial"
        assert report.tasks_cached == killed_after
        assert report.tasks_run == 6 - killed_after
        assert counting.ran == 6 - killed_after
        # Bit-identical to the uninterrupted run: restored scores carry
        # the same bits (JSON floats round-trip exactly) and fold in the
        # same order.
        assert_same_series(uninterrupted, resumed)

    def test_resume_then_rerun_is_a_full_hit(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        with pytest.raises(RuntimeError):
            execute_plan(plan, backend=KillAfterBackend(2), store=store)
        execute_plan(plan, store=store)
        _, report = execute_plan(plan, store=store)
        assert report.cache == "hit"

    def test_report_summary_mentions_cache_state(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        _, miss = execute_plan(plan, store=store)
        _, hit = execute_plan(plan, store=store)
        assert "cache miss" in miss.summary()
        assert "cache hit" in hit.summary()
        nocache = ExecutionReport(backend="serial", cache="off", tasks_run=3)
        assert "cache off" in nocache.summary()


class FaultyStatsBackend:
    """Serial backend that pretends its run survived some faults."""

    name = "faulty"

    def __init__(self, **counters):
        self._counters = counters
        self._inner = SerialBackend()
        self.stats = FaultStats()

    def map(self, fn, payloads):
        self.stats = FaultStats(**self._counters)
        return self._inner.map(fn, payloads)


class TestFaultReporting:
    def test_backend_stats_fold_into_the_report(self):
        backend = FaultyStatsBackend(retries=2, workers_lost=1, degraded=3)
        _, report = execute_plan(make_plan(), backend=backend)
        assert report.retries == 2
        assert report.workers_lost == 1
        assert report.re_dispatched == 0
        assert report.degraded == 3

    def test_summary_prints_fault_counters(self):
        backend = FaultyStatsBackend(retries=2, workers_lost=1)
        _, report = execute_plan(make_plan(), backend=backend)
        summary = report.summary()
        assert "2 retried" in summary
        assert "1 worker(s) lost" in summary
        assert "re-dispatched" not in summary  # zero counters stay out

    def test_clean_run_summary_has_no_fault_tail(self):
        _, report = execute_plan(make_plan(), backend=SerialBackend())
        assert report.retries == 0
        assert "retried" not in report.summary()

    def test_counters_survive_a_mid_sweep_failure(self, tmp_path):
        # Even when the map iteration dies, the report must account the
        # faults the backend recorded up to the failure.
        class DoomedBackend(FaultyStatsBackend):
            def map(self, fn, payloads):
                self.stats = FaultStats(**self._counters)

                def _iterate():
                    raise RuntimeError("substrate imploded")
                    yield  # pragma: no cover

                return _iterate()

        backend = DoomedBackend(workers_lost=4)
        with pytest.raises(RuntimeError, match="substrate imploded"):
            execute_plan(make_plan(), backend=backend)


class TestRetryDeterminism:
    def test_exactly_k_transient_failures_are_invisible(self):
        # Both initial workers are armed to die on their first task
        # receipt (the first dispatch waits for both, so each gets one):
        # exactly K=2 tasks are lost and retried. The result's
        # deterministic content must be byte-identical to serial and
        # the report must record exactly K retries.
        from repro.exec.faults import ChaosPolicy
        from repro.exec.retry import RetryPolicy
        from repro.sim.serialization import result_set_content_json

        plan = make_plan()
        serial_result, _ = execute_plan(plan, backend=SerialBackend())
        backend = ProcessBackend(
            workers=2,
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base_s=0.0,
                backoff_max_s=0.0,
                jitter=0.0,
                degrade_in_process=True,
            ),
            heartbeat_interval=0.05,
            chaos=ChaosPolicy(kill_after=0, kill_limit=2),
        )
        chaotic, report = execute_plan(plan, backend=backend)
        assert report.retries == 2
        assert report.workers_lost == 2
        assert report.degraded == 0
        assert_same_series(serial_result, chaotic)
        assert result_set_content_json(chaotic) == result_set_content_json(
            serial_result
        )
