"""Crash-consistency fuzz for the artifact store.

The store's contract under disk carnage: a truncated, corrupted or
zero-byte artifact — full result or per-task partial — reads back as a
cache **miss** (``None``), never as an exception and never as wrong
data silently accepted. And a sweep killed between ``save_task`` calls,
even with its newest partial torn, resumes to a result bit-identical
to an uninterrupted run.
"""

import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.exec import (
    ArtifactStore,
    execute_plan,
    plan_cache_key,
)
from repro.exec.backends import SerialBackend
from tests.exec.artifact_chaos import ArtifactChaos


def make_plan(**overrides):
    kwargs = dict(
        name="store crash",
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


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One executed plan with its cached artifacts, built once."""
    root = tmp_path_factory.mktemp("pristine-store")
    plan = make_plan()
    store = ArtifactStore(root)
    execute_plan(plan, backend=SerialBackend(), store=store)
    key = plan_cache_key(plan)
    # Rebuild some per-task partials too (the completed run cleared
    # them): kill a fresh store mid-sweep so real partial files exist.
    partial_root = tmp_path_factory.mktemp("pristine-partials")
    partial_store = ArtifactStore(partial_root)
    with pytest.raises(RuntimeError):
        execute_plan(plan, backend=KillAfterBackend(4), store=partial_store)
    return plan, store, key, partial_store


class TestFullResultFuzz:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["truncate", "corrupt", "zero"])
    def test_damaged_result_degrades_to_a_miss(self, pristine, mode, seed):
        plan, store, key, _ = pristine
        path = store.result_path(key)
        original = path.read_bytes()
        try:
            getattr(ArtifactChaos(seed=seed), mode)(path)
            damaged = path.read_bytes()
            loaded = store.load_result(key)
            if damaged == original:
                # A seeded truncate can keep ~the whole file; only an
                # actually-damaged file must read back as a miss.
                assert loaded is not None
            else:
                assert loaded is None
        finally:
            path.write_bytes(original)

    def test_pristine_still_loads_after_the_fuzz(self, pristine):
        plan, store, key, _ = pristine
        assert store.load_result(key) is not None


class TestTaskPartialFuzz:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["truncate", "corrupt", "zero"])
    def test_damaged_partial_degrades_to_a_miss(self, pristine, mode, seed):
        plan, _, key, partial_store = pristine
        task_id = sorted(partial_store.completed_tasks(key))[0]
        path = partial_store.task_path(key, task_id)
        original = path.read_bytes()
        try:
            getattr(ArtifactChaos(seed=seed), mode)(path)
            damaged = path.read_bytes()
            loaded = partial_store.load_task(key, task_id)
            if damaged == original:
                assert loaded is not None
            else:
                assert loaded is None
        finally:
            path.write_bytes(original)

    def test_foreign_payload_is_a_miss(self, pristine, tmp_path):
        plan, _, key, partial_store = pristine
        task_id = sorted(partial_store.completed_tasks(key))[0]
        path = partial_store.task_path(key, task_id)
        original = path.read_bytes()
        try:
            path.write_text('{"format": "something-else", "outcomes": []}')
            assert partial_store.load_task(key, task_id) is None
            path.write_text("[1, 2, 3]")
            assert partial_store.load_task(key, task_id) is None
        finally:
            path.write_bytes(original)


class TestKilledSweepWithTornPartial:
    def test_resume_after_kill_and_torn_file_is_bit_identical(
        self, tmp_path
    ):
        # Kill the sweep after 4 of 6 tasks, then tear the newest
        # partial mid-write: the resume treats it as never-written,
        # recomputes it, and folds the exact bits of a clean run.
        plan = make_plan()
        uninterrupted = run_plan(plan)
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(plan)
        with pytest.raises(RuntimeError, match="simulated mid-sweep kill"):
            execute_plan(plan, backend=KillAfterBackend(4), store=store)
        completed = sorted(store.completed_tasks(key))
        assert len(completed) == 4
        torn = store.task_path(key, completed[-1])
        torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

        resumed, report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        assert report.cache == "partial"
        assert report.tasks_cached == 3  # the torn one didn't count
        assert report.tasks_run == 3
        assert_same_series(uninterrupted, resumed)

    def test_zero_byte_result_does_not_block_recomputation(self, tmp_path):
        plan = make_plan()
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(plan)
        cold, _ = execute_plan(plan, backend=SerialBackend(), store=store)
        ArtifactChaos().zero(store.result_path(key))
        again, report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        assert report.cache == "miss"
        assert_same_series(cold, again)
