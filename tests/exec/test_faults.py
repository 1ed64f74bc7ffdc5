"""Tests for the failure taxonomy and the deterministic chaos harness."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.exec.faults import (
    ChaosPolicy,
    ExecutionError,
    FaultStats,
    TaskError,
    TaskTimeout,
    WorkerLost,
)
from tests.exec.artifact_chaos import ArtifactChaos


class TestTaxonomy:
    def test_transience_flags(self):
        # TaskError is deterministic (the task itself raised); the rest
        # are substrate failures and therefore retryable.
        assert not TaskError("x").transient
        assert WorkerLost("x").transient
        assert TaskTimeout("x").transient

    def test_hierarchy(self):
        # A timeout is a species of lost worker; everything is a typed
        # ExecutionError and a ReproError (one except catches the layer).
        assert issubclass(TaskTimeout, WorkerLost)
        assert issubclass(WorkerLost, ExecutionError)
        assert issubclass(TaskError, ExecutionError)
        assert issubclass(ExecutionError, ReproError)
        assert issubclass(ExecutionError, RuntimeError)

    def test_message_names_the_task_index(self):
        error = WorkerLost("worker pool broke", task_index=7)
        assert error.task_index == 7
        assert "task index 7" in str(error)


class TestFaultStats:
    def test_defaults_are_clean(self):
        stats = FaultStats()
        assert not stats.any()
        assert dataclasses.asdict(stats) == {
            "retries": 0,
            "workers_lost": 0,
            "re_dispatched": 0,
            "degraded": 0,
        }

    def test_merge_accumulates(self):
        stats = FaultStats(retries=1, workers_lost=2)
        stats.merge(FaultStats(retries=3, re_dispatched=1, degraded=4))
        assert stats.retries == 4
        assert stats.workers_lost == 2
        assert stats.re_dispatched == 1
        assert stats.degraded == 4
        assert stats.any()


class TestChaosPolicy:
    def test_parse_kill_worker(self):
        chaos = ChaosPolicy.parse("kill-worker:2")
        assert chaos.kill_after == 2
        assert chaos.kill_limit == 1

    def test_parse_kill_worker_with_limit(self):
        chaos = ChaosPolicy.parse("kill-worker:2x3")
        assert chaos.kill_after == 2
        assert chaos.kill_limit == 3

    def test_parse_compound_spec(self):
        chaos = ChaosPolicy.parse(
            "kill-worker:1,drop-conn:2,heartbeat-delay:0.5,"
            "straggle:3x0.25,seed:7"
        )
        assert chaos.kill_after == 1
        assert chaos.drop_after == 2
        assert chaos.heartbeat_delay_s == 0.5
        assert chaos.straggle_every == 3
        assert chaos.straggle_s == 0.25
        assert chaos.seed == 7

    def test_parse_rejects_unknown_facet(self):
        with pytest.raises(ConfigurationError, match="unknown chaos facet"):
            ChaosPolicy.parse("explode:1")

    def test_parse_rejects_garbage_values(self):
        with pytest.raises(ConfigurationError, match="invalid chaos facet"):
            ChaosPolicy.parse("kill-worker:soon")

    def test_parse_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="empty chaos spec"):
            ChaosPolicy.parse("  ,  ")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_after=-1)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(straggle_every=0)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(heartbeat_delay_s=-0.1)

    def test_arming_is_bounded_by_worker_id(self):
        # Ids below the facet limit are armed; replacement workers
        # (fresh, higher ids) never are — chaos always converges.
        chaos = ChaosPolicy(kill_after=2, kill_limit=2, drop_after=5)
        assert chaos.armed_for(0).kill_after == 2
        assert chaos.armed_for(1).kill_after == 2
        assert chaos.armed_for(2).kill_after is None
        assert chaos.armed_for(0).drop_after == 5
        assert chaos.armed_for(1).drop_after is None

    def test_straggle_schedule_is_deterministic(self):
        chaos = ChaosPolicy(straggle_every=3, straggle_s=0.5, seed=1)
        schedule = [chaos.straggles(i) for i in range(6)]
        assert schedule == [
            chaos.straggles(i) for i in range(6)
        ]  # stable
        assert schedule == [False, False, True, False, False, True]

    def test_no_straggle_without_duration(self):
        chaos = ChaosPolicy(straggle_every=2, straggle_s=0.0)
        assert not any(chaos.straggles(i) for i in range(10))


class TestArtifactChaos:
    def test_truncate_is_seeded(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x" * 1000)
        b.write_bytes(b"x" * 1000)
        kept_a = ArtifactChaos(seed=3).truncate(a)
        kept_b = ArtifactChaos(seed=3).truncate(b)
        assert kept_a == kept_b  # same seed, same cut
        assert 0 <= kept_a < 1000

    def test_corrupt_changes_bytes_in_place(self, tmp_path):
        path = tmp_path / "f"
        pristine = b"y" * 500
        path.write_bytes(pristine)
        ArtifactChaos(seed=0).corrupt(path)
        mangled = path.read_bytes()
        assert len(mangled) == 500
        assert mangled != pristine

    def test_zero_leaves_an_empty_husk(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"z" * 100)
        ArtifactChaos().zero(path)
        assert path.read_bytes() == b""
