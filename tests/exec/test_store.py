"""Tests for the content-addressed artifact store.

Covers the satellite checklist explicitly: cache-key sensitivity (a plan
edit misses, reorder-invariant fields hit), concurrent-writer safety of
the atomic writes, and corrupt-entry resilience.
"""

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.errors import ConfigurationError
from repro.exec.store import (
    CODE_VERSION_SALT,
    ArtifactStore,
    canonical_plan_payload,
    plan_cache_key,
)


def make_plan(**overrides):
    kwargs = dict(
        name="key test",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base={"num_servers": 2, "num_users": 4, "num_models": 6},
        num_topologies=2,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestPlanCacheKey:
    def test_deterministic(self):
        assert plan_cache_key(make_plan()) == plan_cache_key(make_plan())

    def test_folds_the_pinned_seed_fingerprint(self):
        """The key covers ``scenario_seed(0, 0, 0)`` and
        ``study_seed(0, 0)``, whose values tests/sim/test_seeds.py pins."""
        plan = make_plan()
        canonical = json.dumps(
            canonical_plan_payload(plan), sort_keys=True, separators=(",", ":")
        )
        text = f"{CODE_VERSION_SALT}\n360982090,397586535\n{canonical}"
        assert plan_cache_key(plan) == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("name", ["scenario_seed", "study_seed"])
    def test_other_seed_derivation_misses(self, monkeypatch, name):
        """An interpreter whose tuple hash differs draws other scenarios:
        its key must differ too."""
        import repro.sim.runner as runner

        base_key = plan_cache_key(make_plan())
        monkeypatch.setattr(runner, name, lambda *args: 12345)
        assert plan_cache_key(make_plan()) != base_key

    def test_is_sha256_hex(self):
        key = plan_cache_key(make_plan())
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_any_plan_edit_misses(self):
        base_key = plan_cache_key(make_plan())
        edits = [
            make_plan(sweep=SweepSpec("capacity", (0.1, 0.3))),
            make_plan(sweep=SweepSpec("users", (4.0, 8.0))),
            make_plan(seed=1),
            make_plan(num_topologies=3),
            make_plan(name="other name"),
            make_plan(solvers=(SolverSpec("gen"),)),
            make_plan(base={"num_servers": 3, "num_users": 4, "num_models": 6}),
            make_plan(evaluation="monte_carlo"),
        ]
        keys = {plan_cache_key(plan) for plan in edits}
        assert base_key not in keys
        assert len(keys) == len(edits)  # all edits are distinct addresses

    def test_solver_config_edit_misses(self):
        from repro.core import GenConfig

        sparse = make_plan(
            solvers=(
                SolverSpec("gen", config=GenConfig(engine="sparse")),
                SolverSpec("independent"),
            )
        )
        assert plan_cache_key(sparse) != plan_cache_key(make_plan())

    def test_base_dict_insertion_order_invariant(self):
        # Reorder-invariant fields -> hit: dict key order is not content.
        a = make_plan(base={"num_servers": 2, "num_users": 4, "num_models": 6})
        b = make_plan(base={"num_models": 6, "num_servers": 2, "num_users": 4})
        assert plan_cache_key(a) == plan_cache_key(b)

    def test_workers_is_not_content(self):
        # workers only moves tasks between processes (bit-identical
        # results), so it must share one cache address.
        assert plan_cache_key(make_plan(workers=1)) == plan_cache_key(
            make_plan(workers=4)
        )
        assert "workers" not in canonical_plan_payload(make_plan())

    def test_solver_config_workers_is_not_content(self):
        # Per-solver fan-out knobs (SpecConfig.workers is byte-identical
        # across widths) are execution placement, not content...
        from repro.core import SpecConfig

        def spec_plan(workers):
            return make_plan(
                solvers=(
                    SolverSpec("spec", config=SpecConfig(workers=workers)),
                )
            )

        assert plan_cache_key(spec_plan(1)) == plan_cache_key(spec_plan(4))

    def test_solver_config_other_fields_are_content(self):
        # ...but every other config knob is (epsilon changes results).
        from repro.core import SpecConfig

        a = make_plan(
            solvers=(SolverSpec("spec", config=SpecConfig(epsilon=0.1)),)
        )
        b = make_plan(
            solvers=(SolverSpec("spec", config=SpecConfig(epsilon=0.2)),)
        )
        assert plan_cache_key(a) != plan_cache_key(b)

    def test_solver_order_is_content(self):
        # Solver order changes series order in the result -> new address.
        reordered = make_plan(
            solvers=(SolverSpec("independent"), SolverSpec("gen"))
        )
        assert plan_cache_key(reordered) != plan_cache_key(make_plan())

    def test_salt_is_part_of_the_address(self):
        assert CODE_VERSION_SALT  # non-empty: stale-result protection


class TestTaskArtifacts:
    @pytest.mark.parametrize(
        "outcomes",
        [
            # A sweep task's (score, runtime_s) per solver...
            [{"Gen": (0.1 + 0.2, 1.5e-3), "Independent": (2.0 / 3.0, 0.25)}],
            # ...and a study run's one value per x.
            [{"Gen": (0.5, 0.25, 1.0 / 3.0), "Spec": (0.1,)}],
        ],
    )
    def test_round_trip_exact_floats(self, tmp_path, outcomes):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        store.save_task(key, "x0-t0", outcomes)
        restored = store.load_task(key, "x0-t0")
        # Bit-exact: JSON floats round-trip via repr.
        assert restored == outcomes

    def test_reads_pair_partials_in_the_original_layout(self, tmp_path):
        # Sweep partials already on disk keep resuming.
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        path = store.task_path(key, "x0-t0")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "format": "trimcaching-task-v1",
                    "task_id": "x0-t0",
                    "outcomes": [{"Gen": [0.5, 0.001]}],
                }
            )
        )
        assert store.load_task(key, "x0-t0") == [{"Gen": (0.5, 0.001)}]

    def test_missing_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        assert store.load_task(key, "x0-t0") is None
        assert store.load_result(key) is None
        assert store.completed_tasks(key) == set()

    def test_corrupt_task_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        path = store.task_path(key, "x0-t0")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn write")
        assert store.load_task(key, "x0-t0") is None
        path.write_text(json.dumps({"format": "something-else"}))
        assert store.load_task(key, "x0-t0") is None

    def test_corrupt_result_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        path = store.result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all")
        assert store.load_result(key) is None

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",  # parseable but not even a dict
            json.dumps({"format": "trimcaching-result-set-v1"}),  # no body
            json.dumps({"format": "trimcaching-result-set-v1",
                        "experiment": {"format": "trimcaching-experiment-v1"}}),
        ],
    )
    def test_foreign_but_parseable_result_is_a_miss(self, tmp_path, payload):
        # Valid JSON that is not a result set must degrade to a miss,
        # never crash the sweep.
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        path = store.result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
        assert store.load_result(key) is None

    def test_completed_tasks_listing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        for task_id in ("x0-t0", "x0-t1", "x1-t0"):
            store.save_task(key, task_id, [{"Gen": (0.5, 0.1)}])
        assert store.completed_tasks(key) == {"x0-t0", "x0-t1", "x1-t0"}
        store.clear_tasks(key)
        assert store.completed_tasks(key) == set()

    def test_malformed_addresses_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.plan_dir("../escape")
        with pytest.raises(ConfigurationError):
            store.task_path("ab12", "../../etc/passwd")
        with pytest.raises(ConfigurationError):
            store.task_path("ab12", ".hidden")


class TestConcurrentWriters:
    def test_many_writers_one_task_never_torn(self, tmp_path):
        """Hammer one task path from many threads; every read parses."""
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        rounds = 60

        def write(i):
            store.save_task(key, "x0-t0", [{"Gen": (i / rounds, float(i))}])
            return store.load_task(key, "x0-t0")

        with ThreadPoolExecutor(max_workers=8) as pool:
            reads = list(pool.map(write, range(rounds)))
        # Every interleaved read saw a complete payload (never None/torn),
        # and the final state is one of the writes.
        assert all(read is not None for read in reads)
        final = store.load_task(key, "x0-t0")
        assert final[0]["Gen"][1] in {float(i) for i in range(rounds)}

    def test_concurrent_distinct_tasks(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())

        def write(i):
            store.save_task(key, f"x0-t{i}", [{"Gen": (0.5, float(i))}])

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(40)))
        assert store.completed_tasks(key) == {f"x0-t{i}" for i in range(40)}
        for i in range(40):
            assert store.load_task(key, f"x0-t{i}") == [{"Gen": (0.5, float(i))}]

    def test_no_temp_litter_after_writes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = plan_cache_key(make_plan())
        for i in range(10):
            store.save_task(key, "x0-t0", [{"Gen": (0.1, float(i))}])
        leftovers = list((store.plan_dir(key) / "tasks").glob("*.tmp"))
        assert leftovers == []
