"""Cache, resume and re-serve a sweep with the `repro.exec` subsystem.

A plan is plain data, so its serialised form is a *content address*: the
:class:`~repro.exec.ArtifactStore` keys every executed result (and every
per-task partial) on a hash of the canonical plan JSON plus a
code-version salt. This example runs one sweep three ways:

1. cold, on the parallel :class:`~repro.exec.ProcessBackend`,
   populating the store;
2. warm, on a *different* backend — a pure cache hit (zero tasks run,
   byte-identical result set), because the cache key excludes how the
   work is executed;
3. killed mid-sweep and resumed — the completed tasks are restored from
   the store and only the remainder executes, to the exact numbers of
   an uninterrupted run.

Run with::

    PYTHONPATH=src python examples/cached_sweep.py
"""

import tempfile

from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.exec import (
    ArtifactStore,
    ProcessBackend,
    SerialBackend,
    execute_plan,
    plan_cache_key,
)


class DieAfter:
    """A backend that crashes after ``after`` tasks (simulated kill)."""

    name = "die-after"

    def __init__(self, after: int) -> None:
        self.after = after

    def map(self, fn, payloads):
        def _iterate():
            for index, payload in enumerate(payloads):
                if index >= self.after:
                    raise RuntimeError("simulated mid-sweep crash")
                yield fn(payload)

        return _iterate()


def main() -> None:
    plan = ExperimentPlan(
        name="Cached sweep — hit ratio vs. capacity",
        sweep=SweepSpec(axis="capacity", points=(0.3, 0.6)),
        solvers=(
            SolverSpec("gen"),
            SolverSpec("independent"),
        ),
        base={
            "library_case": "special",
            "num_servers": 6,
            "num_users": 24,
            "num_models": 30,
            "requests_per_user": 10,
        },
        num_topologies=4,
        seed=0,
        scale=0.2,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        store = ArtifactStore(cache_dir)
        print(f"plan content address: {plan_cache_key(plan)[:16]}…\n")

        # 1. Cold: two worker processes share the 2x4 task grid.
        cold, report = execute_plan(
            plan, backend=ProcessBackend(workers=2), store=store
        )
        print(cold.to_table())
        print(f"cold:  {report.summary()}")

        # 2. Warm, different backend: a pure content-addressed hit.
        warm, report = execute_plan(
            plan, backend=SerialBackend(), store=store
        )
        print(f"warm:  {report.summary()}")
        assert warm.to_json() == cold.to_json(), "hit must be byte-identical"

        # 3. Kill a fresh sweep mid-flight, then resume it.
        resume_store = ArtifactStore(tempfile.mkdtemp(dir=cache_dir))
        try:
            execute_plan(plan, backend=DieAfter(3), store=resume_store)
        except RuntimeError:
            done = len(resume_store.completed_tasks(plan_cache_key(plan)))
            print(f"crash: {done}/8 tasks survived the kill")
        resumed, report = execute_plan(plan, store=resume_store)
        print(f"resume: {report.summary()}")
        assert all(
            (resumed.series[algo].means == cold.series[algo].means).all()
            for algo in cold.series
        ), "resumed series must match the uninterrupted run"
        print("\nresumed sweep matches the uninterrupted run exactly.")


if __name__ == "__main__":
    main()
