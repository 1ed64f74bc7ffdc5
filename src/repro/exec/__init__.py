"""Execution & artifact-store subsystem.

The layer between a declarative :class:`~repro.api.plan.ExperimentPlan`
and the solvers: *where* its task grid runs
(:mod:`repro.exec.backends` — serial, or fault-tolerant long-lived
worker processes; bit-identical either way),
*whether it needs to run at all* (:mod:`repro.exec.store` — a
content-addressed cache of full results and per-task partials, keyed on
the canonical serialised plan plus a code-version salt), and *what
happens when the substrate fails* (:mod:`repro.exec.faults` +
:mod:`repro.exec.retry` — a deterministic/transient failure taxonomy,
bounded retries with deterministic backoff jitter, straggler
re-dispatch and graceful in-process degradation, plus a seeded
:class:`ChaosPolicy` fault-injection harness).

Entry points:

* :func:`execute_plan` — run a plan on a backend with optional caching,
  returning ``(ResultSet, ExecutionReport)``;
* ``repro.api.run_plan(plan, backend=..., store=...)`` — the same,
  report-less;
* ``python -m repro sweep --plan plan.json --backend process
  --retries 3 --cache-dir .cache`` — the CLI front end (resumable,
  cache-hitting, crash-surviving).
"""

from repro.exec.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from repro.exec.executor import (
    ExecutionReport,
    SweepTask,
    build_sweep_tasks,
    default_backend,
    execute_plan,
)
from repro.exec.faults import (
    ArtifactChaos,
    ChaosPolicy,
    ExecutionError,
    FaultStats,
    TaskError,
    TaskTimeout,
    WorkerLost,
)
from repro.exec.retry import NO_RETRY, RetryPolicy, default_retry_policy
from repro.exec.store import (
    CODE_VERSION_SALT,
    ArtifactStore,
    canonical_plan_payload,
    plan_cache_key,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
    "ArtifactStore",
    "plan_cache_key",
    "canonical_plan_payload",
    "CODE_VERSION_SALT",
    "execute_plan",
    "ExecutionReport",
    "SweepTask",
    "build_sweep_tasks",
    "default_backend",
    "ExecutionError",
    "TaskError",
    "WorkerLost",
    "TaskTimeout",
    "FaultStats",
    "ChaosPolicy",
    "ArtifactChaos",
    "RetryPolicy",
    "NO_RETRY",
    "default_retry_policy",
]
