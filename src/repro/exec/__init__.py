"""Execution & artifact-store subsystem.

The layer between a declarative :class:`~repro.api.plan.ExperimentPlan`
and the solvers: *where* its task grid runs
(:mod:`repro.exec.backends` — serial, or fault-tolerant long-lived
worker processes in :mod:`repro.exec.process`; bit-identical either
way),
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

Every public name resolves on first access (a PEP 562 module
``__getattr__``), so a serial run without a store imports only
:mod:`repro.exec.backends` and :mod:`repro.exec.executor`: never
:mod:`repro.exec.process` (with :mod:`multiprocessing` and
:mod:`socket`), the fault layer or the artifact store.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BACKEND_NAMES": "backends",
    "ExecutionBackend": "backends",
    "SerialBackend": "backends",
    "ProcessBackend": "process",
    "make_backend": "backends",
    "ArtifactStore": "store",
    "plan_cache_key": "store",
    "canonical_plan_payload": "store",
    "CODE_VERSION_SALT": "store",
    "execute_plan": "executor",
    "ExecutionReport": "executor",
    "PlanTask": "executor",
    "build_plan_tasks": "executor",
    "default_backend": "executor",
    "ExecutionError": "faults",
    "TaskError": "faults",
    "WorkerLost": "faults",
    "TaskTimeout": "faults",
    "FaultStats": "faults",
    "ChaosPolicy": "faults",
    "ArtifactChaos": "faults",
    "RetryPolicy": "retry",
    "NO_RETRY": "retry",
    "default_retry_policy": "retry",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
