"""The plan executor: task grid × backend × artifact store.

:func:`execute_plan` is the one executor of every plan kind;
:func:`repro.api.run.run_plan` is its report-less wrapper. For a sweep
plan it expands the (sweep point × topology) task grid **in the
parent** — every task carries its scenario seed
(:func:`~repro.sim.runner.scenario_seed`) and its sweep point's shared
model library — then maps the grid over an
:class:`~repro.exec.backends.ExecutionBackend` (by default the one
``plan.workers`` implies, see :func:`default_backend`) and folds the
outcomes in grid order. Every backend runs the same task function,
:func:`~repro.sim.runner._run_sweep_slice`, and the fold order never
depends on the backend, so every backend's series are bit-identical to
:class:`~repro.exec.backends.SerialBackend`'s.

With an :class:`~repro.exec.store.ArtifactStore` attached:

* an unchanged re-run returns the cached full result without running a
  single task (a pure cache hit);
* each task's outcome is persisted the moment the backend yields it, so
  a killed sweep resumes from its completed tasks — the resumed result
  is identical to an uninterrupted run because restored scores fold in
  the same order with the same bits (JSON floats round-trip exactly);
* the cache key excludes ``workers`` (and the backend), so artifacts are
  shared across execution substrates.

Study kinds (comparison / mobility / replacement) have no task grid;
they execute in-process and participate in full-result caching only.

Granularity: one task per (point, topology) is what makes per-task
caching and fine-grained resume possible. It costs no library traffic:
:class:`~repro.exec.backends.ProcessBackend` workers inherit every
payload at fork and receive only task indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.plan import ExperimentPlan, resolve_axis
from repro.api.registry import SOLVERS, SolverRegistry
from repro.exec.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.exec.store import ArtifactStore, plan_cache_key
from repro.utils.stats import SeriesStats


@dataclass(frozen=True)
class SweepTask:
    """One cell of the sweep grid: a (sweep point, topology) pair.

    ``task_id`` addresses the cached partial; ``scenario_seed`` is fixed
    at grid-build time in the parent. The executable payload (config +
    shared library + solvers) is materialised lazily, only for tasks the
    cache cannot serve — so a resume never rebuilds a fully-cached
    point's model library.
    """

    task_id: str
    x_index: int
    topology_index: int
    scenario_seed: int


@dataclass
class ExecutionReport:
    """How a plan execution was served (for operators, not results).

    Deliberately kept **out** of the :class:`~repro.api.run.ResultSet`:
    cache status and backend choice must not perturb the result bytes,
    or warm re-runs would stop being byte-identical to cold ones.
    """

    backend: str
    cache: str  #: ``"off"`` | ``"hit"`` | ``"partial"`` | ``"miss"``
    plan_key: Optional[str] = None
    tasks_total: int = 0
    tasks_cached: int = 0
    tasks_run: int = 0
    # Fault-layer counters (folded from the backend's FaultStats; all
    # zero on a failure-free run). Results stay bit-identical whatever
    # these say — they describe *how* the run survived, never *what* it
    # computed.
    retries: int = 0
    workers_lost: int = 0
    re_dispatched: int = 0
    degraded: int = 0
    # Per-phase wall-clock breakdown from repro.obs span totals — empty
    # unless tracing was enabled for the run. Like the fault counters,
    # purely descriptive: never part of result bytes or cache keys.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record_phases(self) -> None:
        """Capture the live tracer's span totals (no-op if tracing off)."""
        if obs.tracing_enabled():
            self.phases = obs.phase_totals()

    def phase_breakdown(self) -> str:
        """Multi-line ``name  seconds  count`` table (empty if no phases).

        Durations are summed across processes and threads: a phase that
        ran on N workers in parallel can report up to N× the elapsed
        time — the table says where the work went, not how long the
        wall waited.
        """
        if not self.phases:
            return ""
        width = max(len(name) for name in self.phases)
        rows = [
            f"  {name.ljust(width)}  {entry['seconds']:>10.3f}s"
            f"  ×{int(entry['count'])}"
            for name, entry in sorted(
                self.phases.items(),
                key=lambda item: item[1]["seconds"],
                reverse=True,
            )
        ]
        return "phases (seconds are summed across workers):\n" + "\n".join(
            rows
        )

    def record_faults(self, stats) -> None:
        """Fold a backend's :class:`~repro.exec.faults.FaultStats` in."""
        if stats is None:
            return
        self.retries += stats.retries
        self.workers_lost += stats.workers_lost
        self.re_dispatched += stats.re_dispatched
        self.degraded += stats.degraded

    def _fault_suffix(self) -> str:
        """The ``, N retried, ...`` tail (empty on a failure-free run)."""
        pieces = [
            f"{count} {label}"
            for count, label in (
                (self.retries, "retried"),
                (self.workers_lost, "worker(s) lost"),
                (self.re_dispatched, "re-dispatched"),
                (self.degraded, "degraded in-process"),
            )
            if count
        ]
        return ", " + ", ".join(pieces) if pieces else ""

    def summary(self) -> str:
        """One human line for the CLI footer."""
        faults = self._fault_suffix()
        if self.cache == "off":
            return (
                f"backend {self.backend}: ran {self.tasks_run} task(s), "
                f"cache off{faults}"
            )
        key = (self.plan_key or "")[:12]
        if self.cache == "hit":
            return (
                f"cache hit — plan {key}, 0/{self.tasks_total} tasks run "
                f"(backend {self.backend}){faults}"
            )
        return (
            f"cache {self.cache} — plan {key}, {self.tasks_run}/"
            f"{self.tasks_total} tasks run, {self.tasks_cached} restored "
            f"(backend {self.backend}){faults}"
        )


def default_backend(plan: ExperimentPlan) -> ExecutionBackend:
    """The backend a plan implies on its own: ``workers`` decides.

    The only place that maps ``plan.workers`` to a backend.
    """
    if plan.workers > 1:
        return ProcessBackend(workers=plan.workers)
    return SerialBackend()


def build_sweep_tasks(plan: ExperimentPlan) -> List[SweepTask]:
    """Expand a sweep plan into its per-(point, topology) task grid.

    Seeds come from :func:`repro.sim.runner.scenario_seed`, fixed here
    in the parent, so no backend can perturb them.
    """
    from repro.sim.runner import scenario_seed

    tasks: List[SweepTask] = []
    for x_index in range(len(plan.sweep.points)):
        for topology_index in range(plan.num_topologies):
            tasks.append(
                SweepTask(
                    task_id=f"x{x_index}-t{topology_index}",
                    x_index=x_index,
                    topology_index=topology_index,
                    scenario_seed=scenario_seed(
                        plan.seed, x_index, topology_index
                    ),
                )
            )
    return tasks


class _PayloadBuilder:
    """Materialise executable task payloads, one shared library per point.

    Per-point configs and libraries are built on first use only, each
    library from the plan seed's ``library-x{i}`` RNG child
    (:func:`~repro.sim.runner.library_rng_tag`), and points whose every
    task comes from the cache never pay the library build.
    """

    def __init__(self, plan: ExperimentPlan, registry: SolverRegistry) -> None:
        self._plan = plan
        self._axis = resolve_axis(plan.sweep.axis)
        self._base = plan.base_config()
        self._algorithms = plan.algorithms(registry)
        self._per_point: Dict[int, Tuple[Any, Any]] = {}

    def _point(self, x_index: int):
        if x_index not in self._per_point:
            from repro.sim.runner import library_rng_tag
            from repro.sim.scenario import build_library
            from repro.utils.rng import RngFactory

            plan = self._plan
            config = self._axis.apply(
                self._base, plan.sweep.points[x_index], plan.scale
            )
            factory = RngFactory(plan.seed)
            library = build_library(
                config, factory.child(library_rng_tag(x_index))
            )
            self._per_point[x_index] = (config, library)
        return self._per_point[x_index]

    def payload(self, task: SweepTask) -> Tuple:
        """A :func:`~repro.sim.runner._run_sweep_slice` argument."""
        config, library = self._point(task.x_index)
        plan = self._plan
        return (
            config,
            [task.scenario_seed],
            self._algorithms,
            plan.evaluation,
            plan.num_realizations,
            library,
            plan.feasibility,
            plan.sample_users,
            plan.sample_strata,
        )


def _grid_size(plan: ExperimentPlan) -> int:
    """Task count of a plan (1 for the study kinds — no grid)."""
    if plan.kind == "sweep":
        return len(plan.sweep.points) * plan.num_topologies
    return 1


def _execute_sweep_grid(
    plan: ExperimentPlan,
    registry: SolverRegistry,
    backend: ExecutionBackend,
    store: Optional[ArtifactStore],
    key: Optional[str],
    report: ExecutionReport,
):
    """Run (or resume) a sweep plan's grid and fold the uniform result."""
    from repro.api.run import ResultSet
    from repro.sim.runner import _run_sweep_slice

    with obs.span("exec.grid_build"):
        tasks = build_sweep_tasks(plan)
    outcomes: Dict[str, List[Dict[str, Tuple[float, float]]]] = {}
    if store is not None and key is not None:
        with obs.span("exec.cache_probe"):
            for task in tasks:
                cached = store.load_task(key, task.task_id)
                if cached is not None:
                    outcomes[task.task_id] = cached
    report.tasks_total = len(tasks)
    report.tasks_cached = len(outcomes)
    report.cache = (
        "off"
        if store is None
        else ("partial" if outcomes else "miss")
    )

    pending = [task for task in tasks if task.task_id not in outcomes]
    builder = _PayloadBuilder(plan, registry)
    with obs.span("exec.payload_build"):
        payloads = [builder.payload(task) for task in pending]
    results = backend.map(_run_sweep_slice, payloads)
    # Persist every outcome as soon as the backend yields it: a killed
    # run leaves its completed prefix behind for the next run to resume.
    try:
        with obs.span("exec.run", backend=backend.name):
            for task, outcome in zip(pending, results):
                if store is not None and key is not None:
                    store.save_task(key, task.task_id, outcome)
                outcomes[task.task_id] = outcome
                report.tasks_run += 1
    finally:
        # Whatever happened — success, a typed ExecutionError, a kill —
        # fold the backend's fault counters into the report so partial
        # runs still account their retries and lost workers.
        report.record_faults(getattr(backend, "stats", None))

    # Fold in grid order, whatever order the backend finished in, so
    # the accumulated series are bit-identical for any backend.
    x_values = list(plan.sweep.points)
    algorithms = plan.labels(registry)
    series = {algo: SeriesStats(x_values) for algo in algorithms}
    runtimes = {algo: SeriesStats(x_values) for algo in algorithms}
    with obs.span("exec.fold"):
        for task in tasks:
            for per_algo in outcomes[task.task_id]:
                for algo in algorithms:
                    score, runtime_s = per_algo[algo]
                    series[algo].add(task.x_index, score)
                    runtimes[algo].add(task.x_index, runtime_s)
    axis = resolve_axis(plan.sweep.axis)
    from repro.sim.runner import sweep_metadata

    return ResultSet(
        name=plan.name,
        x_label=axis.x_label,
        x_values=x_values,
        series=series,
        runtimes=runtimes,
        # Workers come from the plan, not the backend: result bytes stay
        # backend-independent.
        metadata=sweep_metadata(
            plan.num_topologies, plan.evaluation, plan.seed, plan.workers
        ),
        plan=plan,
    )


def execute_plan(
    plan: ExperimentPlan,
    registry: SolverRegistry = SOLVERS,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[ArtifactStore] = None,
):
    """Execute a plan on a backend with optional artifact caching.

    Returns ``(result, report)``: the uniform
    :class:`~repro.api.run.ResultSet` plus an :class:`ExecutionReport`
    describing how it was served (cache hit/partial/miss, task counts).
    ``repro.api.run_plan(plan, backend=..., store=...)`` is the
    report-less convenience wrapper.
    """
    from repro.api.run import (
        _run_comparison,
        _run_mobility,
        _run_replacement,
    )

    if backend is None:
        backend = default_backend(plan)
    report = ExecutionReport(
        backend=backend.name, cache="off" if store is None else "miss"
    )

    key: Optional[str] = None
    if store is not None:
        key = plan_cache_key(plan)
        report.plan_key = key
        cached = store.load_result(key, registry)
        if cached is not None:
            # JSON serialisation keeps only scalar metadata; the study
            # executors also record the base ScenarioConfig, which is
            # derivable from the plan — re-attach it so a warm result is
            # indistinguishable from a cold one to metadata consumers.
            if plan.kind != "sweep" and "config" not in cached.metadata:
                cached.metadata["config"] = plan.base_config()
            report.cache = "hit"
            report.tasks_total = _grid_size(plan)
            report.record_phases()
            return cached, report

    if plan.kind == "sweep":
        result = _execute_sweep_grid(
            plan, registry, backend, store, key, report
        )
    else:
        # Study kinds have no task grid: run in-process and cache whole
        # results.
        # The report says so rather than naming a backend that never ran.
        report.backend = "in-process"
        report.tasks_total = 1
        report.tasks_run = 1
        if plan.kind == "mobility":
            result = _run_mobility(plan, registry)
        elif plan.kind == "replacement":
            result = _run_replacement(plan, registry)
        else:
            result = _run_comparison(plan, registry)

    if store is not None and key is not None:
        store.save_result(key, result)
        # The full result supersedes the per-task partials; dropping
        # them keeps a long-lived cache directory from accumulating one
        # dead file per (point, topology) per completed plan.
        store.clear_tasks(key)
    report.record_phases()
    return result, report
