"""The plan executor: task grid × backend × artifact store.

:func:`execute_plan` is the one executor of every plan kind;
:func:`repro.api.run.run_plan` is its report-less wrapper. It expands
the plan's task grid **in the parent** (:func:`build_plan_tasks`): a
sweep has one task per (sweep point, topology), seeded by
:func:`~repro.sim.runner.scenario_seed`; a comparison has one task per
topology and a mobility or replacement study one task per run, seeded
by :func:`~repro.sim.runner.study_seed`. It then maps the grid over an
:class:`~repro.exec.backends.ExecutionBackend` (by default the one
``plan.workers`` implies, see :func:`default_backend`) and folds the
outcomes in grid order. Every backend runs the same task function —
:func:`~repro.sim.runner._run_sweep_slice` for sweeps and comparisons
(a comparison is a one-point sweep),
:func:`~repro.sim.runner._run_mobility_run` or
:func:`~repro.sim.runner._run_replacement_run` for the studies — and the
fold order never depends on the backend, so every backend's series are
bit-identical to :class:`~repro.exec.backends.SerialBackend`'s.

With an :class:`~repro.exec.store.ArtifactStore` attached:

* an unchanged re-run returns the cached full result without running a
  single task (a pure cache hit);
* each task's outcome is persisted the moment the backend yields it, so
  a killed run resumes from its completed tasks — the resumed result
  is identical to an uninterrupted run because restored values fold in
  the same order with the same bits (JSON floats round-trip exactly);
  a partial whose shape does not fit the plan's fold is recomputed;
* the cache key excludes ``workers`` (and the backend), so artifacts are
  shared across execution substrates.

Granularity: one task per (point, topology) or run is what makes
per-task caching and fine-grained resume possible. It costs no library
traffic: :class:`~repro.exec.process.ProcessBackend` workers inherit
every payload at fork and receive only task indices.

A serial run without a store imports neither the process backend nor the
store: :func:`default_backend` and :func:`execute_plan` import them at
the point of use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.plan import ExperimentPlan, resolve_axis
from repro.api.registry import SOLVERS, SolverRegistry
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.utils.stats import SeriesStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.exec.store import ArtifactStore


@dataclass(frozen=True)
class PlanTask:
    """One task of a plan's grid: a (sweep point, topology) pair.

    Comparisons have one point (``x_index`` 0); a study's run ``i`` is
    ``topology_index`` ``i``, as each run draws its own topology.
    ``task_id`` addresses the cached partial; ``scenario_seed`` is fixed
    at grid-build time in the parent. The executable payload is
    materialised lazily, only for tasks the cache cannot serve — so a
    resume never rebuilds a fully-cached point's model library.
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

    The only place that maps ``plan.workers`` to a backend. The process
    backend's module is imported here, on first use, so a serial run
    never loads it.
    """
    if plan.workers > 1:
        from repro.exec.process import ProcessBackend

        return ProcessBackend(workers=plan.workers)
    return SerialBackend()


def build_plan_tasks(plan: ExperimentPlan) -> List[PlanTask]:
    """Expand a plan into its task grid, in fold order.

    Seeds come from :func:`repro.sim.runner.scenario_seed` (sweeps) or
    :func:`repro.sim.runner.study_seed` (every other kind), fixed here
    in the parent, so no backend can perturb them.
    """
    from repro.sim.runner import scenario_seed, study_seed

    if plan.kind == "sweep":
        return [
            PlanTask(
                f"x{x_index}-t{topology_index}",
                x_index,
                topology_index,
                scenario_seed(plan.seed, x_index, topology_index),
            )
            for x_index in range(len(plan.sweep.points))
            for topology_index in range(plan.num_topologies)
        ]
    if plan.kind == "comparison":
        prefix, count = "x0-t", plan.num_topologies
    else:
        prefix, count = "r", plan.study.num_runs
    return [
        PlanTask(f"{prefix}{index}", 0, index, study_seed(plan.seed, index))
        for index in range(count)
    ]


class _PlanGrid:
    """A plan kind's task function, payloads, partial shape and fold.

    Sweep and comparison tasks yield a ``(score, runtime_s)`` pair per
    solver; a study run yields, per label, one value per x (sample time
    or threshold). A point's config and library are built on first use
    only, so a point whose every task is cached never pays the build.
    """

    def __init__(self, plan: ExperimentPlan, registry: SolverRegistry) -> None:
        from repro.sim import runner

        self._plan = plan
        self._registry = registry
        self._base = plan.base_config()
        self._algorithms: Optional[Dict[str, Any]] = None
        self._per_point: Dict[int, Tuple[Any, Any]] = {}
        self.labels = plan.labels(registry)
        self.fn = runner._run_sweep_slice
        if plan.kind == "sweep":
            self.x_label = resolve_axis(plan.sweep.axis).x_label
            self.x_values = list(plan.sweep.points)
        elif plan.kind == "comparison":
            self.x_label, self.x_values = "(fixed setting)", [0.0]
        elif plan.kind == "mobility":
            from repro.sim.mobility_eval import sample_schedule

            self.fn = runner._run_mobility_run
            self.x_label = "time (s)"
            _, self.x_values = sample_schedule(
                plan.study.horizon_s, plan.study.sample_every
            )
        else:
            self.fn = runner._run_replacement_run
            self.x_label = "replace when below"
            self.x_values = list(plan.study.thresholds)
            self.labels = list(runner.REPLACEMENT_METRICS)
        self.paired = self.fn is runner._run_sweep_slice

    def fits(self, outcome: List[Dict[str, Tuple[float, ...]]]) -> bool:
        """Does a cached partial have the shape the fold reads?"""
        width = 2 if self.paired else len(self.x_values)
        return (
            len(outcome) == 1
            and set(outcome[0]) == set(self.labels)
            and all(len(values) == width for values in outcome[0].values())
        )

    def _point(self, x_index: int):
        if x_index not in self._per_point:
            from repro.sim.runner import library_rng_tag, study_seed
            from repro.sim.scenario import build_library
            from repro.utils.rng import RngFactory

            plan = self._plan
            if plan.kind == "sweep":
                config = resolve_axis(plan.sweep.axis).apply(
                    self._base, plan.sweep.points[x_index], plan.scale
                )
                rng = RngFactory(plan.seed).child(library_rng_tag(x_index))
            else:
                # A comparison keeps topology 0's library for every
                # topology: the draw build_scenario makes for topology 0.
                config = self._base
                rng = RngFactory(study_seed(plan.seed, 0)).child("library")
            self._per_point[x_index] = (config, build_library(config, rng))
        return self._per_point[x_index]

    def payload(self, task: PlanTask) -> Tuple:
        """The task function's argument."""
        plan = self._plan
        if plan.kind == "replacement":
            # A fresh solver per threshold.
            solvers = functools.partial(plan.solvers[0].build, self._registry)
        else:
            if self._algorithms is None:
                self._algorithms = plan.algorithms(self._registry)
            solvers = self._algorithms
        if not self.paired:
            run_seed = (plan.seed, task.topology_index)
            return (self._base, task.scenario_seed, run_seed, plan.study, solvers)
        config, library = self._point(task.x_index)
        return (
            config,
            [task.scenario_seed],
            solvers,
            plan.evaluation,
            plan.num_realizations,
            library,
            plan.sample_users,
            plan.sample_strata,
        )

    def fold(self, tasks: Sequence[PlanTask], outcomes: Dict[str, List]):
        """The uniform result, folded in grid order."""
        from repro.api.run import ResultSet
        from repro.sim.runner import sweep_metadata

        plan = self._plan
        series = {label: SeriesStats(self.x_values) for label in self.labels}
        runtimes = {label: SeriesStats(self.x_values) for label in self.labels}
        for task in tasks:
            (values,) = outcomes[task.task_id]
            for label in self.labels:
                if self.paired:
                    score, runtime_s = values[label]
                    series[label].add(task.x_index, score)
                    runtimes[label].add(task.x_index, runtime_s)
                else:
                    series[label].add_run(values[label])
        if plan.kind == "sweep":
            # Workers come from the plan, not the backend: result bytes
            # stay backend-independent.
            metadata = sweep_metadata(
                plan.num_topologies, plan.evaluation, plan.seed, plan.workers
            )
        elif plan.kind == "comparison":
            metadata = {"config": self._base, "num_topologies": plan.num_topologies}
        else:
            metadata = {"config": self._base, "num_runs": plan.study.num_runs}
        return ResultSet(
            name=plan.name,
            x_label=self.x_label,
            x_values=self.x_values,
            series=series,
            runtimes=runtimes if self.paired else {},
            metadata=metadata,
            plan=plan,
        )


def _execute_grid(
    plan: ExperimentPlan,
    registry: SolverRegistry,
    backend: ExecutionBackend,
    store: Optional[ArtifactStore],
    key: Optional[str],
    report: ExecutionReport,
):
    """Run (or resume) a plan's task grid and fold the uniform result."""
    with obs.span("exec.grid_build"):
        tasks = build_plan_tasks(plan)
        grid = _PlanGrid(plan, registry)
    outcomes: Dict[str, List[Dict[str, Tuple[float, ...]]]] = {}
    if store is not None and key is not None:
        with obs.span("exec.cache_probe"):
            for task in tasks:
                cached = store.load_task(key, task.task_id)
                # A partial of the wrong shape (another kind's, or a
                # foreign file) is a miss: recompute rather than crash.
                if cached is not None and grid.fits(cached):
                    outcomes[task.task_id] = cached
    report.tasks_total = len(tasks)
    report.tasks_cached = len(outcomes)
    report.cache = (
        "off"
        if store is None
        else ("partial" if outcomes else "miss")
    )

    pending = [task for task in tasks if task.task_id not in outcomes]
    with obs.span("exec.payload_build"):
        payloads = [grid.payload(task) for task in pending]
    results = backend.map(grid.fn, payloads)
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
    with obs.span("exec.fold"):
        return grid.fold(tasks, outcomes)


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
    if backend is None:
        backend = default_backend(plan)
    report = ExecutionReport(
        backend=backend.name, cache="off" if store is None else "miss"
    )

    key: Optional[str] = None
    if store is not None:
        from repro.exec.store import plan_cache_key

        key = plan_cache_key(plan)
        report.plan_key = key
        cached = store.load_result(key, registry)
        if cached is not None:
            # JSON serialisation keeps only scalar metadata; non-sweep
            # folds also record the base ScenarioConfig, which is
            # derivable from the plan — re-attach it so a warm result is
            # indistinguishable from a cold one to metadata consumers.
            if plan.kind != "sweep" and "config" not in cached.metadata:
                cached.metadata["config"] = plan.base_config()
            report.cache = "hit"
            report.tasks_total = len(build_plan_tasks(plan))
            report.record_phases()
            return cached, report

    result = _execute_grid(plan, registry, backend, store, key, report)
    if store is not None and key is not None:
        store.save_result(key, result)
        # The full result supersedes the per-task partials; dropping
        # them keeps a long-lived cache directory from accumulating one
        # dead file per (point, topology) per completed plan.
        store.clear_tasks(key)
    report.record_phases()
    return result, report
