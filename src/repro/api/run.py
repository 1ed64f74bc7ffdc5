"""The uniform plan result type, the study-kind executors and run_plan.

:func:`run_plan` turns any :class:`~repro.api.plan.ExperimentPlan` into
a :class:`ResultSet` through :func:`repro.exec.execute_plan`, the one
executor: sweeps run as (point, topology) task grids on a backend, and
the study kinds run in-process via the executors below. Whatever the
plan kind, the ResultSet is the same shape — x values plus one named
series per solver/metric — with table, chart, CSV and JSON round-trip,
and views onto the per-kind result types (:meth:`ResultSet.comparison`,
:meth:`ResultSet.mobility`, :meth:`ResultSet.replacement`).

Reproducibility contract: sweeps seed each grid cell with
:func:`~repro.sim.runner.scenario_seed`, every other kind seeds each
topology or run with :func:`~repro.sim.runner.study_seed`, and the
results of every paper figure and ablation plan are pinned to committed
values in ``tests/golden/figure_content.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.api.plan import ExperimentPlan, MobilitySpec, ReplacementSpec
from repro.api.registry import SOLVERS, SolverRegistry
from repro.sim.runner import (
    AlgorithmComparison,
    ExperimentResult,
    Fig7Result,
    ReplacementAblation,
    study_seed,
)
from repro.utils.stats import RunningStats, SeriesStats


@dataclass
class ResultSet(ExperimentResult):
    """A uniform executed-plan result (is-a ``ExperimentResult``).

    ``series`` maps label -> :class:`~repro.utils.stats.SeriesStats`
    over ``x_values``; what the axis means depends on ``plan.kind``
    (sweep points, a single comparison point, mobility sample times or
    replacement thresholds).
    """

    plan: Optional[ExperimentPlan] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_experiment(
        cls, result: ExperimentResult, plan: Optional[ExperimentPlan] = None
    ) -> "ResultSet":
        """Wrap a plain :class:`ExperimentResult` (shares its series)."""
        return cls(
            name=result.name,
            x_label=result.x_label,
            x_values=result.x_values,
            series=result.series,
            runtimes=result.runtimes,
            metadata=result.metadata,
            plan=plan,
        )

    @property
    def kind(self) -> str:
        """The executed plan's kind (``"sweep"`` when plan-less)."""
        return self.plan.kind if self.plan is not None else "sweep"

    # -- per-kind result views -----------------------------------------
    def comparison(self) -> AlgorithmComparison:
        """View a single-point result as an :class:`AlgorithmComparison`."""
        if len(self.x_values) != 1:
            raise ValueError(
                "comparison() requires a single-point result, got "
                f"{len(self.x_values)} points"
            )
        return AlgorithmComparison(
            name=self.name,
            hit_ratios={
                label: stats.stat_at(0) for label, stats in self.series.items()
            },
            runtimes={
                label: stats.stat_at(0)
                for label, stats in self.runtimes.items()
            },
            metadata=self.metadata,
        )

    def mobility(self) -> Fig7Result:
        """View a mobility-study result as a :class:`Fig7Result`."""
        if self.kind != "mobility":
            raise ValueError(f"not a mobility result (kind={self.kind!r})")
        return Fig7Result(
            times_s=np.asarray(self.x_values, dtype=float), series=self.series
        )

    def replacement(self) -> ReplacementAblation:
        """View a replacement-study result as a :class:`ReplacementAblation`."""
        if self.kind != "replacement":
            raise ValueError(f"not a replacement result (kind={self.kind!r})")
        thresholds = list(self.x_values)
        per_metric = {
            label: {
                threshold: stats.stat_at(index)
                for index, threshold in enumerate(thresholds)
            }
            for label, stats in self.series.items()
        }
        return ReplacementAblation(
            thresholds=thresholds,
            mean_hit=per_metric["time-avg hit ratio"],
            replacements=per_metric["replacements"],
            bytes_shipped=per_metric["backbone traffic (bytes)"],
        )

    # -- rendering ------------------------------------------------------
    def to_table(self, float_format: str = ".4f") -> str:
        """Paper-style table; non-sweep kinds render through their views."""
        if self.kind == "comparison":
            return self.comparison().to_table()
        if self.kind == "mobility":
            return self.mobility().to_table()
        if self.kind == "replacement":
            return self.replacement().to_table()
        return super().to_table(float_format=float_format)

    def to_chart(self, width: int = 60, height: int = 15) -> str:
        """ASCII line chart of the mean series."""
        from repro.utils.charts import ascii_chart

        return ascii_chart(
            [float(x) for x in self.x_values],
            {
                label: self.series[label].means.tolist()
                for label in self.series
            },
            width=width,
            height=height,
            title=self.name,
        )

    def to_csv(self) -> str:
        """CSV export (one row per x value)."""
        from repro.sim.serialization import experiment_to_csv

        return experiment_to_csv(self)

    def to_json(self) -> str:
        """JSON export, including the plan for provenance."""
        from repro.sim.serialization import result_set_to_json

        return result_set_to_json(self)

    @classmethod
    def from_json(
        cls, text: str, registry: SolverRegistry = SOLVERS
    ) -> "ResultSet":
        """Rebuild a ResultSet from :meth:`to_json` output."""
        from repro.sim.serialization import result_set_from_json

        return result_set_from_json(text, registry)


# ----------------------------------------------------------------------
# In-process executors of the study kinds (sweeps run as task grids in
# repro.exec.executor)
# ----------------------------------------------------------------------
def _run_comparison(
    plan: ExperimentPlan, registry: SolverRegistry
) -> ResultSet:
    # The library is chained from the first scenario: fixed across
    # topologies, only the topology draw varies.
    from repro.sim.scenario import build_scenario

    config = plan.base_config()
    algorithms = plan.algorithms(registry)
    hit_ratios = {label: RunningStats() for label in algorithms}
    runtimes = {label: RunningStats() for label in algorithms}
    library = None
    for topology_index in range(plan.num_topologies):
        scenario = build_scenario(
            config,
            study_seed(plan.seed, topology_index),
            library=library,
        )
        library = scenario.library  # fixed across topologies
        for label, solver in algorithms.items():
            result = solver.solve(scenario.instance)
            hit_ratios[label].add(result.hit_ratio)
            runtimes[label].add(result.runtime_s)
    return ResultSet(
        name=plan.name,
        x_label="(fixed setting)",
        x_values=[0.0],
        series={
            label: SeriesStats([0.0], [stats])
            for label, stats in hit_ratios.items()
        },
        runtimes={
            label: SeriesStats([0.0], [stats])
            for label, stats in runtimes.items()
        },
        metadata={"config": config, "num_topologies": plan.num_topologies},
        plan=plan,
    )


def _run_mobility(plan: ExperimentPlan, registry: SolverRegistry) -> ResultSet:
    from repro.sim.mobility_eval import MobilityStudy
    from repro.sim.scenario import build_scenario

    spec: MobilitySpec = plan.study
    config = plan.base_config()
    algorithms = plan.algorithms(registry)
    times: Optional[np.ndarray] = None
    series: Dict[str, SeriesStats] = {}
    for run_index in range(spec.num_runs):
        scenario = build_scenario(config, study_seed(plan.seed, run_index))
        # One study per run: every solver walks the same snapshots.
        study = MobilityStudy(scenario, sample_every=spec.sample_every)
        for label, solver in algorithms.items():
            result = solver.solve(scenario.instance)
            trace = study.run(
                result.placement,
                horizon_s=spec.horizon_s,
                seed=(plan.seed, run_index),
            )
            if times is None:
                times = trace.times_s
            if label not in series:
                series[label] = SeriesStats(times.tolist())
            series[label].add_run(trace.hit_ratios.tolist())
    assert times is not None
    return ResultSet(
        name=plan.name,
        x_label="time (s)",
        x_values=times.tolist(),
        series=series,
        runtimes={},
        metadata={"config": config, "num_runs": spec.num_runs},
        plan=plan,
    )


def _run_replacement(
    plan: ExperimentPlan, registry: SolverRegistry
) -> ResultSet:
    # The plan's first (only) solver is the re-placement solver.
    from repro.sim.mobility_eval import MobilityStudy
    from repro.sim.replacement import ReplacementPolicy
    from repro.sim.scenario import build_scenario

    spec: ReplacementSpec = plan.study
    if len(plan.solvers) != 1:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            "a replacement plan evaluates exactly one re-placement solver; "
            f"got {len(plan.solvers)} (sweep thresholds, not solvers)"
        )
    config = plan.base_config()
    solver_spec = plan.solvers[0]
    thresholds = list(spec.thresholds)
    mean_hit = {t: RunningStats() for t in thresholds}
    replacements = {t: RunningStats() for t in thresholds}
    bytes_shipped = {t: RunningStats() for t in thresholds}
    for run_index in range(spec.num_runs):
        scenario = build_scenario(config, study_seed(plan.seed, run_index))
        # One study per run: every threshold walks the same snapshots.
        study = MobilityStudy(scenario, sample_every=spec.check_every)
        for threshold in thresholds:
            policy = ReplacementPolicy(
                study, solver_spec.build(registry), threshold=threshold
            )
            trace = policy.run(
                horizon_s=spec.horizon_s, seed=(plan.seed, run_index)
            )
            mean_hit[threshold].add(trace.mean_hit_ratio)
            replacements[threshold].add(trace.num_replacements)
            bytes_shipped[threshold].add(trace.total_bytes_shipped)
    return ResultSet(
        name=plan.name,
        x_label="replace when below",
        x_values=thresholds,
        series={
            "time-avg hit ratio": SeriesStats(
                thresholds, [mean_hit[t] for t in thresholds]
            ),
            "replacements": SeriesStats(
                thresholds, [replacements[t] for t in thresholds]
            ),
            "backbone traffic (bytes)": SeriesStats(
                thresholds, [bytes_shipped[t] for t in thresholds]
            ),
        },
        runtimes={},
        metadata={"config": config, "num_runs": spec.num_runs},
        plan=plan,
    )


def run_plan(
    plan: ExperimentPlan,
    registry: SolverRegistry = SOLVERS,
    backend: Optional[Any] = None,
    store: Optional[Any] = None,
) -> ResultSet:
    """Execute a plan and return its uniform :class:`ResultSet`.

    The report-less form of :func:`repro.exec.execute_plan`, which runs
    every plan kind. ``backend`` (an
    :class:`~repro.exec.backends.ExecutionBackend`) defaults to the one
    ``plan.workers`` implies; ``store`` (an
    :class:`~repro.exec.store.ArtifactStore`) enables content-addressed
    result caching and mid-sweep resume. Every backend/store combination
    yields bit-identical hit-ratio series.
    """
    from repro.exec.executor import execute_plan

    return execute_plan(plan, registry, backend=backend, store=store)[0]
