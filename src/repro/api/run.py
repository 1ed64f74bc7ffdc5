"""The uniform plan result type and run_plan.

:func:`run_plan` turns any :class:`~repro.api.plan.ExperimentPlan` into
a :class:`ResultSet` through :func:`repro.exec.execute_plan`, the one
executor: every plan kind runs as a task grid on a backend — (point,
topology) cells for a sweep, one task per topology for a comparison and
one per run for a mobility or replacement study. Whatever the plan
kind, the ResultSet is the same shape — x values plus one named series
per solver/metric — with table, chart, CSV and JSON round-trip, and
views onto the per-kind result types (:meth:`ResultSet.comparison`,
:meth:`ResultSet.mobility`, :meth:`ResultSet.replacement`).

Reproducibility contract: sweeps seed each grid cell with
:func:`~repro.sim.runner.scenario_seed`, every other kind seeds each
topology or run with :func:`~repro.sim.runner.study_seed`, and the
results of every paper figure and ablation plan are pinned to committed
values in ``tests/golden/figure_content.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.api.plan import ExperimentPlan
from repro.api.registry import SOLVERS, SolverRegistry
from repro.sim.runner import (
    REPLACEMENT_METRICS,
    AlgorithmComparison,
    ExperimentResult,
    Fig7Result,
    ReplacementAblation,
)


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
        mean_hit, replacements, bytes_shipped = (
            per_metric[label] for label in REPLACEMENT_METRICS
        )
        return ReplacementAblation(
            thresholds=thresholds,
            mean_hit=mean_hit,
            replacements=replacements,
            bytes_shipped=bytes_shipped,
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
