"""Public declarative experiment API.

Three pieces (see DESIGN notes in each module):

* :data:`SOLVERS` / :class:`SolverRegistry` — string-keyed,
  decorator-registered factories for every placement algorithm, each
  carrying a typed config dataclass (``SpecConfig``, ``GenConfig``, …).
* :class:`ExperimentPlan` + :class:`SweepSpec` (and the study specs) —
  declarative descriptions of sweeps, comparisons, mobility and
  re-placement studies, JSON round-trippable.
* :func:`run_plan` — the one generic executor, returning a uniform
  :class:`ResultSet` with table/chart/CSV/JSON output.

Quickstart::

    from repro.api import SOLVERS, ExperimentPlan, SolverSpec, SweepSpec, run_plan

    plan = ExperimentPlan(
        name="hit ratio vs capacity",
        sweep=SweepSpec(axis="capacity", points=(0.5, 1.0, 1.5)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base={"library_case": "special", "num_models": 60,
              "requests_per_user": 30},
        num_topologies=10,
        scale=0.2,
    )
    result = run_plan(plan)
    print(result.to_table())
"""

from repro.api.plan import (
    PLAN_FORMAT,
    AxisSpec,
    ExperimentPlan,
    MobilitySpec,
    NAMED_AXES,
    ReplacementSpec,
    SolverSpec,
    SweepSpec,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    resolve_axis,
)
from repro.api.registry import SOLVERS, SolverEntry, SolverRegistry
from repro.api.run import ResultSet, run_plan

__all__ = [
    "SOLVERS",
    "SolverRegistry",
    "SolverEntry",
    "AxisSpec",
    "NAMED_AXES",
    "resolve_axis",
    "SolverSpec",
    "SweepSpec",
    "MobilitySpec",
    "ReplacementSpec",
    "ExperimentPlan",
    "PLAN_FORMAT",
    "plan_to_dict",
    "plan_from_dict",
    "plan_to_json",
    "plan_from_json",
    "ResultSet",
    "run_plan",
]
