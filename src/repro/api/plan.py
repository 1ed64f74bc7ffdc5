"""Declarative experiment plans.

An :class:`ExperimentPlan` states *what* to evaluate — which solvers
(by registry name + typed config), over which scenario axis and points,
averaged over how many topologies, scored how, at which seed — and
:func:`repro.api.run.run_plan` is the single generic executor. Every
paper sweep figure, comparison panel and ablation in
:mod:`repro.sim.experiments` is a ~5-line plan declaration; new
scenarios are new declarations, not new functions.

Plan shapes (``plan.kind``):

* ``"sweep"`` — a :class:`SweepSpec` axis + point list, executed as a
  (point × topology) task grid by :func:`repro.exec.execute_plan`
  (Figs. 4/5 and any custom parameter sweep).
* ``"comparison"`` — no axis: all solvers on one fixed setting, one
  task per topology, every topology sharing topology 0's library
  (Fig. 6 and the point ablations).
* ``"mobility"`` — a :class:`MobilitySpec` study: solve once, then track
  the placement's hit ratio under user mobility (Fig. 7); one task per
  run.
* ``"replacement"`` — a :class:`ReplacementSpec` study: the §IV-A
  threshold-triggered re-placement loop for exactly one solver; one
  task per run.

Only sweeps take ``evaluation``, ``feasibility``, ``sample_users`` and
``scale``; the other kinds refuse them at declaration.

Plans are plain data: :func:`plan_to_dict`/:func:`plan_from_dict` (and
the JSON wrappers) round-trip them losslessly, so a plan can live in a
file, travel over the CLI, or be attached to a result for provenance.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.api.registry import SOLVERS, SolverRegistry
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.utils.units import GB

#: Format tag embedded in every serialised plan.
PLAN_FORMAT = "trimcaching-plan-v1"

#: How a sweep scores placements (see ``repro.sim.runner._score_result``).
EVALUATIONS = ("expected", "monte_carlo", "sampled")

#: Instance representations ``build_scenario`` accepts.
FEASIBILITIES = ("sparse", "dense")


# ----------------------------------------------------------------------
# Sweep axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AxisSpec:
    """One sweepable scenario dimension.

    ``apply(config, value, scale)`` maps a sweep point onto a
    :class:`~repro.sim.config.ScenarioConfig`; ``scale`` is the plan's
    paper-scale shrink factor (only the ``capacity`` axis uses it: sweep
    points are paper-scale GB).
    """

    name: str
    x_label: str
    summary: str
    _apply: Callable[[ScenarioConfig, float, float], ScenarioConfig]

    def apply(
        self, config: ScenarioConfig, value: float, scale: float
    ) -> ScenarioConfig:
        """The sweep point's scenario config."""
        return self._apply(config, value, scale)


#: Named axes matching the paper's sweeps (their x labels are part of
#: the results pinned in tests/golden/figure_content.json).
NAMED_AXES: Dict[str, AxisSpec] = {
    "capacity": AxisSpec(
        "capacity",
        "Q (GB, paper scale)",
        "per-server storage Q; points in paper-scale GB, shrunk by scale",
        lambda cfg, value, scale: cfg.with_overrides(
            storage_bytes=int(value * scale * GB)
        ),
    ),
    "servers": AxisSpec(
        "servers",
        "M",
        "number of edge servers M",
        lambda cfg, value, scale: cfg.with_overrides(num_servers=int(value)),
    ),
    "users": AxisSpec(
        "users",
        "K",
        "number of users K",
        lambda cfg, value, scale: cfg.with_overrides(num_users=int(value)),
    ),
}

#: ScenarioConfig fields that must stay integers when swept directly.
_INT_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(ScenarioConfig)
    if "int" in str(f.type) and "Tuple" not in str(f.type)
)

#: ScenarioConfig fields holding tuples (restored from JSON lists).
_TUPLE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ScenarioConfig) if "Tuple" in str(f.type)
)

#: ScenarioConfig fields that are not meaningfully numeric sweep axes
#: (strings, booleans, tuple-valued fields).
_UNSWEEPABLE_FIELDS = _TUPLE_FIELDS | frozenset(
    f.name
    for f in dataclasses.fields(ScenarioConfig)
    if "bool" in str(f.type) or str(f.type) == "str"
)


def resolve_axis(name: str) -> AxisSpec:
    """Look up a named axis, or wrap a raw ``ScenarioConfig`` field."""
    if name in NAMED_AXES:
        return NAMED_AXES[name]
    field_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    if name not in field_names:
        raise ConfigurationError(
            f"unknown sweep axis {name!r}; named axes: "
            f"{sorted(NAMED_AXES)}, or any ScenarioConfig field"
        )
    if name in _UNSWEEPABLE_FIELDS:
        raise ConfigurationError(
            f"ScenarioConfig field {name!r} cannot be swept numerically"
        )
    cast = int if name in _INT_FIELDS else float

    def _apply(cfg: ScenarioConfig, value: float, scale: float) -> ScenarioConfig:
        return cfg.with_overrides(**{name: cast(value)})

    return AxisSpec(name, name, f"ScenarioConfig.{name}", _apply)


# ----------------------------------------------------------------------
# Plan components
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverSpec:
    """One solver slot in a plan: registry name, display label, config."""

    solver: str
    label: Optional[str] = None
    config: Optional[Any] = None

    def resolved_label(self, registry: SolverRegistry = SOLVERS) -> str:
        """The series name this solver reports under."""
        return self.label if self.label is not None else registry.label(self.solver)

    def build(self, registry: SolverRegistry = SOLVERS):
        """Construct the solver instance."""
        return registry.create(self.solver, config=self.config)


@dataclass(frozen=True)
class SweepSpec:
    """The swept dimension of a plan: axis name + point list."""

    axis: str
    points: Tuple[float, ...]

    def __post_init__(self) -> None:
        resolve_axis(self.axis)  # validates
        if not self.points:
            raise ConfigurationError("a sweep needs at least one point")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class MobilitySpec:
    """Fig. 7-style study: fixed placements tracked under mobility."""

    horizon_s: float = 7200.0
    sample_every: int = 60
    num_runs: int = 5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon_s) and self.horizon_s > 0):
            raise ConfigurationError("horizon_s must be finite and positive")
        if self.sample_every < 1:
            raise ConfigurationError("sample_every must be at least 1")
        if self.num_runs < 1:
            raise ConfigurationError("num_runs must be at least 1")


@dataclass(frozen=True)
class ReplacementSpec:
    """§IV-A study: threshold-triggered re-placement trade-off."""

    thresholds: Tuple[float, ...] = (0.0, 0.8, 0.9, 1.0)
    num_runs: int = 3
    horizon_s: float = 7200.0
    check_every: int = 12

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ConfigurationError("at least one threshold is required")
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if self.num_runs < 1:
            raise ConfigurationError("num_runs must be at least 1")
        if not all(0 <= t <= 1 for t in self.thresholds):
            raise ConfigurationError(
                f"thresholds must be in [0, 1], got {self.thresholds}"
            )
        if not (math.isfinite(self.horizon_s) and self.horizon_s > 0):
            raise ConfigurationError("horizon_s must be finite and positive")
        if self.check_every < 1:
            raise ConfigurationError("check_every must be at least 1")


StudySpec = Union[MobilitySpec, ReplacementSpec]


@dataclass(frozen=True)
class ExperimentPlan:
    """A complete, serialisable experiment declaration."""

    name: str
    solvers: Tuple[SolverSpec, ...]
    sweep: Optional[SweepSpec] = None
    study: Optional[StudySpec] = None
    base: Mapping[str, Any] = field(default_factory=dict)
    num_topologies: int = 20
    evaluation: str = "expected"
    num_realizations: int = 200
    seed: int = 0
    scale: float = 1.0
    workers: int = 1
    feasibility: str = "sparse"
    sample_users: Optional[int] = None
    sample_strata: int = 4

    def __post_init__(self) -> None:
        if not self.solvers:
            raise ConfigurationError("a plan needs at least one solver")
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if self.sweep is not None and self.study is not None:
            raise ConfigurationError(
                "a plan is either a sweep or a study, not both"
            )
        base = dict(self.base)
        # Unknown keys and bad field values fail here, at declaration
        # time, not deep inside run_plan().
        ScenarioConfig.from_dict(base)
        for key, value in base.items():
            if key in _TUPLE_FIELDS and isinstance(value, list):
                base[key] = tuple(value)
        # Read-only view: mutating base after validation would bypass
        # the declaration-time checks above.
        object.__setattr__(self, "base", MappingProxyType(base))
        # Uniqueness is checked without a registry lookup so plans for a
        # custom registry can be declared before registration happens.
        labels = [spec.label or spec.solver for spec in self.solvers]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"solver labels must be unique, got {labels}"
            )
        # Every run-time knob is checked here, so no executor runs an
        # invalid plan; the study kinds validate in their own dataclasses.
        if self.evaluation not in EVALUATIONS:
            raise ConfigurationError(
                f"evaluation must be one of {EVALUATIONS}, "
                f"got {self.evaluation!r}"
            )
        if self.feasibility not in FEASIBILITIES:
            raise ConfigurationError(
                f"feasibility must be one of {FEASIBILITIES}, "
                f"got {self.feasibility!r}"
            )
        if self.num_topologies < 1:
            raise ConfigurationError("num_topologies must be at least 1")
        if not 0 < self.scale <= 1:
            raise ConfigurationError(
                f"scale must be in (0, 1], got {self.scale}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {self.workers}"
            )
        if self.sweep is None:
            # Only a sweep task scores, samples or scales, and only a
            # sweep or comparison draws topologies; the other kinds would
            # silently run as if these knobs were unset.
            unused = [
                "evaluation",
                "feasibility",
                "sample_users",
                "scale",
                "num_realizations",
                "sample_strata",
            ]
            if self.study is not None:
                unused.append("num_topologies")
            defaults = {
                spec.name: spec.default for spec in dataclasses.fields(self)
            }
            for name in unused:
                unset = defaults[name]
                if getattr(self, name) != unset:
                    raise ConfigurationError(
                        f"{name} has no effect on a {self.kind} plan; it "
                        f"needs {name}={unset!r}, got {getattr(self, name)!r}"
                    )
        if isinstance(self.study, ReplacementSpec) and len(self.solvers) != 1:
            raise ConfigurationError(
                "a replacement plan evaluates exactly one re-placement "
                f"solver; got {len(self.solvers)} (sweep thresholds, not "
                "solvers)"
            )
        if self.evaluation == "sampled" and self.sample_users is None:
            raise ConfigurationError(
                "evaluation='sampled' requires sample_users"
            )
        if self.sample_users is not None:
            if self.evaluation != "sampled":
                raise ConfigurationError(
                    "sample_users only applies to evaluation='sampled'"
                )
            if self.sample_users < 2 * self.sample_strata:
                raise ConfigurationError(
                    f"sample_users must be at least 2 per stratum "
                    f"({2 * self.sample_strata}), got {self.sample_users}"
                )
        if self.sample_strata < 1:
            raise ConfigurationError("sample_strata must be at least 1")

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"sweep"``, ``"comparison"``, ``"mobility"`` or ``"replacement"``."""
        if self.sweep is not None:
            return "sweep"
        if isinstance(self.study, MobilitySpec):
            return "mobility"
        if isinstance(self.study, ReplacementSpec):
            return "replacement"
        return "comparison"

    def base_config(self) -> ScenarioConfig:
        """The plan's base :class:`ScenarioConfig` (overrides applied)."""
        return ScenarioConfig.from_dict(dict(self.base))

    def labels(self, registry: SolverRegistry = SOLVERS) -> List[str]:
        """Series labels in declaration order."""
        return [spec.resolved_label(registry) for spec in self.solvers]

    def algorithms(self, registry: SolverRegistry = SOLVERS) -> Dict[str, Any]:
        """Label -> constructed solver, in declaration order."""
        labels = self.labels(registry)
        if len(set(labels)) != len(labels):
            # __post_init__ can only check explicit labels; an explicit
            # label may still collide with another solver's registry
            # label once resolved — refuse rather than drop a series.
            raise ConfigurationError(
                f"resolved solver labels must be unique, got {labels}; "
                "give the colliding solvers explicit labels"
            )
        return {
            spec.resolved_label(registry): spec.build(registry)
            for spec in self.solvers
        }

    def with_overrides(self, **kwargs) -> "ExperimentPlan":
        """A copy with the given fields replaced (validated again)."""
        return dataclasses.replace(self, **kwargs)


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _solver_to_dict(spec: SolverSpec) -> Dict[str, Any]:
    return {
        "solver": spec.solver,
        "label": spec.label,
        "config": (
            None
            if spec.config is None
            else _jsonify(dataclasses.asdict(spec.config))
        ),
    }


def _solver_from_dict(
    payload: Mapping[str, Any], registry: SolverRegistry
) -> SolverSpec:
    name = payload["solver"]
    config_payload = payload.get("config")
    config = None
    if config_payload is not None:
        config = registry.config(name, **config_payload)
    return SolverSpec(solver=name, label=payload.get("label"), config=config)


def plan_to_dict(plan: ExperimentPlan) -> Dict[str, Any]:
    """A JSON-ready description of a plan."""
    payload: Dict[str, Any] = {
        "format": PLAN_FORMAT,
        "name": plan.name,
        "kind": plan.kind,
        "solvers": [_solver_to_dict(spec) for spec in plan.solvers],
        "sweep": None,
        "study": None,
        "base": _jsonify(dict(plan.base)),
        "num_topologies": plan.num_topologies,
        "evaluation": plan.evaluation,
        "num_realizations": plan.num_realizations,
        "seed": plan.seed,
        "scale": plan.scale,
        "workers": plan.workers,
        "feasibility": plan.feasibility,
    }
    # Conditional keys: plans without sampling serialise exactly as
    # before, so existing artifact-store content hashes stay valid.
    if plan.sample_users is not None:
        payload["sample_users"] = plan.sample_users
        payload["sample_strata"] = plan.sample_strata
    if plan.sweep is not None:
        payload["sweep"] = {
            "axis": plan.sweep.axis,
            "points": list(plan.sweep.points),
        }
    if plan.study is not None:
        study = _jsonify(dataclasses.asdict(plan.study))
        study["type"] = plan.kind
        payload["study"] = study
    return payload


def plan_from_dict(
    payload: Mapping[str, Any], registry: SolverRegistry = SOLVERS
) -> ExperimentPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    if payload.get("format") != PLAN_FORMAT:
        raise ConfigurationError(
            f"unrecognised plan payload format: {payload.get('format')!r}"
        )
    try:
        sweep = None
        if payload.get("sweep") is not None:
            sweep = SweepSpec(
                axis=payload["sweep"]["axis"],
                points=tuple(payload["sweep"]["points"]),
            )
        study: Optional[StudySpec] = None
        if payload.get("study") is not None:
            study_payload = dict(payload["study"])
            study_type = study_payload.pop("type", None)
            if study_type == "mobility":
                study = MobilitySpec(**study_payload)
            elif study_type == "replacement":
                study_payload["thresholds"] = tuple(
                    study_payload["thresholds"]
                )
                study = ReplacementSpec(**study_payload)
            else:
                raise ConfigurationError(
                    f"unknown study type {study_type!r}"
                )
        return ExperimentPlan(
            name=payload["name"],
            solvers=tuple(
                _solver_from_dict(spec, registry)
                for spec in payload["solvers"]
            ),
            sweep=sweep,
            study=study,
            base=dict(payload.get("base", {})),
            num_topologies=int(payload.get("num_topologies", 20)),
            evaluation=payload.get("evaluation", "expected"),
            num_realizations=int(payload.get("num_realizations", 200)),
            seed=int(payload.get("seed", 0)),
            scale=float(payload.get("scale", 1.0)),
            workers=int(payload.get("workers", 1)),
            feasibility=payload.get("feasibility", "sparse"),
            sample_users=(
                None
                if payload.get("sample_users") is None
                else int(payload["sample_users"])
            ),
            sample_strata=int(payload.get("sample_strata", 4)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed plan payload: {exc}") from exc


def plan_to_json(plan: ExperimentPlan) -> str:
    """Serialise a plan to JSON."""
    return json.dumps(plan_to_dict(plan), indent=1, sort_keys=True)


def plan_from_json(
    text: str, registry: SolverRegistry = SOLVERS
) -> ExperimentPlan:
    """Parse a plan from :func:`plan_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid plan JSON: {exc}") from exc
    return plan_from_dict(payload, registry)
