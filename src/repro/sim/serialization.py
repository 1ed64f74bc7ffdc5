"""Persist placements, experiment results and executed plans.

Operators need placement decisions to outlive the process that computed
them (the cloud pushes models in an offline stage, §III-A), and
reproduced figures should be comparable across runs. This module
round-trips :class:`~repro.core.placement.Placement` objects,
:class:`~repro.sim.runner.ExperimentResult` series and executed-plan
:class:`~repro.api.run.ResultSet` payloads as JSON (and exports series
as CSV). Every ``*_to_json`` here has a matching ``*_from_json`` and the
``to_json → from_json → to_json`` composition is the identity (property-
tested in ``tests/sim/test_serialization.py``).
"""

from __future__ import annotations

import io
import json
import math
from typing import Any, Dict, Optional

from repro.core.placement import Placement
from repro.errors import PlacementError, ReproError
from repro.sim.runner import ExperimentResult
from repro.utils.stats import SeriesStats

#: Format tag embedded in every serialised placement.
_PLACEMENT_FORMAT = "trimcaching-placement-v1"
#: Format tag embedded in every serialised experiment result.
_EXPERIMENT_FORMAT = "trimcaching-experiment-v1"
#: Format tag embedded in every serialised executed plan (ResultSet).
_RESULT_SET_FORMAT = "trimcaching-result-set-v1"


def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    """A JSON-ready description of a placement."""
    return {
        "format": _PLACEMENT_FORMAT,
        "num_servers": placement.num_servers,
        "num_models": placement.num_models,
        "servers": {
            str(server): placement.models_on(server)
            for server in range(placement.num_servers)
            if placement.models_on(server)
        },
    }


def placement_from_dict(payload: Dict[str, Any]) -> Placement:
    """Rebuild a placement from :func:`placement_to_dict` output."""
    if payload.get("format") != _PLACEMENT_FORMAT:
        raise PlacementError(
            f"unrecognised placement payload format: {payload.get('format')!r}"
        )
    try:
        num_servers = int(payload["num_servers"])
        num_models = int(payload["num_models"])
        servers = payload["servers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PlacementError(f"malformed placement payload: {exc}") from exc
    placement = Placement.from_server_sets(
        num_servers,
        num_models,
        {int(server): indices for server, indices in servers.items()},
    )
    return placement


def placement_to_json(placement: Placement) -> str:
    """Serialise a placement to a JSON string."""
    return json.dumps(placement_to_dict(placement), indent=1, sort_keys=True)


def placement_from_json(text: str) -> Placement:
    """Parse a placement from :func:`placement_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlacementError(f"invalid placement JSON: {exc}") from exc
    return placement_from_dict(payload)


def _extremum(value: float) -> Optional[float]:
    # Non-finite extrema (empty accumulator's ±inf, legacy-restored NaN)
    # serialise as null: bare NaN/Infinity tokens are not RFC 8259 JSON
    # and would make the files unreadable outside Python.
    return float(value) if math.isfinite(value) else None


def _series_to_dict(series: Dict[str, SeriesStats]) -> Dict[str, Any]:
    # min/max ride along with the Welford moments so a restored
    # accumulator reports the true observed extrema (not a NaN
    # placeholder) and the to_json -> from_json round trip is lossless.
    return {
        algo: {
            "mean": [float(v) for v in stats.means],
            "std": [float(v) for v in stats.stds],
            "count": [int(v) for v in stats.counts],
            "min": [_extremum(v) for v in stats.minima],
            "max": [_extremum(v) for v in stats.maxima],
        }
        for algo, stats in series.items()
    }


def _series_from_dict(
    payload: Dict[str, Any], x_values: list
) -> Dict[str, SeriesStats]:
    # "min"/"max" are absent from pre-extrema payloads; from_moments
    # then falls back to the NaN placeholder for non-empty accumulators.
    return {
        algo: SeriesStats.from_moments(
            x_values,
            moments["mean"],
            moments["std"],
            moments["count"],
            minima=moments.get("min"),
            maxima=moments.get("max"),
        )
        for algo, moments in payload.items()
    }


def experiment_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A JSON-ready description of a reproduced figure."""
    return {
        "format": _EXPERIMENT_FORMAT,
        "name": result.name,
        "x_label": result.x_label,
        "x_values": [float(x) for x in result.x_values],
        "series": _series_to_dict(result.series),
        "runtimes": _series_to_dict(result.runtimes),
        "metadata": {
            key: value
            for key, value in result.metadata.items()
            if isinstance(value, (str, int, float, bool))
        },
    }


def experiment_from_dict(payload: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`experiment_to_dict`."""
    if payload.get("format") != _EXPERIMENT_FORMAT:
        raise ReproError(
            f"unrecognised experiment payload format: {payload.get('format')!r}"
        )
    try:
        x_values = [float(x) for x in payload["x_values"]]
        return ExperimentResult(
            name=payload["name"],
            x_label=payload["x_label"],
            x_values=x_values,
            series=_series_from_dict(payload["series"], x_values),
            runtimes=_series_from_dict(payload.get("runtimes", {}), x_values),
            metadata=dict(payload.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed experiment payload: {exc}") from exc


def experiment_to_json(result: ExperimentResult) -> str:
    """Serialise a reproduced figure to JSON."""
    return json.dumps(experiment_to_dict(result), indent=1, sort_keys=True)


def experiment_from_json(text: str) -> ExperimentResult:
    """Parse a reproduced figure from :func:`experiment_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid experiment JSON: {exc}") from exc
    return experiment_from_dict(payload)


def result_set_to_dict(result) -> Dict[str, Any]:
    """A JSON-ready description of an executed plan (result + plan)."""
    from repro.api.plan import plan_to_dict

    payload = {
        "format": _RESULT_SET_FORMAT,
        "experiment": experiment_to_dict(result),
        "plan": None,
    }
    plan = getattr(result, "plan", None)
    if plan is not None:
        payload["plan"] = plan_to_dict(plan)
    return payload


def result_set_from_dict(payload: Dict[str, Any], registry=None):
    """Rebuild a :class:`~repro.api.run.ResultSet` from its dict form."""
    from repro.api.plan import plan_from_dict
    from repro.api.registry import SOLVERS
    from repro.api.run import ResultSet

    if payload.get("format") != _RESULT_SET_FORMAT:
        raise ReproError(
            f"unrecognised result-set payload format: {payload.get('format')!r}"
        )
    plan = None
    if payload.get("plan") is not None:
        plan = plan_from_dict(payload["plan"], registry or SOLVERS)
    experiment = experiment_from_dict(payload["experiment"])
    return ResultSet.from_experiment(experiment, plan)


def result_set_to_json(result) -> str:
    """Serialise an executed plan (result + plan provenance) to JSON."""
    return json.dumps(result_set_to_dict(result), indent=1, sort_keys=True)


def result_set_from_json(text: str, registry=None):
    """Parse a :class:`~repro.api.run.ResultSet` from its JSON form."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid result-set JSON: {exc}") from exc
    return result_set_from_dict(payload, registry)


def result_set_content_json(source) -> str:
    """Canonical JSON of everything **deterministic** in a result set.

    The repo invariant says every execution substrate must produce the
    same bits — but a result set also embeds per-solver wall-clock
    *runtimes*, which are measurements of the machine, not of the
    experiment: they differ between two serial runs of the very same
    plan. This view drops that one series and serialises the rest
    canonically (sorted keys, compact separators), so the equivalence
    suites and CI can compare executions with ``==``/``cmp`` — exact,
    never approximate — across backends, chaos schedules and resumes.

    ``source`` is a :class:`~repro.api.run.ResultSet` or its JSON text.
    """
    if isinstance(source, str):
        try:
            payload = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid result-set JSON: {exc}") from exc
    else:
        payload = result_set_to_dict(source)
    if isinstance(payload.get("experiment"), dict):
        payload["experiment"].pop("runtimes", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def experiment_to_csv(result: ExperimentResult) -> str:
    """Serialise a reproduced figure to CSV (one row per sweep point)."""
    import csv  # only CSV output needs it; the JSON paths do not

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    algorithms = list(result.series)
    header = [result.x_label]
    for algo in algorithms:
        header.extend([f"{algo} mean", f"{algo} std"])
    writer.writerow(header)
    for index, x_value in enumerate(result.x_values):
        row = [x_value]
        for algo in algorithms:
            stats = result.series[algo]
            row.extend(
                [f"{stats.means[index]:.6f}", f"{stats.stds[index]:.6f}"]
            )
        writer.writerow(row)
    return buffer.getvalue()
