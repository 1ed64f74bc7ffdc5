"""Absolute pins for every paper figure and ablation plan.

Each case runs one ``PLAN_BUILDERS`` plan at small, fixed keyword
arguments and compares the deterministic part of its result set
(:func:`~repro.sim.serialization.result_set_content_json`: plan, x
values, every series' moments, counts and extrema, metadata) with the
committed ``tests/golden/figure_content.json`` using ``==``. Wall-clock
runtimes are not pinned, but their sample counts are: every solve of a
sweep or comparison records one runtime beside its hit ratio.

The values were captured while the plan path was proven bit-identical
to the pre-plan per-figure implementations, so they pin those figures'
results too. Any change to them is a change to a figure's results.

Regenerate (only for a deliberate result change, with a
``CODE_VERSION_SALT`` bump) by running this file as a script from the
repo root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import run_plan
from repro.exec import ProcessBackend, execute_plan
from repro.sim.experiments import PLAN_BUILDERS
from repro.sim.serialization import result_set_content_json

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "figure_content.json"

_SWEEP_KW = dict(num_topologies=2, seed=0, scale=0.05)

#: golden name -> (PLAN_BUILDERS key, builder keyword arguments).
CASES = {
    "fig4a": ("fig4a", dict(_SWEEP_KW, capacities_gb=(0.5, 1.0))),
    "fig4a-monte-carlo": (
        "fig4a",
        dict(
            num_topologies=1,
            seed=3,
            scale=0.05,
            capacities_gb=(1.0,),
            evaluation="monte_carlo",
            num_realizations=20,
        ),
    ),
    # The `sweep --axis capacity` CLI setting (default capacities).
    "fig4a-cli": ("fig4a", dict(num_topologies=1, seed=0, scale=0.05)),
    "fig4b": ("fig4b", dict(_SWEEP_KW, server_counts=(4, 6))),
    "fig4c": ("fig4c", dict(_SWEEP_KW, user_counts=(6, 10))),
    "fig5a": ("fig5a", dict(_SWEEP_KW, capacities_gb=(0.5, 1.0))),
    "fig5b": ("fig5b", dict(_SWEEP_KW, server_counts=(4, 6))),
    "fig5c": ("fig5c", dict(_SWEEP_KW, user_counts=(6, 10))),
    "fig6a": ("fig6a", dict(num_topologies=2, seed=0)),
    "fig6b": ("fig6b", dict(num_topologies=1, seed=0)),
    "fig7": (
        "fig7",
        dict(num_runs=1, horizon_s=600.0, sample_every=24, seed=0),
    ),
    # The paper's full 2 h horizon at the default Fig. 7 sampling.
    "fig7-2h": (
        "fig7",
        dict(num_runs=1, horizon_s=7200.0, sample_every=60, seed=0),
    ),
    "ablation-epsilon": (
        "ablation-epsilon",
        dict(epsilons=(0.1, 0.5), num_topologies=1, seed=0),
    ),
    "ablation-lazy": ("ablation-lazy", dict(num_topologies=1, seed=0)),
    "ablation-order": ("ablation-order", dict(num_topologies=1, seed=0)),
    "ablation-backend": ("ablation-backend", dict(num_topologies=1, seed=0)),
    "ablation-replacement": (
        "ablation-replacement",
        dict(thresholds=(0.0, 0.9), num_runs=1, horizon_s=600.0, seed=0),
    ),
}


def run_case(builder: str, kwargs: dict):
    return run_plan(PLAN_BUILDERS[builder](**kwargs))


def content(result) -> dict:
    return json.loads(result_set_content_json(result))


def assert_runtime_counts(result) -> None:
    """Sweeps and comparisons time every solve; studies record no runtimes."""
    if result.kind in ("mobility", "replacement"):
        assert result.runtimes == {}
        return
    assert list(result.series) == result.plan.labels()
    assert list(result.runtimes) == list(result.series)
    for label, stats in result.runtimes.items():
        assert stats.counts.tolist() == result.series[label].counts.tolist(), label


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_plan_builder_is_pinned():
    assert {builder for builder, _ in CASES.values()} == set(PLAN_BUILDERS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_matches_golden(name, golden):
    result = run_case(*CASES[name])
    assert content(result) == golden[name]
    assert_runtime_counts(result)


def test_parallel_workers_match_serial_golden(golden):
    """Two worker processes reproduce the serial goldens bit-for-bit.

    fig4a declares ``workers=2``, which its plan and metadata
    legitimately record, so only its x values and series are compared
    with the ``workers=1`` entry. The comparison and study plans run on
    an explicit two-worker backend and match their entries whole, with
    one task per topology or run.
    """
    builder, kwargs = CASES["fig4a"]
    result = run_case(builder, dict(kwargs, workers=2))
    experiment = content(result)["experiment"]
    expected = golden["fig4a"]["experiment"]
    assert experiment["x_values"] == expected["x_values"]
    assert experiment["series"] == expected["series"]
    assert_runtime_counts(result)

    for name, tasks in (("fig6a", 2), ("fig7", 1), ("ablation-replacement", 1)):
        builder, kwargs = CASES[name]
        result, report = execute_plan(
            PLAN_BUILDERS[builder](**kwargs), backend=ProcessBackend(workers=2)
        )
        assert content(result) == golden[name], name
        assert report.backend == "process", name
        assert report.tasks_run == report.tasks_total == tasks, name
        assert_runtime_counts(result)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: content(run_case(*CASES[name])) for name in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
