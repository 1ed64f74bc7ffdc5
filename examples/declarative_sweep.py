"""Declare and run a custom experiment with the `repro.api` plan layer.

The paper's figures sweep capacity, server count and user count — but a
plan can sweep any numeric scenario knob over any registered solver set.
This example asks a question the paper doesn't: how sensitive is the
parameter-sharing advantage to demand skew? It sweeps the Zipf exponent
(uniform-ish 0.2 up to heavily skewed 1.4) for Gen, Independent and the
popularity-only baseline, prints the table and chart, and round-trips
the full result set (series + plan provenance) through JSON.

Run with::

    PYTHONPATH=src python examples/declarative_sweep.py
"""

from repro.api import (
    ExperimentPlan,
    ResultSet,
    SolverSpec,
    SweepSpec,
    run_plan,
)


def main() -> None:
    plan = ExperimentPlan(
        name="Demand-skew sensitivity — hit ratio vs. Zipf exponent",
        sweep=SweepSpec(axis="zipf_exponent", points=(0.2, 0.6, 1.0, 1.4)),
        solvers=(
            SolverSpec("gen"),
            SolverSpec("independent"),
            SolverSpec("top-popularity"),
        ),
        base={
            "library_case": "special",
            "num_servers": 6,
            "num_users": 24,
            "num_models": 30,
            "requests_per_user": 10,
            "storage_bytes": 300_000_000,
        },
        num_topologies=3,
        seed=0,
    )

    result = run_plan(plan)
    print(result.to_table())
    print()
    print(result.to_chart(height=10))

    # The JSON form carries the plan, so a result file is re-runnable.
    restored = ResultSet.from_json(result.to_json())
    rerun = run_plan(restored.plan)
    assert all(
        (rerun.series[algo].means == result.series[algo].means).all()
        for algo in result.series
    )
    print("\nJSON round-trip re-run reproduced the series exactly.")


if __name__ == "__main__":
    main()
