"""Capacity planning: how much edge storage does a target hit ratio need?

An operator-facing workflow built on the library: sweep per-server cache
capacity, measure the achieved hit ratio per algorithm, and report the
smallest capacity meeting a service-level objective. Parameter sharing
shifts the whole curve left — the same SLO needs markedly less storage.

Run with::

    python examples/capacity_planning.py
"""

from typing import Dict, Optional

import numpy as np

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.utils.tables import format_table
from repro.utils.units import GB, format_size

#: Service-level objective on the expected cache hit ratio.
TARGET_HIT_RATIO = 0.6

CAPACITIES_GB = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)


def smallest_capacity_meeting(
    means: np.ndarray, capacities_gb, target: float
) -> Optional[float]:
    """First sweep point whose mean hit ratio reaches ``target``."""
    for capacity, mean in zip(capacities_gb, means):
        if mean >= target:
            return capacity
    return None


def main() -> None:
    plan = ExperimentPlan(
        name="Capacity planning sweep",
        # scale=1.0: the capacity points are plain GB, not paper scale.
        sweep=SweepSpec("capacity", CAPACITIES_GB),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base=dict(
            num_servers=6,
            num_users=18,
            num_models=45,
            requests_per_user=20,
        ),
        num_topologies=4,
        seed=0,
        scale=1.0,
    )
    result = run_plan(plan)
    print(result.to_table())
    print()

    verdicts: Dict[str, Optional[float]] = {}
    for algo in result.series:
        verdicts[algo] = smallest_capacity_meeting(
            result.mean_of(algo), CAPACITIES_GB, TARGET_HIT_RATIO
        )
    rows = []
    for algo, capacity in verdicts.items():
        rows.append(
            [
                algo,
                "not reachable in sweep"
                if capacity is None
                else format_size(int(capacity * GB)),
            ]
        )
    print(
        format_table(
            ["algorithm", f"capacity for >= {TARGET_HIT_RATIO:.0%} hit ratio"],
            rows,
            title="Storage needed to meet the SLO",
        )
    )

    trim = verdicts.get("TrimCaching Gen")
    independent = verdicts.get("Independent Caching")
    if trim is not None and independent is not None and independent > trim:
        saving = 1 - trim / independent
        print(
            f"\nParameter sharing reaches the SLO with {saving:.0%} less "
            "storage per server."
        )


if __name__ == "__main__":
    main()
