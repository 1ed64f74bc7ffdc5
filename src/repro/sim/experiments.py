"""Per-figure/table reproduction entry points, declared as plans.

Every solver experiment here is a ~5-line
:class:`~repro.api.plan.ExperimentPlan` declaration (a ``*_plan``
builder, indexed by :data:`PLAN_BUILDERS`) executed by the one generic
:func:`~repro.api.run.run_plan`::

    run_plan(fig4a_plan(num_topologies=5)).to_table()
    run_plan(fig6a_plan()).comparison()      # AlgorithmComparison
    run_plan(fig7_plan()).mobility()         # Fig7Result
    run_plan(ablation_replacement_plan()).replacement()

Each builder's results at small fixed settings are pinned to committed
values in ``tests/golden/figure_content.json``.

Scale knobs (`num_topologies`, evaluation mode) default to
laptop-friendly values; pass ``num_topologies=100`` and
``evaluation="monte_carlo"`` for the paper's full averaging.

Index (see DESIGN.md §3):

* :func:`fig1_accuracy_vs_frozen` — motivation curve (substituted model).
* :func:`table1_library_construction` — two-round fine-tuning settings.
* :func:`fig4a_plan` / :func:`fig4b_plan` / :func:`fig4c_plan` —
  special case, Spec vs Gen vs Independent.
* :func:`fig5a_plan` / :func:`fig5b_plan` / :func:`fig5c_plan` —
  general case, Gen vs Independent.
* :func:`fig6a_plan` / :func:`fig6b_plan` — hit ratio and runtime
  against the exhaustive optimum / Spec.
* :func:`fig7_plan` — fixed placement under mobility.
* ``ablation_*_plan`` — our extra studies of the design decisions.

(Fig. 1 and Table I are deterministic artefact renders — no topologies,
solvers or seeds — so they are the only entries without a plan form.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.api.plan import (
    ExperimentPlan,
    MobilitySpec,
    ReplacementSpec,
    SolverSpec,
    SweepSpec,
)
from repro.core.gen import GenConfig
from repro.core.independent import IndependentConfig
from repro.core.spec import SpecConfig
from repro.errors import ConfigurationError
from repro.models.accuracy import ANIMAL_CURVE, TRANSPORTATION_CURVE
from repro.models.generators import GeneralCaseConfig, build_general_case_library
from repro.utils.tables import format_table
from repro.utils.units import GB

#: The paper's capacity sweep (Figs. 4a / 5a).
CAPACITY_SWEEP_GB = (0.5, 0.75, 1.0, 1.25, 1.5)
#: The paper's server-count sweep (Figs. 4b / 5b).
SERVER_SWEEP = (6, 8, 10, 12, 14)
#: The paper's user-count sweep (Figs. 4c / 5c).
USER_SWEEP = (10, 20, 30, 40, 50)

#: The paper's library has 300 models and each user requests 30 of them
#: ("I = 30" in the figure captions). Both the library and the per-server
#: capacity shrink by ``scale`` in our default runs — the paper itself
#: notes that proportionally reducing storage and library size "will not
#: impact the phenomenon observed" (§VII-A). scale=1.0 restores the full
#: setting.
PAPER_LIBRARY_SIZE = 300
PAPER_REQUESTS_PER_USER = 30
DEFAULT_SCALE = 0.2


def _scaled_library(scale: float) -> int:
    if not 0 < scale <= 1:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    return max(2, round(PAPER_LIBRARY_SIZE * scale))


def _scaled_requests(scale: float) -> int:
    return min(PAPER_REQUESTS_PER_USER, _scaled_library(scale))


def special_solvers(epsilon: float = 0.1) -> Sequence[SolverSpec]:
    """The special-case comparison set: Spec vs. Gen vs. Independent."""
    return (
        SolverSpec("spec", config=SpecConfig(epsilon=epsilon)),
        SolverSpec("gen", config=GenConfig()),
        SolverSpec("independent", config=IndependentConfig()),
    )


def general_solvers() -> Sequence[SolverSpec]:
    """The general-case comparison set: Gen vs. Independent."""
    return (
        SolverSpec("gen", config=GenConfig()),
        SolverSpec("independent", config=IndependentConfig()),
    )


def _paper_base(library_case: str, scale: float, **extra) -> dict:
    """ScenarioConfig overrides shared by the Figs. 4/5 sweeps."""
    return {
        "library_case": library_case,
        "num_models": _scaled_library(scale),
        "requests_per_user": _scaled_requests(scale),
        **extra,
    }


# ----------------------------------------------------------------------
# Fig. 1 and Table I
# ----------------------------------------------------------------------
@dataclass
class Fig1Result:
    """Accuracy vs. frozen depth for the two Fig. 1 tasks."""

    depths: np.ndarray
    transportation: np.ndarray
    animal: np.ndarray

    @property
    def average_drop_at_90pct(self) -> float:
        """Mean accuracy drop with ~90% of layers frozen (paper: ~4.7%)."""
        index = int(np.searchsorted(self.depths, 97))
        drop_t = self.transportation[0] - self.transportation[index]
        drop_a = self.animal[0] - self.animal[index]
        return float((drop_t + drop_a) / 2.0)

    def to_table(self) -> str:
        """Series table matching Fig. 1's axes."""
        rows = [
            [int(d), float(t), float(a)]
            for d, t, a in zip(self.depths, self.transportation, self.animal)
        ]
        return format_table(
            ["frozen layers", "transportation acc", "animal acc"],
            rows,
            title="Fig. 1 — accuracy vs. frozen bottom layers (ResNet-50)",
        )


def fig1_accuracy_vs_frozen(step: int = 10) -> Fig1Result:
    """Regenerate Fig. 1 from the calibrated degradation curves."""
    if step < 1:
        raise ValueError("step must be at least 1")
    depths = np.arange(0, 107 + 1, step)
    if depths[-1] != 107:
        depths = np.append(depths, 107)
    return Fig1Result(
        depths=depths,
        transportation=TRANSPORTATION_CURVE.curve(depths.tolist()),
        animal=ANIMAL_CURVE.curve(depths.tolist()),
    )


@dataclass
class Table1Result:
    """The general-case construction settings plus realised library stats."""

    groups: dict
    num_models: int
    num_blocks: int
    num_shared_blocks: int
    savings_ratio: float

    def to_table(self) -> str:
        """Render Table I plus the realised sharing statistics."""
        rows = [
            [first, ", ".join(seconds)] for first, seconds in self.groups.items()
        ]
        settings = format_table(
            ["First-round fine-tuning", "Second-round fine-tuning"],
            rows,
            title="Table I — fine-tuning settings",
        )
        stats = format_table(
            ["metric", "value"],
            [
                ["models", self.num_models],
                ["parameter blocks", self.num_blocks],
                ["shared blocks", self.num_shared_blocks],
                ["dedup storage savings", f"{self.savings_ratio:.1%}"],
            ],
            title="Realised general-case library",
        )
        return settings + "\n\n" + stats


def table1_library_construction(
    num_models: int = 300, seed: int = 0
) -> Table1Result:
    """Build the Table-I general library and report its sharing stats."""
    config = GeneralCaseConfig(num_models=num_models)
    library = build_general_case_library(config, seed)
    stats = library.sharing_stats()
    return Table1Result(
        groups=config.groups,
        num_models=stats.num_models,
        num_blocks=stats.num_blocks,
        num_shared_blocks=stats.num_shared_blocks,
        savings_ratio=stats.savings_ratio,
    )


# ----------------------------------------------------------------------
# Figs. 4 and 5 — the sweep family, as plans
# ----------------------------------------------------------------------
def fig4a_plan(
    num_topologies: int = 20,
    capacities_gb: Sequence[float] = CAPACITY_SWEEP_GB,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 4(a): special case, hit ratio vs. capacity (M=10, I=30).

    ``capacities_gb`` are the paper's values; both they and the library
    shrink by ``scale`` (see :data:`DEFAULT_SCALE`).
    """
    return ExperimentPlan(
        name="Fig. 4(a) — special case: cache hit ratio vs. capacity Q",
        sweep=SweepSpec("capacity", tuple(capacities_gb)),
        solvers=special_solvers(),
        base=_paper_base("special", scale, num_servers=10),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


def fig4b_plan(
    num_topologies: int = 20,
    server_counts: Sequence[int] = SERVER_SWEEP,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 4(b): special case, hit ratio vs. M (Q=1 GB, I=30)."""
    return ExperimentPlan(
        name="Fig. 4(b) — special case: cache hit ratio vs. number of edge servers M",
        sweep=SweepSpec("servers", tuple(server_counts)),
        solvers=special_solvers(),
        base=_paper_base("special", scale, storage_bytes=int(1 * scale * GB)),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


def fig4c_plan(
    num_topologies: int = 20,
    user_counts: Sequence[int] = USER_SWEEP,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 4(c): special case, hit ratio vs. K (Q=1 GB, M=10)."""
    return ExperimentPlan(
        name="Fig. 4(c) — special case: cache hit ratio vs. number of users K",
        sweep=SweepSpec("users", tuple(user_counts)),
        solvers=special_solvers(),
        base=_paper_base(
            "special",
            scale,
            num_servers=10,
            storage_bytes=int(1 * scale * GB),
        ),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


def fig5a_plan(
    num_topologies: int = 20,
    capacities_gb: Sequence[float] = CAPACITY_SWEEP_GB,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 5(a): general case, hit ratio vs. capacity (M=10, I=30)."""
    return ExperimentPlan(
        name="Fig. 5(a) — general case: cache hit ratio vs. capacity Q",
        sweep=SweepSpec("capacity", tuple(capacities_gb)),
        solvers=general_solvers(),
        base=_paper_base("general", scale, num_servers=10),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


def fig5b_plan(
    num_topologies: int = 20,
    server_counts: Sequence[int] = SERVER_SWEEP,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 5(b): general case, hit ratio vs. M (Q=1 GB, I=30)."""
    return ExperimentPlan(
        name="Fig. 5(b) — general case: cache hit ratio vs. number of edge servers M",
        sweep=SweepSpec("servers", tuple(server_counts)),
        solvers=general_solvers(),
        base=_paper_base("general", scale, storage_bytes=int(1 * scale * GB)),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


def fig5c_plan(
    num_topologies: int = 20,
    user_counts: Sequence[int] = USER_SWEEP,
    evaluation: str = "expected",
    num_realizations: int = 200,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
) -> ExperimentPlan:
    """Fig. 5(c): general case, hit ratio vs. K (Q=1 GB, M=10)."""
    return ExperimentPlan(
        name="Fig. 5(c) — general case: cache hit ratio vs. number of users K",
        sweep=SweepSpec("users", tuple(user_counts)),
        solvers=general_solvers(),
        base=_paper_base(
            "general",
            scale,
            num_servers=10,
            storage_bytes=int(1 * scale * GB),
        ),
        num_topologies=num_topologies,
        evaluation=evaluation,
        num_realizations=num_realizations,
        seed=seed,
        scale=scale,
        workers=workers,
    )


# ----------------------------------------------------------------------
# Fig. 6 — optimality gap and runtime, as comparison plans
# ----------------------------------------------------------------------
def fig6a_plan(num_topologies: int = 10, seed: int = 0) -> ExperimentPlan:
    """Fig. 6(a): Spec (ε=0) and Gen vs. the exhaustive optimum.

    Paper setting: 400 m area, M=2, K=6, Q=0.1 GB, special-case library
    with 9 models requested per user.
    """
    return ExperimentPlan(
        name="Fig. 6(a) — special case: hit ratio and runtime vs. optimal",
        solvers=(
            SolverSpec("exhaustive"),
            SolverSpec("spec", config=SpecConfig(epsilon=0.0)),
            SolverSpec("gen"),
        ),
        base={
            "library_case": "special",
            "num_servers": 2,
            "num_users": 6,
            "num_models": 9,
            "area_side_m": 400.0,
            "storage_bytes": int(0.1 * GB),
        },
        num_topologies=num_topologies,
        seed=seed,
    )


def fig6b_plan(num_topologies: int = 5, seed: int = 0) -> ExperimentPlan:
    """Fig. 6(b): Spec vs. Gen on a general-case library.

    Paper setting: Q=0.2 GB, 27 models per user; Spec's combination
    traversal is exponential here, demonstrating why Gen exists.
    """
    return ExperimentPlan(
        name="Fig. 6(b) — general case: Spec vs. Gen runtime",
        solvers=(
            SolverSpec(
                "spec",
                config=SpecConfig(epsilon=0.0, max_combinations=50_000_000),
            ),
            SolverSpec("gen"),
        ),
        base={
            "library_case": "general",
            "num_servers": 2,
            "num_users": 6,
            "num_models": 27,
            "area_side_m": 400.0,
            "storage_bytes": int(0.2 * GB),
        },
        num_topologies=num_topologies,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Fig. 7 — mobility robustness, as a study plan
# ----------------------------------------------------------------------
def fig7_plan(
    num_runs: int = 5,
    horizon_s: float = 7200.0,
    sample_every: int = 60,
    seed: int = 0,
) -> ExperimentPlan:
    """Fig. 7: fixed Spec/Gen placements under 2 h of user mobility.

    Paper setting: M=10, K=10, Q=1 GB, special case; pedestrian/bike/
    vehicle users, 5 s slots.
    """
    return ExperimentPlan(
        name="Fig. 7 — cache hit ratio over time (mobility)",
        solvers=(
            SolverSpec("spec", config=SpecConfig(epsilon=0.1)),
            SolverSpec("gen"),
        ),
        study=MobilitySpec(
            horizon_s=horizon_s, sample_every=sample_every, num_runs=num_runs
        ),
        base={
            "library_case": "special",
            "num_servers": 10,
            "num_users": 10,
            "num_models": 30,
            "storage_bytes": 1 * GB,
        },
        seed=seed,
    )


# ----------------------------------------------------------------------
# Ablations (ours), as plans
# ----------------------------------------------------------------------
def ablation_epsilon_plan(
    epsilons: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9),
    num_topologies: int = 5,
    seed: int = 0,
) -> ExperimentPlan:
    """Hit ratio / runtime of Spec across the rounding parameter ε."""
    solvers = tuple(
        SolverSpec("spec", label=f"Spec (eps={eps})", config=SpecConfig(epsilon=eps))
        for eps in epsilons
    ) + (
        SolverSpec("spec", label="Spec (exact)", config=SpecConfig(epsilon=0.0)),
    )
    return ExperimentPlan(
        name="Ablation — Spec rounding parameter ε",
        solvers=solvers,
        base={
            "library_case": "special",
            "num_servers": 4,
            "num_users": 12,
            "num_models": 12,
        },
        num_topologies=num_topologies,
        seed=seed,
    )


def ablation_lazy_greedy_plan(
    num_topologies: int = 5, seed: int = 0
) -> ExperimentPlan:
    """Lazy vs. naive Gen greedy: identical quality, different runtime."""
    return ExperimentPlan(
        name="Ablation — lazy vs. naive greedy",
        solvers=(
            SolverSpec("gen", label="Gen (lazy)", config=GenConfig(accelerated=True)),
            SolverSpec("gen", label="Gen (naive)", config=GenConfig(accelerated=False)),
        ),
        base={
            "library_case": "special",
            "num_servers": 8,
            "num_users": 20,
            "num_models": 30,
        },
        num_topologies=num_topologies,
        seed=seed,
    )


def ablation_server_order_plan(
    num_topologies: int = 5, seed: int = 0
) -> ExperimentPlan:
    """Spec's successive-greedy server ordering strategies."""
    return ExperimentPlan(
        name="Ablation — successive-greedy server order",
        solvers=tuple(
            SolverSpec(
                "spec",
                label=f"Spec (order={order})",
                config=SpecConfig(epsilon=0.1, server_order=order),
            )
            for order in ("index", "capacity", "coverage")
        ),
        base={
            "library_case": "special",
            "num_servers": 6,
            "num_users": 15,
            "num_models": 15,
        },
        num_topologies=num_topologies,
        seed=seed,
    )


def ablation_replacement_plan(
    thresholds: Sequence[float] = (0.0, 0.8, 0.9, 1.0),
    num_runs: int = 3,
    horizon_s: float = 7200.0,
    seed: int = 0,
) -> ExperimentPlan:
    """§IV-A extension: hit ratio vs. backbone cost of re-placement."""
    return ExperimentPlan(
        name="Ablation — threshold-triggered re-placement (2 h horizon)",
        solvers=(SolverSpec("gen"),),
        study=ReplacementSpec(
            thresholds=tuple(thresholds),
            num_runs=num_runs,
            horizon_s=horizon_s,
            check_every=12,
        ),
        base={
            "library_case": "special",
            "num_servers": 4,
            "num_users": 10,
            "num_models": 15,
            "storage_bytes": 150_000_000,
        },
        seed=seed,
    )


def ablation_dp_backend_plan(
    num_topologies: int = 5, seed: int = 0
) -> ExperimentPlan:
    """Value-DP vs. weight-DP vs. exact knapsack backends inside Spec."""
    return ExperimentPlan(
        name="Ablation — Spec knapsack backend",
        solvers=(
            SolverSpec(
                "spec",
                label="Spec (value_dp)",
                config=SpecConfig(epsilon=0.1, backend="value_dp"),
            ),
            SolverSpec(
                "spec",
                label="Spec (weight_dp)",
                config=SpecConfig(epsilon=0.1, backend="weight_dp"),
            ),
            SolverSpec(
                "spec",
                label="Spec (exact)",
                config=SpecConfig(epsilon=0.0, backend="exact"),
            ),
        ),
        base={
            "library_case": "special",
            "num_servers": 4,
            "num_users": 12,
            "num_models": 12,
        },
        num_topologies=num_topologies,
        seed=seed,
    )


#: The canonical index of figure/ablation plan builders: the CLI builds
#: one subcommand per entry, and the golden-results and registry-drift
#: tests iterate it.
PLAN_BUILDERS = {
    "fig4a": fig4a_plan,
    "fig4b": fig4b_plan,
    "fig4c": fig4c_plan,
    "fig5a": fig5a_plan,
    "fig5b": fig5b_plan,
    "fig5c": fig5c_plan,
    "fig6a": fig6a_plan,
    "fig6b": fig6b_plan,
    "fig7": fig7_plan,
    "ablation-epsilon": ablation_epsilon_plan,
    "ablation-lazy": ablation_lazy_greedy_plan,
    "ablation-order": ablation_server_order_plan,
    "ablation-replacement": ablation_replacement_plan,
    "ablation-backend": ablation_dp_backend_plan,
}
