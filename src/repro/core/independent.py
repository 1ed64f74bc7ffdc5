"""Independent Caching — the content-placement baseline (paper §VII).

Classic edge content placement treats each model as an opaque file: a
cached model always occupies its *full* size ``D_i`` (knapsack storage
constraints), so shared parameter blocks are stored once per model rather
than once per server. The placement objective and greedy rule are exactly
TrimCaching Gen's; only the storage accounting differs — which isolates
the benefit of parameter sharing, as the paper intends.

The solver runs Gen's greedy loop, :func:`~repro.core.gen.greedy_place`,
over the same :class:`~repro.core.objective.CoverageTracker` gains but
with no block cache, so every pair's marginal bytes are the model's full
size. ``np.argmax`` returns the first row-major maximiser — the same
lowest-server-then-lowest-model tie-break as the seed's per-step rescan,
whose implementation is retained verbatim as
:class:`~repro.core.reference.ReferenceIndependent` and pinned byte-
identical by the equivalence tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.gen import check_plan_engine, greedy_place
from repro.core.objective import CoverageTracker, hit_ratio
from repro.core.placement import PlacementInstance
from repro.core.result import SolverResult


class IndependentCaching:
    """Greedy content placement without parameter-sharing awareness."""

    name = "Independent Caching"

    def solve(self, instance: PlacementInstance) -> SolverResult:
        """Greedy: best (server, model) pair under knapsack storage."""
        start = time.perf_counter()
        tracker = CoverageTracker(instance)
        placement, steps = greedy_place(instance, tracker)
        return SolverResult(
            placement=placement,
            hit_ratio=hit_ratio(instance, placement),
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={"greedy_steps": steps},
        )


@dataclass(frozen=True)
class IndependentConfig:
    """Typed constructor knobs of :class:`IndependentCaching`.

    Registered in :data:`repro.api.SOLVERS` under ``"independent"``.
    """

    #: Inert (see :data:`~repro.core.gen.PLAN_ENGINES`): recorded in
    #: plans, not built.
    engine: str = "dense"

    def __post_init__(self) -> None:
        check_plan_engine(self.engine)

    def build(self) -> "IndependentCaching":
        """Construct the solver."""
        return IndependentCaching()
