"""Independent Caching — the content-placement baseline (paper §VII).

Classic edge content placement treats each model as an opaque file: a
cached model always occupies its *full* size ``D_i`` (knapsack storage
constraints), so shared parameter blocks are stored once per model rather
than once per server. The placement objective and greedy rule are exactly
TrimCaching Gen's; only the storage accounting differs — which isolates
the benefit of parameter sharing, as the paper intends.

The solver runs on the same masked-argmax engine as
:class:`~repro.core.gen.TrimCachingGen`: the maintained
:class:`~repro.core.objective.CoverageTracker` gain matrix is read in
place (no per-step copy), a step is one ``argmax`` over the
where-it-fits-else ``-1`` candidate matrix, and placed pairs need no mask
because marking them served zeroes their gain exactly. ``np.argmax``
returns the first row-major maximiser — the same lowest-server-then-
lowest-model tie-break as the seed's per-step rescan, whose
implementation is retained verbatim as
:class:`~repro.core.reference.ReferenceIndependent` and pinned byte-
identical by the equivalence tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.objective import CoverageTracker, check_engine, hit_ratio
from repro.core.placement import PlacementInstance
from repro.core.result import SolverResult
from repro.errors import ConfigurationError

# Gains are sums of non-negative products, so zero gain is exactly 0.0.


class IndependentCaching:
    """Greedy content placement without parameter-sharing awareness.

    Parameters
    ----------
    engine:
        Coverage engine: ``"dense"`` (bit-pinned to the seed),
        ``"sparse"`` (O(nnz) CSR walks) or ``"auto"`` (sparse on
        sparse-primary instances, dense otherwise).
    """

    name = "Independent Caching"

    def __init__(self, engine: str = "dense") -> None:
        check_engine(engine, ConfigurationError)
        self.engine = engine

    def solve(self, instance: PlacementInstance) -> SolverResult:
        """Greedy: best (server, model) pair under knapsack storage."""
        start = time.perf_counter()
        placement = instance.new_placement()
        tracker = CoverageTracker(instance, engine=self.engine)
        gains = tracker.gain_matrix_view()
        sizes = instance.model_sizes
        remaining = instance.capacities.astype(np.int64)[:, None].copy()
        placed = placement.matrix
        num_models = instance.num_models

        # One masked argmax per step: pairs whose full model size fits
        # keep their gain, the rest read as -1. Placed pairs are exactly
        # 0.0 after mark_served, so `> 0` can never re-select them; the
        # final scalar check stops when no fitting pair gains anything.
        fit = np.empty((instance.num_servers, num_models), dtype=bool)
        value = np.empty(fit.shape)
        steps = 0
        while True:
            np.less_equal(sizes[None, :], remaining, out=fit)
            value.fill(-1.0)
            np.copyto(value, gains, where=fit)
            flat = int(np.argmax(value))
            server, model_index = divmod(flat, num_models)
            if (
                gains[server, model_index] <= 0.0
                or sizes[model_index] > remaining[server, 0]
            ):
                break
            placed[server, model_index] = True
            remaining[server, 0] -= int(sizes[model_index])
            tracker.mark_served(server, model_index)
            steps += 1
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

    engine: str = "dense"

    def build(self) -> "IndependentCaching":
        """Construct the solver (constructor performs validation)."""
        return IndependentCaching(engine=self.engine)
