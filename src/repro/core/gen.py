"""TrimCaching Gen — the paper's Algorithm 3 (general-case greedy).

Each step caches the (server, model) pair with the largest marginal
hit-ratio gain whose *deduplicated* marginal storage fits the server's
remaining capacity, repeating until nothing useful fits. Guarantee: 1/Γ of
optimal (Theorem 3) — not constant, matching Proposition 2.

Two implementations with provably identical output are provided, both
driven by the incremental :class:`~repro.core.objective.CoverageTracker`
(maintained gain matrix, one CSR kernel) and :class:`~repro.core.blockmask.
ServerBlockCache` (exact integer marginal-storage table):

* ``accelerated=False`` — the literal algorithm: re-scan all (m, i) pairs
  per step (per-server stable argsort, exactly the seed's scan order).
* ``accelerated=True`` (default) — :func:`greedy_place`, the one greedy
  loop in the repo: Gen runs it with a block cache, Independent Caching
  without one (full model sizes), and the resident service on clones of
  its warm tracker and of its resident block cache (whose delta table
  the clones share). It keeps an ``(M, I)`` candidate matrix holding each
  pair's gain where the pair's marginal bytes fit and ``-1`` elsewhere.
  A step is one ``argmax`` over it; placing (m, i) only changes row ``m``
  of the storage table and remaining capacity and column ``i`` of the
  gains, so the matrix is refreshed on that row and column — ``O(M + I)``
  plus the tracker's column update — and stays equal to a full rebuild.
  ``np.argmax`` returns the first (row-major) maximiser: the same
  lowest-server-then-lowest-model tie-break as the literal scan.

The seed implementations are retained verbatim as test oracles in
``tests/oracles/reference.py``; the equivalence tests assert
bit-identical placements against them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.blockmask import ServerBlockCache
from repro.core.objective import CoverageTracker
from repro.core.placement import Placement, PlacementInstance
from repro.core.result import SolverResult
from repro.errors import ConfigurationError

#: Values the inert ``engine`` field of :class:`GenConfig`,
#: :class:`~repro.core.spec.SpecConfig` and
#: :class:`~repro.core.independent.IndependentConfig` accepts. The
#: coverage tracker has one kernel, so the field selects nothing; it
#: stays only so saved plans, and the plan digests the repo benchmark
#: records, keep loading. It leaves with the benchmark change of ROADMAP
#: item 2.
PLAN_ENGINES = ("dense", "sparse", "auto")


def check_plan_engine(engine: str) -> None:
    """Refuse an ``engine`` value that no saved plan carries."""
    if engine not in PLAN_ENGINES:
        raise ConfigurationError(
            f"engine must be {'|'.join(PLAN_ENGINES)}, got {engine!r}"
        )


# Gains are sums of non-negative products (demand x indicator), so a true
# zero gain is exactly 0.0 and strict comparisons need no epsilon floor.


def greedy_place(
    instance: PlacementInstance,
    tracker: CoverageTracker,
    cache: Optional[ServerBlockCache] = None,
) -> Tuple[Placement, int]:
    """The masked-argmax greedy of Gen, Independent and the service.

    Caches, step by step, the pair with the largest gain among those
    whose marginal bytes fit the server's remaining capacity, until no
    fitting pair gains anything. ``cache`` set: deduplicated marginals
    (Gen; the cache is updated in place); ``None``: full model sizes
    (Independent). ``tracker`` is marked in place and must start
    unmarked. Returns the placement and the number of steps.

    A step is one ``argmax`` over preallocated candidate values
    ``where(fit, gains, -1)``, refreshed in place on the placed pair's
    column and row. Two invariants keep that exact:

    * *Stop test.* Gains are ``>= 0`` and misfits hold ``-1``, so
      ``values[argmax] <= 0`` holds exactly when the best pair misfits or
      gains nothing — the two-part test of the literal scan.
    * *Column refresh.* Placing (s, m) changes only column m of the gains
      and row s of the fits. Outside row s the column's fits are
      unchanged, so ``values[:, m] >= 0`` is already its fit mask; row s
      is then rewritten whole from its marginals.
    """
    placement = instance.new_placement()
    gains = tracker.gain_matrix_view()
    sizes = instance.model_sizes
    extras = (
        cache.extras if cache is not None else np.broadcast_to(sizes, gains.shape)
    )
    remaining = instance.capacities.astype(np.int64)
    placed = placement.matrix
    num_models = instance.num_models

    # Placed pairs need no mask of their own: marking (m, i) served
    # zeroes gains[m, i] exactly (every product in its column refresh is
    # 0.0), so the stop test can never re-select them.
    values = np.where(extras <= remaining[:, None], gains, -1.0)
    if values.size == 0:  # no servers: argmax has nothing to choose from
        return placement, 0
    column_fit = np.empty(values.shape[0], dtype=bool)
    row_fit = np.empty(num_models, dtype=bool)
    steps = 0
    while True:
        flat = int(values.argmax())
        if values.item(flat) <= 0.0:
            break
        server, model_index = divmod(flat, num_models)
        placed[server, model_index] = True
        if cache is not None:
            remaining[server] -= cache.add(server, model_index)
        else:
            remaining[server] -= sizes[model_index]
        tracker.mark_served(server, model_index)
        column = values[:, model_index]
        np.greater_equal(column, 0.0, out=column_fit)
        np.copyto(column, gains[:, model_index], where=column_fit)
        row = values[server]
        np.less_equal(extras[server], remaining[server], out=row_fit)
        row.fill(-1.0)
        np.copyto(row, gains[server], where=row_fit)
        steps += 1
    return placement, steps


class TrimCachingGen:
    """Algorithm 3: greedy placement for arbitrary parameter sharing.

    Parameters
    ----------
    accelerated:
        Use the vectorised masked-argmax loop (identical output, faster).
    fill_zero_gain:
        The paper's loop runs "until no server can cache any model", which
        would also cache models with zero marginal gain. Those placements
        never change ``U``; by default we stop early instead. Enable to
        mimic the literal stopping rule (useful as warm spare capacity).
    """

    name = "TrimCaching Gen"

    def __init__(
        self,
        accelerated: bool = True,
        fill_zero_gain: bool = False,
    ) -> None:
        self.accelerated = accelerated
        self.fill_zero_gain = fill_zero_gain

    # ------------------------------------------------------------------
    def solve(self, instance: PlacementInstance) -> SolverResult:
        """Run the greedy until no (positive-gain) pair fits."""
        from repro import obs

        start = time.perf_counter()
        with obs.span("solve.gen") as handle:
            if self.accelerated:
                placement, steps, tracker = self._solve_vectorized(instance)
            else:
                placement, steps, tracker = self._solve_naive(instance)
            handle["steps"] = steps
        obs.count("repro_solver_greedy_steps_total", steps)
        if self.fill_zero_gain:
            self._fill_remaining(instance, placement)
            from repro.core.objective import hit_ratio  # local: import cycle

            # Zero-gain filler changes `served` (zero-demand users), so
            # recompute from the final placement.
            ratio = hit_ratio(instance, placement)
        else:
            # The tracker's served matrix is exactly the placement's
            # served matrix, so its ratio equals a full recompute.
            ratio = tracker.hit_ratio()
        return SolverResult(
            placement=placement,
            hit_ratio=ratio,
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats={"greedy_steps": steps, "accelerated": self.accelerated},
        )

    # ------------------------------------------------------------------
    def _solve_naive(
        self, instance: PlacementInstance
    ) -> Tuple[Placement, int, CoverageTracker]:
        placement = instance.new_placement()
        tracker = CoverageTracker(instance)
        cache = ServerBlockCache(instance.block_index, instance.num_servers)
        steps = 0
        while True:
            gains = tracker.gain_matrix()
            gains[placement.matrix] = -1.0  # already placed
            best_gain = -1.0
            best_pair = None
            for server in range(instance.num_servers):
                remaining = int(instance.capacities[server] - cache.used[server])
                extras = cache.marginal_row(server)
                if remaining == 0 and not np.any(
                    (extras == 0) & (gains[server] > 0.0)
                ):
                    # Full server: only a zero-marginal (fully shared)
                    # model could still be cached — skip only when none
                    # qualifies, it is legal to cache at exact capacity.
                    continue
                order = np.argsort(-gains[server], kind="stable")
                for model_index in order:
                    gain = gains[server, model_index]
                    if gain <= best_gain or gain <= 0.0:
                        break
                    if extras[model_index] <= remaining:
                        best_gain = gain
                        best_pair = (server, int(model_index))
                        break
            if best_pair is None:
                break
            server, model_index = best_pair
            placement.add(server, model_index)
            cache.add(server, model_index)
            tracker.mark_served(server, model_index)
            steps += 1
        return placement, steps, tracker

    # ------------------------------------------------------------------
    def _solve_vectorized(
        self, instance: PlacementInstance
    ) -> Tuple[Placement, int, CoverageTracker]:
        from repro import obs

        with obs.span("solve.gen.tracker_init"):
            tracker = CoverageTracker(instance)
        cache = ServerBlockCache(instance.block_index, instance.num_servers)
        # One span brackets the whole loop (a per-step span would cost
        # more than the masked argmax it measures).
        with obs.span("solve.gen.greedy"):
            placement, steps = greedy_place(instance, tracker, cache)
        return placement, steps, tracker

    # ------------------------------------------------------------------
    def _fill_remaining(
        self, instance: PlacementInstance, placement: Placement
    ) -> None:
        """Literal stopping rule: keep caching (zero-gain) models while any fits.

        Runs on :class:`ServerBlockCache` marginal tables instead of the
        former Python-set walk; all arithmetic is exact integers, so the
        filled placements are identical to the set-based version.
        """
        cache = ServerBlockCache.from_placement(
            instance.block_index, placement.matrix
        )
        for server in range(instance.num_servers):
            remaining = int(instance.capacities[server] - cache.used[server])
            extras = cache.marginal_row(server)  # updated in place by add()
            for model_index in range(instance.num_models):
                if placement.contains(server, model_index):
                    continue
                if extras[model_index] <= remaining:
                    placement.add(server, model_index)
                    remaining -= cache.add(server, model_index)


@dataclass(frozen=True)
class GenConfig:
    """Typed constructor knobs of :class:`TrimCachingGen`.

    Registered in :data:`repro.api.SOLVERS` under ``"gen"``; declarative
    plans carry this dataclass instead of a constructed solver so they
    stay JSON-serialisable.
    """

    accelerated: bool = True
    fill_zero_gain: bool = False
    #: Inert (see :data:`PLAN_ENGINES`): recorded in plans, not built.
    engine: str = "dense"

    def __post_init__(self) -> None:
        check_plan_engine(self.engine)

    def build(self) -> "TrimCachingGen":
        """Construct the solver."""
        return TrimCachingGen(
            accelerated=self.accelerated,
            fill_zero_gain=self.fill_zero_gain,
        )
