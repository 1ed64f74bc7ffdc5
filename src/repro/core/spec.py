"""TrimCaching Spec — the paper's Algorithm 1 + Algorithm 2.

The special case assumes a small, scale-independent number of shared
parameter blocks (models fine-tuned from a few pre-trained roots).
Algorithm 1 decomposes P1.1 into one sub-problem **P2.1m** per server,
solved *successively*: the indicator ``I2`` removes requests already served
by earlier servers, so per-server hit masses add up exactly (eq. 12).
Algorithm 2 solves each sub-problem by traversing shared-block
combinations ``N ∈ A`` and running a knapsack over the eligible models'
specific blocks within ``Q_m - d_N``.

Guarantees (Propositions 3-4, Theorems 1-2): with each sub-problem solved
(1-ε)-optimally the overall solution is within ``(1-ε)/2`` of optimal, in
time polynomial in ``M`` and ``I`` for fixed shared-block structure.

The pipeline around the algorithms is array-native and changes no
output bit:

* the combination set ``A`` is a
  :class:`~repro.core.dp.CombinationSet` — a ``(|A|, chains)`` level
  matrix with int64 sizes ``d_N`` — and model ``i`` is eligible under
  ``N`` iff ``choices[:, chain_i] >= level_i`` (or it has no shared
  block), one gather instead of per-combination set walks;
* each server's candidate bounds are one sequential ``np.cumsum``,
  bit-equal to the seed's left-to-right Python sum, so the traversal
  order and its tie-breaks are the seed's;
* the combination set and the per-library sub-problem context
  (eligibility matrix, specific weights) are memoised per library object,
  so a sweep that fixes the library across topologies pays for them once;
* ``workers=N`` fans each sub-problem's knapsack batch over a thread
  pool. Every knapsack is deterministic given its (values, weights,
  capacity), cross-worker pruning uses a strictly-weaker bound than the
  serial incumbent, and the reduction replays the serial first-strict-
  improvement rule in combination order — so the selected models are
  byte-identical to the serial traversal (asserted by the equivalence
  tests), merely computed concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dp import (
    KNAPSACK_BACKENDS,
    CombinationSet,
    ValueDpTables,
    enumerate_shared_combinations,
)
from repro.core.objective import CoverageTracker, check_engine, hit_ratio
from repro.core.placement import Placement, PlacementInstance
from repro.core.result import SolverResult
from repro.errors import ConfigurationError, SolverError

# Utility masses are sums of non-negative products: exact zeros, no dust.


class _SubproblemContext:
    """Per-solve precomputation shared by all per-server sub-problems.

    The seed implementation rebuilt, *per server*, each model's shared
    block set, its specific-block weight and — per combination — the
    eligible model list via Python subset checks (``O(M · |A| · I)`` set
    walks overall). All of that is server-independent, so it is built
    once per solve here, with eligibility as a dense ``(|A|, I)`` matrix
    read straight off the combination set's level matrix.
    """

    def __init__(self, instance: PlacementInstance, combos: CombinationSet) -> None:
        index = instance.block_index
        shared_ids = instance.library.shared_block_ids
        shared_cols = [index.block_pos[b] for b in sorted(shared_ids)]
        #: ``D_N(i) = D_i - d_{N,i}`` — the specific-block footprint,
        #: independent of N because a model is only eligible when ALL its
        #: shared blocks are in N.
        self.specific_weight = (
            index.model_sizes - index.member[:, shared_cols] @ index.sizes[shared_cols]
        )
        #: ``d_N`` per combination.
        self.combo_sizes = combos.sizes
        #: ``(|A|, I)`` bool: are ALL of model i's shared blocks in N?
        self.eligible = combos.eligibility(
            [blocks & shared_ids for blocks in instance.model_blocks]
        )


def _sequential_row_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of ``mask``, the sum of the selected ``values``.

    Added left to right in column order, exactly like the seed's
    ``float(sum(values[j] for j in row))``: a cumulative sum is
    sequential, and a masked-out column adds an exact ``+0.0``. A
    pairwise ``np.sum`` or a BLAS matvec can differ by an ulp, which is
    enough to reorder two combinations with nearly equal bounds.
    """
    return np.cumsum(mask * values, axis=1)[:, -1]


#: Per-library memo of sub-problem contexts, keyed by the combination
#: settings. The context depends only on library structure (block
#: membership, sizes) and the combination set — both fixed per library —
#: so instances sharing a library (every sweep topology) reuse it.
_CONTEXT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class TrimCachingSpec:
    """Algorithms 1+2: successive greedy with combination-indexed DP.

    Parameters
    ----------
    epsilon:
        Rounding parameter of Algorithm 2 (paper default 0.1). ``0``
        requests exact per-sub-problem solutions (branch-and-bound
        backend, as in the paper's Fig. 6 study).
    backend:
        Knapsack backend: ``"value_dp"`` (the paper's rounded DP),
        ``"weight_dp"``, or ``"exact"``. Defaults to ``"value_dp"`` for
        ``epsilon > 0`` and ``"exact"`` for ``epsilon == 0``.
    combinations:
        Combination-set mode passed to
        :func:`~repro.core.dp.enumerate_shared_combinations`.
    max_combinations:
        Abort threshold for ``|A|`` (the general case blows this up —
        exactly why Algorithm 3 exists).
    server_order:
        Order in which sub-problems are solved: ``"index"`` (the paper),
        ``"capacity"`` (largest first) or ``"coverage"`` (most associated
        users first) — exposed for the ablation study.
    workers:
        Fan each sub-problem's knapsack batch across this many threads.
        ``None``/``1`` keeps the serial traversal; any value produces
        byte-identical selections (see the module docstring).
    engine:
        Coverage engine for the successive ``I2`` bookkeeping:
        ``"dense"`` (bit-pinned to the seed), ``"sparse"`` (O(nnz) CSR
        walks) or ``"auto"`` (sparse on sparse-primary instances, dense
        otherwise).
    fallback:
        What ``value_dp`` falls back to when its rounded table blows up:
        ``"weight_dp"`` keeps the legacy quantised-DP → branch-and-bound
        chain (the default — that chain's output is part of the pinned
        seed series), ``"best_first"`` tries the exact best-first
        branch-and-bound first and only drops to the legacy rungs if its
        node budget overruns.
    knapsack_cache:
        Memoise the rounded value-DP tables per filtered sub-instance
        across combinations and servers (byte-identical selections;
        disable only to benchmark the uncached traversal).
    prefix_prune:
        Skip knapsacks whose density-ordered LP prefix bound — a
        conservative upper bound on the combo's optimum — cannot
        strictly beat the incumbent mass. Selection-transparent;
        disable only for benchmarking.
    reuse_library_cache:
        Memoise the combination set and sub-problem context per library
        (identical outputs; disable only to benchmark the uncached
        pipeline).
    """

    name = "TrimCaching Spec"

    def __init__(
        self,
        epsilon: float = 0.1,
        backend: Optional[str] = None,
        combinations: str = "auto",
        max_combinations: int = 200_000,
        server_order: str = "index",
        workers: Optional[int] = None,
        engine: str = "dense",
        fallback: str = "weight_dp",
        knapsack_cache: bool = True,
        prefix_prune: bool = True,
        reuse_library_cache: bool = True,
    ) -> None:
        if epsilon < 0 or epsilon > 1:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        if backend is None:
            backend = "exact" if epsilon == 0 else "value_dp"
        if backend not in KNAPSACK_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {sorted(KNAPSACK_BACKENDS)}, got {backend!r}"
            )
        if backend == "value_dp" and epsilon == 0:
            raise ConfigurationError(
                "value_dp requires epsilon > 0; use backend='exact' for ε=0"
            )
        if server_order not in ("index", "capacity", "coverage"):
            raise ConfigurationError(
                f"server_order must be index|capacity|coverage, got {server_order!r}"
            )
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        check_engine(engine, ConfigurationError)
        if fallback not in ("weight_dp", "best_first"):
            raise ConfigurationError(
                f"fallback must be weight_dp|best_first, got {fallback!r}"
            )
        self.epsilon = epsilon
        self.backend = backend
        self.combinations = combinations
        self.max_combinations = max_combinations
        self.server_order = server_order
        self.workers = workers
        self.engine = engine
        self.fallback = fallback
        self.knapsack_cache = knapsack_cache
        self.prefix_prune = prefix_prune
        self.reuse_library_cache = reuse_library_cache

    # ------------------------------------------------------------------
    def _ordered_servers(self, instance: PlacementInstance) -> List[int]:
        servers = list(range(instance.num_servers))
        if self.server_order == "capacity":
            servers.sort(key=lambda m: -int(instance.capacities[m]))
        elif self.server_order == "coverage":
            if instance.has_sparse or instance.is_sparse_primary:
                # Integer counting over the CSR — exactly the dense
                # any/sum, without densifying the tensor.
                coverage = instance.sparse_feasible.server_coverage_counts()
            else:
                coverage = instance.feasible.any(axis=2).sum(axis=1)
            servers.sort(key=lambda m: -int(coverage[m]))
        return servers

    def _context_for(
        self, instance: PlacementInstance, combos: CombinationSet
    ) -> _SubproblemContext:
        """The sub-problem context, memoised per library when enabled."""
        if not self.reuse_library_cache:
            return _SubproblemContext(instance, combos)
        per_library: Dict = _CONTEXT_CACHE.setdefault(instance.library, {})
        key = (self.combinations, self.max_combinations)
        context = per_library.get(key)
        if context is None:
            context = _SubproblemContext(instance, combos)
            per_library[key] = context
        return context

    def _run_knapsack(
        self,
        values: Sequence[float],
        weights: Sequence[int],
        capacity: int,
        tables: Optional[ValueDpTables] = None,
    ) -> Tuple[float, List[int]]:
        solver = KNAPSACK_BACKENDS[self.backend]
        if self.backend == "value_dp":
            try:
                if tables is not None:
                    return tables.solve(values, weights, capacity)
                return solver(values, weights, capacity, epsilon=self.epsilon)
            except SolverError:
                # The rounded value table blew up (wide demand spread at a
                # small ε, typical for Zipf demand).
                if self.fallback == "best_first":
                    # Best-first expands only nodes whose LP bound beats
                    # the incumbent — exact, and usually far cheaper than
                    # the quantised DP on exactly these instances. Its
                    # node budget bails out to the legacy rungs.
                    try:
                        return KNAPSACK_BACKENDS["best_first"](
                            values, weights, capacity
                        )
                    except SolverError:
                        pass
                # Legacy chain: the weight-quantised DP at ~800 capacity
                # units — exact up to <=1.25% capacity slack — and
                # finally branch-and-bound.
                try:
                    quantum = max(1, capacity // 800)
                    return KNAPSACK_BACKENDS["weight_dp"](
                        values, weights, capacity, quantum=quantum
                    )
                except SolverError:
                    return KNAPSACK_BACKENDS["exact"](values, weights, capacity)
        return solver(values, weights, capacity)

    # ------------------------------------------------------------------
    def solve_subproblem(
        self,
        instance: PlacementInstance,
        server: int,
        utilities: np.ndarray,
        combos: CombinationSet,
        context: Optional[_SubproblemContext] = None,
        pool: Optional[ThreadPoolExecutor] = None,
        tables: Optional[ValueDpTables] = None,
    ) -> Tuple[float, List[int]]:
        """Algorithm 2 on sub-problem P2.1m.

        Parameters
        ----------
        utilities:
            ``u(m, i)`` of eq. (14) for this server — demand mass served
            per model, already excluding requests earlier servers covered.
        combos:
            The combination set ``A``.
        context:
            Server-independent precomputation (eligibility matrix,
            specific weights). Built on the fly when absent; ``solve``
            builds it once and shares it across all servers.
        pool:
            Thread pool for the knapsack batch; ``None`` runs the serial
            traversal. ``solve`` owns one pool per call when
            ``workers > 1``. Both paths select identical models.
        tables:
            Memoised value-DP tables shared across combinations and
            servers; ``solve`` owns one per call when
            ``knapsack_cache`` is enabled. ``None`` solves uncached.

        Returns
        -------
        (best_mass, selected_model_indices)
        """
        if context is None:
            context = _SubproblemContext(instance, combos)
        capacity = int(instance.capacities[server])

        # Candidate combos: fit the capacity and can serve some positive
        # utility. Each candidate's utility sum over its eligible models
        # is an upper bound on what its knapsack can achieve; traversing
        # high-potential combos first lets the bound prune the rest. This
        # changes nothing about which combo wins — only how many
        # knapsacks actually run. Zero-utility models can neither be
        # eligible nor move a bound, so only positive columns are kept.
        positive = np.flatnonzero(utilities > 0.0)
        fitting = np.flatnonzero(context.combo_sizes <= capacity)
        eligible_pos = context.eligible[np.ix_(fitting, positive)]
        has_item = eligible_pos.any(axis=1)
        candidate_rows = fitting[has_item]
        if len(candidate_rows) == 0:
            return 0.0, []
        candidate_eligible = eligible_pos[has_item]
        positive_utilities = utilities[positive]
        bounds = _sequential_row_sums(candidate_eligible, positive_utilities)
        # Stable sort: ties keep combination enumeration order, exactly
        # like the seed's stable list sort.
        order = np.argsort(-bounds, kind="stable")
        bounds = bounds.tolist()
        lp_guard = None
        if self.prefix_prune and len(candidate_rows) > 1:
            lp_guard = self._prefix_guards(
                positive_utilities,
                context.specific_weight[positive],
                candidate_eligible,
                capacity - context.combo_sizes[candidate_rows],
            ).tolist()

        def run_rank(rank: int) -> Tuple[float, List[int]]:
            pos = order[rank]
            eligible = positive[candidate_eligible[pos]]
            combo_capacity = capacity - int(
                context.combo_sizes[candidate_rows[pos]]
            )
            if tables is not None and self.backend == "value_dp":
                mass, chosen = self._run_knapsack(
                    utilities[eligible],
                    context.specific_weight[eligible],
                    combo_capacity,
                    tables=tables,
                )
            else:
                mass, chosen = self._run_knapsack(
                    utilities[eligible].tolist(),
                    context.specific_weight[eligible].tolist(),
                    combo_capacity,
                )
            return mass, eligible[chosen].tolist() if chosen else []

        if pool is not None and len(order) > 1:
            return self._traverse_parallel(bounds, order, run_rank, pool, lp_guard)

        best_mass = 0.0
        best_selection: List[int] = []
        for rank, pos in enumerate(order.tolist()):
            if bounds[pos] <= best_mass:
                break  # sorted: no later combo can beat the incumbent
            if lp_guard is not None and lp_guard[pos] <= best_mass:
                # The combo's knapsack optimum is at most its LP prefix
                # bound: it cannot strictly improve, and only strict
                # improvements ever change the selection. Skip it.
                continue
            mass, selection = run_rank(rank)
            if mass > best_mass:
                best_mass = mass
                best_selection = selection
        return best_mass, best_selection

    # ------------------------------------------------------------------
    @staticmethod
    def _prefix_guards(
        values: np.ndarray,
        weights: np.ndarray,
        candidate_eligible: np.ndarray,
        residual: np.ndarray,
    ) -> np.ndarray:
        """Per-candidate LP prefix bounds on the knapsack optimum.

        For each candidate combo, greedily fill its ``residual`` capacity
        with eligible items in decreasing value density and add the
        *full* value of the first item that no longer fits — the
        classical LP-relaxation upper bound, rounded up. Computed as one
        masked cumulative sum over the density-sorted item axis for all
        candidates at once. A relative safety margin covers the float
        reduction error, so a combo is only skipped when its true
        achievable mass provably cannot exceed the incumbent — pruning
        with these bounds is selection-transparent.
        """
        specific = weights.astype(float)
        density = values / np.maximum(specific, 1e-12)
        perm = np.argsort(-density, kind="stable")
        sorted_weights = specific[perm]
        sorted_values = values[perm]
        eligible_sorted = candidate_eligible[:, perm]
        cum_weight = np.cumsum(eligible_sorted * sorted_weights, axis=1)
        cum_value = np.cumsum(eligible_sorted * sorted_values, axis=1)
        # cum_weight is non-decreasing along the item axis, so the fits
        # mask is a prefix and its sum is the prefix length.
        prefix_len = (cum_weight <= residual.astype(float)[:, None]).sum(axis=1)
        rows = np.arange(candidate_eligible.shape[0])
        prefix_value = np.where(
            prefix_len > 0, cum_value[rows, np.maximum(prefix_len - 1, 0)], 0.0
        )
        # The first position past the prefix is where cum_weight jumped
        # above the residual — necessarily an eligible item (ineligible
        # positions leave cum_weight flat), the LP break item.
        num_items = sorted_values.shape[0]
        break_value = np.where(
            prefix_len < num_items,
            sorted_values[np.minimum(prefix_len, num_items - 1)],
            0.0,
        )
        return (prefix_value + break_value) * (1.0 + 1e-9)

    # ------------------------------------------------------------------
    def _traverse_parallel(
        self,
        bounds: Sequence[float],
        order: np.ndarray,
        run_rank,
        pool: ThreadPoolExecutor,
        lp_guard: Optional[np.ndarray] = None,
    ) -> Tuple[float, List[int]]:
        """Fan the knapsack batch over ``pool``, byte-identical reduce.

        Ranks are dealt round-robin so every worker sees a descending
        subsequence of bounds. Pruning is provably conservative:

        * within a chunk, ``bound <= local incumbent`` prunes — the
          incumbent was achieved by an *earlier* rank, exactly the serial
          stopping rule restricted to a subsequence;
        * across chunks, only the strict ``bound < shared incumbent``
          prunes, because an equal-bound combo could still tie the final
          mass at an earlier rank and serial keeps the earliest winner.

        The LP prefix guards are applied per rank with the same two
        rules (``<=`` local, strict ``<`` shared) but *skip* instead of
        break — they are not sorted along the traversal. A skipped combo
        either cannot strictly beat an earlier-rank incumbent or cannot
        be the maximal mass at all, so the replay below is unaffected.

        The earliest rank achieving the maximal mass is therefore always
        computed, and the in-order first-strict-improvement scan below
        returns exactly the serial traversal's selection.
        """
        # Chunk count only shapes the work split — any value reduces to
        # the same selection — so a private-attr fallback is harmless.
        num_workers = max(
            self.workers or getattr(pool, "_max_workers", 0) or 1, 1
        )
        # Plain cell, racy check-then-set: a stale or lost update can only
        # LOWER the observed incumbent, which weakens pruning (extra
        # knapsacks run) but can never prune a combo the serial traversal
        # would have computed — correctness needs no atomicity here.
        shared_best = [0.0]

        def run_chunk(start: int) -> List[Tuple[int, float, List[int]]]:
            results: List[Tuple[int, float, List[int]]] = []
            local_best = 0.0
            for rank in range(start, len(order), num_workers):
                pos = order[rank]
                bound = bounds[pos]
                if bound <= local_best or bound < shared_best[0]:
                    break  # bounds descend within the chunk
                if lp_guard is not None and (
                    lp_guard[pos] <= local_best or lp_guard[pos] < shared_best[0]
                ):
                    continue
                mass, selection = run_rank(rank)
                results.append((rank, mass, selection))
                if mass > local_best:
                    local_best = mass
                if mass > shared_best[0]:
                    shared_best[0] = mass
            return results

        futures = [
            pool.submit(run_chunk, start) for start in range(num_workers)
        ]
        merged: List[Tuple[int, float, List[int]]] = []
        for future in futures:
            merged.extend(future.result())
        merged.sort(key=lambda entry: entry[0])
        best_mass = 0.0
        best_selection: List[int] = []
        for _, mass, selection in merged:
            if mass > best_mass:
                best_mass = mass
                best_selection = selection
        return best_mass, best_selection

    # ------------------------------------------------------------------
    def solve(self, instance: PlacementInstance) -> SolverResult:
        """Run Algorithm 1 over all servers."""
        from repro import obs

        start = time.perf_counter()
        with obs.span("solve.spec", backend=self.backend, engine=self.engine):
            if not instance.library.specific_blocks_are_exclusive():
                raise SolverError(
                    "Spec requires specific blocks to be model-exclusive "
                    "(additive DP weights); this library violates that"
                )
            with obs.span("solve.spec.combinations"):
                combos = enumerate_shared_combinations(
                    instance.library,
                    self.combinations,
                    self.max_combinations,
                    cache=self.reuse_library_cache,
                )
            with obs.span("solve.spec.context"):
                context = self._context_for(instance, combos)
            placement = instance.new_placement()
            tracker = CoverageTracker(instance, engine=self.engine)
            per_server_mass: List[float] = []
            tables: Optional[ValueDpTables] = None
            if self.knapsack_cache and self.backend == "value_dp":
                tables = ValueDpTables(self.epsilon)
            pool: Optional[ThreadPoolExecutor] = None
            if self.workers is not None and self.workers > 1:
                pool = ThreadPoolExecutor(max_workers=self.workers)
            try:
                with obs.span("solve.spec.traverse"):
                    for server in self._ordered_servers(instance):
                        utilities = tracker.server_gains(server)  # I2 applied
                        mass, selection = self.solve_subproblem(
                            instance,
                            server,
                            utilities,
                            combos,
                            context,
                            pool=pool,
                            tables=tables,
                        )
                        for model_index in selection:
                            placement.add(server, model_index)
                        tracker.mark_server_models(server, selection)
                        per_server_mass.append(mass)
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
            stats = {
                "num_combinations": len(combos),
                "epsilon": self.epsilon,
                "backend": self.backend,
                "workers": self.workers or 1,
                "per_server_mass": per_server_mass,
            }
            if tables is not None:
                stats["knapsack_cache_hits"] = tables.hits
                stats["knapsack_cache_misses"] = tables.misses
                obs.count("repro_solver_knapsack_dp_hits_total", tables.hits)
                obs.count("repro_solver_knapsack_dp_misses_total", tables.misses)
            hit = hit_ratio(instance, placement)
        return SolverResult(
            placement=placement,
            hit_ratio=hit,
            runtime_s=time.perf_counter() - start,
            solver=self.name,
            stats=stats,
        )


@dataclass(frozen=True)
class SpecConfig:
    """Typed constructor knobs of :class:`TrimCachingSpec`.

    Registered in :data:`repro.api.SOLVERS` under ``"spec"``; declarative
    plans carry this dataclass instead of a constructed solver so they
    stay JSON-serialisable.
    """

    epsilon: float = 0.1
    backend: Optional[str] = None
    combinations: str = "auto"
    max_combinations: int = 200_000
    server_order: str = "index"
    workers: Optional[int] = None
    engine: str = "dense"
    fallback: str = "weight_dp"
    knapsack_cache: bool = True
    prefix_prune: bool = True
    reuse_library_cache: bool = True

    def build(self) -> "TrimCachingSpec":
        """Construct the solver (constructor performs validation)."""
        return TrimCachingSpec(
            epsilon=self.epsilon,
            backend=self.backend,
            combinations=self.combinations,
            max_combinations=self.max_combinations,
            server_order=self.server_order,
            workers=self.workers,
            engine=self.engine,
            fallback=self.fallback,
            knapsack_cache=self.knapsack_cache,
            prefix_prune=self.prefix_prune,
            reuse_library_cache=self.reuse_library_cache,
        )
