"""TrimCaching Spec — the paper's Algorithm 1 + Algorithm 2.

The special case assumes a small, scale-independent number of shared
parameter blocks (models fine-tuned from a few pre-trained roots).
Algorithm 1 decomposes P1.1 into one sub-problem **P2.1m** per server,
solved *successively*: the indicator ``I2`` removes requests already served
by earlier servers, so per-server hit masses add up exactly (eq. 12).
The ``I2`` bookkeeping is :class:`~repro.core.objective.CoverageTracker`,
whose per-server utilities are the seed's user-by-user sums bit for bit
on instances with two or more models, so Spec's per-server masses equal
the seed ``ReferenceSpec``'s (``tests/oracles/reference.py``) on
inexact demand too.
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
* the combination set is memoised per library object and the
  sub-problem context (eligibility matrix, specific weights) per
  combination set, so a sweep that fixes the library across topologies
  pays for them once;
* a combination is a candidate only if some positive-utility eligible
  model's specific weight fits ``Q_m - d_N``. Any other combination's
  knapsack has no item and returns 0.0, which is never a strict
  improvement. The rank bounds still sum every eligible model, so the
  survivors keep their order and ties;
* the same mask is each candidate's knapsack item list, turned once per
  sub-problem into plain lists of item columns in input order. A
  knapsack call gathers its items from them, and a memoised table
  turns it into a key lookup and a backtrack; every backend sees the
  items its own input check would keep, in the same order, so its
  selection is unchanged;
* one traversal, :meth:`TrimCachingSpec._traverse`, walks the candidate
  combinations in chunks: one chunk inline, or with ``workers=N`` one
  chunk per thread of a pool. Every knapsack is deterministic given its
  (values, weights, capacity), cross-chunk pruning uses a strictly-weaker
  bound than the chunk's own incumbent, and the reduction replays the
  first-strict-improvement rule in combination order — so the selected
  models do not depend on the chunk count (asserted by the equivalence
  tests).
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dp import (
    COMBINATION_MODES,
    KNAPSACK_BACKENDS,
    CombinationSet,
    TableBlownError,
    ValueDpTables,
    enumerate_shared_combinations,
)
from repro.core.gen import check_plan_engine
from repro.core.objective import CoverageTracker, hit_ratio
from repro.core.placement import PlacementInstance
from repro.core.result import SolverResult
from repro.errors import ConfigurationError, SolverError

# Utility masses are sums of non-negative products: exact zeros, no dust.


class _SubproblemContext:
    """Server-independent precomputation shared by every sub-problem:
    specific weights, and eligibility as a dense ``(|A|, I)`` matrix read
    off the combination set's level matrix.

    The specific weights are every knapsack's weights, so they are
    checked here, once: integers and non-negative, else
    :class:`SolverError` before any knapsack runs.
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
        if self.specific_weight.dtype.kind not in "iu":
            raise SolverError("knapsack weights must be integers")
        if (self.specific_weight < 0).any():
            raise SolverError("knapsack weights must be non-negative")
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


#: Sub-problem contexts by the combination set they derive from. A
#: combination set belongs to one library, so every instance on it
#: (every sweep topology) reuses the context; the entry dies with it.
_CONTEXTS: "weakref.WeakKeyDictionary[CombinationSet, _SubproblemContext]" = (
    weakref.WeakKeyDictionary()
)


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
        :func:`~repro.core.dp.enumerate_shared_combinations`:
        ``"auto"``, ``"prefix"`` or ``"exhaustive"``.
    max_combinations:
        Abort threshold for ``|A|``, at least 1 (the general case blows
        this up — exactly why Algorithm 3 exists).
    server_order:
        Order in which sub-problems are solved: ``"index"`` (the paper),
        ``"capacity"`` (largest first) or ``"coverage"`` (most associated
        users first) — exposed for the ablation study.
    workers:
        Split each sub-problem's traversal into this many chunks, one
        per thread of a pool. ``None``/``1`` runs one chunk inline; any
        value produces byte-identical selections (see the module
        docstring).
    fallback:
        What ``value_dp`` falls back to when its rounded table blows up:
        ``"weight_dp"`` keeps the legacy quantised-DP → branch-and-bound
        chain (the default — that chain's output is part of the pinned
        seed series), ``"best_first"`` tries the exact best-first
        branch-and-bound first and only drops to the legacy rungs if its
        node budget overruns.
    knapsack_cache:
        Whether ``value_dp`` knapsacks share one
        :class:`~repro.core.dp.ValueDpTables` per solve, built for the
        largest server capacity and memoising each filtered
        sub-instance's table across combinations and servers. Off, each
        knapsack runs the same DP on a one-shot table built for its own
        capacity.
        Byte-identical selections either way; disable only to benchmark
        the unmemoised traversal.
    prefix_prune:
        Skip knapsacks whose density-ordered LP prefix bound — a
        conservative upper bound on the combo's optimum — cannot
        strictly beat the incumbent mass. Selection-transparent;
        disable only for benchmarking.
    reuse_library_cache:
        Memoise the combination set per library, and with it the
        sub-problem context (identical outputs; disable only to
        benchmark the uncached pipeline).
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
        fallback: str = "weight_dp",
        knapsack_cache: bool = True,
        prefix_prune: bool = True,
        reuse_library_cache: bool = True,
    ) -> None:
        if not 0 <= epsilon <= 1:  # also rejects NaN
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
        if combinations not in COMBINATION_MODES:
            raise ConfigurationError(
                f"combinations must be auto|prefix|exhaustive, got {combinations!r}"
            )
        if max_combinations < 1:
            raise ConfigurationError(
                f"max_combinations must be >= 1, got {max_combinations}"
            )
        if server_order not in ("index", "capacity", "coverage"):
            raise ConfigurationError(
                f"server_order must be index|capacity|coverage, got {server_order!r}"
            )
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
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
            coverage = instance.sparse_feasible.server_coverage_counts()
            servers.sort(key=lambda m: -int(coverage[m]))
        return servers

    def _run_knapsack(
        self,
        values: Sequence[float],
        weights: Sequence[int],
        capacity: int,
        tables: Optional[ValueDpTables] = None,
    ) -> Tuple[float, List[int]]:
        """One combination's knapsack over its filtered items (positive
        values, weights within ``capacity``); returns positions into
        them. ``value_dp`` solves through ``tables`` (one-shot when
        absent) and falls back along the configured chain when the
        rounded table blows up."""
        if self.backend != "value_dp":
            return KNAPSACK_BACKENDS[self.backend](values, weights, capacity)
        if tables is None:
            tables = ValueDpTables(self.epsilon, capacity, max_entries=0)
        try:
            return tables.solve(values, weights, capacity)
        except TableBlownError:
            # The rounded value table blew up (wide demand spread at a
            # small ε, typical for Zipf demand). Only that falls back:
            # any other SolverError here is a broken item contract.
            if self.fallback == "best_first":
                # Best-first expands only nodes whose LP bound beats
                # the incumbent — exact, and usually far cheaper than
                # the quantised DP on exactly these instances. Its
                # node budget bails out to the legacy rungs.
                try:
                    return KNAPSACK_BACKENDS["best_first"](values, weights, capacity)
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
            Thread pool that runs the traversal's chunks; ``None`` runs
            one chunk inline. ``solve`` owns one pool per call when
            ``workers > 1``. The selection does not depend on it.
        tables:
            The value-DP tables every ``value_dp`` knapsack solves
            through, built for a capacity of at least this server's;
            ``solve`` owns one per call, memoising when
            ``knapsack_cache`` is on. ``None`` gives each knapsack a
            one-shot table. Ignored by the other backends.

        Returns
        -------
        (best_mass, selected_model_indices)
        """
        if context is None:
            context = _SubproblemContext(instance, combos)
        capacity = int(instance.capacities[server])

        # Candidate combos: fit the capacity and have a positive-utility
        # eligible model whose specific weight fits what is left. The
        # knapsack of any other combo has no item and returns 0.0, which
        # is never a strict improvement, so dropping it changes no
        # selection. Each candidate's utility sum over all its eligible
        # models is an upper bound on what its knapsack can achieve;
        # traversing high-potential combos first lets the bound prune
        # the rest. This changes nothing about which combo wins — only
        # how many knapsacks actually run. Zero-utility models can
        # neither be eligible nor move a bound, so only positive columns
        # are kept.
        positive = np.flatnonzero(utilities > 0.0)
        fitting = np.flatnonzero(context.combo_sizes <= capacity)
        eligible_pos = context.eligible[np.ix_(fitting, positive)]
        residual = capacity - context.combo_sizes[fitting]
        positive_weights = context.specific_weight[positive]
        items = eligible_pos & (positive_weights <= residual[:, None])
        has_item = items.any(axis=1)
        if not has_item.any():
            return 0.0, []
        candidate_eligible = eligible_pos[has_item]
        positive_utilities = utilities[positive]
        bounds = _sequential_row_sums(candidate_eligible, positive_utilities)
        # Stable sort: ties keep combination enumeration order, exactly
        # like the seed's stable list sort.
        order = np.argsort(-bounds, kind="stable")
        bounds = bounds.tolist()
        candidate_residual = residual[has_item]
        lp_guard = None
        if self.prefix_prune and len(bounds) > 1:
            lp_guard = self._prefix_guards(
                positive_utilities,
                positive_weights,
                candidate_eligible,
                candidate_residual,
            ).tolist()

        # Every candidate's knapsack items, filtered here once: the
        # row-major nonzeros list each candidate's item columns in input
        # order, which is the order the backends' own input check keeps.
        # A knapsack only gathers its columns from these lists; at the
        # larger capacities most candidates are pruned, so no per-item
        # list is built for all of them.
        rows, cols = np.nonzero(items[has_item])
        starts = [0] + np.bincount(rows, minlength=len(bounds)).cumsum().tolist()
        cols = cols.tolist()
        values = positive_utilities.tolist()
        weights = positive_weights.tolist()
        models = positive.tolist()
        capacities = candidate_residual.tolist()

        def run_position(pos: int) -> Tuple[float, List[int]]:
            picks = cols[starts[pos] : starts[pos + 1]]
            mass, chosen = self._run_knapsack(
                tuple([values[col] for col in picks]),
                tuple([weights[col] for col in picks]),
                capacities[pos],
                tables,
            )
            return mass, [models[picks[item]] for item in chosen]

        return self._traverse(bounds, order.tolist(), run_position, pool, lp_guard)

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
    def _traverse(
        self,
        bounds: Sequence[float],
        order: Sequence[int],
        run_position: Callable[[int], Tuple[float, List[int]]],
        pool: Optional[ThreadPoolExecutor],
        lp_guard: Optional[Sequence[float]],
    ) -> Tuple[float, List[int]]:
        """Walk the candidates in ``order`` (descending ``bounds``);
        the first strict improvement wins.

        Ranks are dealt round-robin into chunks — one inline without a
        pool, else one per worker — so every chunk sees descending
        bounds. Pruning is conservative: within a chunk,
        ``bound <= local incumbent`` stops it (that incumbent came from
        an *earlier* rank); across chunks only the strict
        ``bound < shared incumbent`` does, since an equal-bound combo
        could still tie the final mass at an earlier rank. The LP prefix
        guards use the same two rules but skip instead of stop, as they
        are not sorted. So the earliest rank reaching the maximal mass is
        always computed, and the in-order scan at the end returns the
        same selection for every chunk count. With one chunk the two
        incumbents coincide.
        """
        num_chunks = 1
        if pool is not None and len(order) > 1:
            # Chunk count only shapes the work split — any value reduces
            # to the same selection — so a private-attr fallback is
            # harmless.
            num_chunks = max(
                self.workers or getattr(pool, "_max_workers", 0) or 1, 1
            )
        # Plain cell, racy check-then-set: a stale or lost update can only
        # LOWER the observed incumbent, which weakens pruning (extra
        # knapsacks run) but can never prune a combo that could be the
        # earliest maximal one — correctness needs no atomicity here.
        shared_best = [0.0]

        def run_chunk(start: int) -> List[Tuple[int, float, List[int]]]:
            results: List[Tuple[int, float, List[int]]] = []
            local_best = 0.0
            for rank in range(start, len(order), num_chunks):
                pos = order[rank]
                bound = bounds[pos]
                if bound <= local_best or bound < shared_best[0]:
                    break  # bounds descend within the chunk
                if lp_guard is not None and (
                    lp_guard[pos] <= local_best or lp_guard[pos] < shared_best[0]
                ):
                    continue
                mass, selection = run_position(pos)
                if mass > local_best:
                    # Only a chunk's strict improvements can be the
                    # earliest maximal rank; the rest need no record.
                    local_best = mass
                    results.append((rank, mass, selection))
                if mass > shared_best[0]:
                    shared_best[0] = mass
            return results

        if num_chunks == 1:
            merged = run_chunk(0)
        else:
            futures = [pool.submit(run_chunk, start) for start in range(num_chunks)]
            merged = [entry for future in futures for entry in future.result()]
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
        with obs.span("solve.spec", backend=self.backend):
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
                context = _CONTEXTS.get(combos)
                if context is None:
                    context = _CONTEXTS[combos] = _SubproblemContext(instance, combos)
            placement = instance.new_placement()
            tracker = CoverageTracker(instance)
            per_server_mass: List[float] = []
            tables: Optional[ValueDpTables] = None
            if self.knapsack_cache and self.backend == "value_dp":
                # Every knapsack's capacity is some Q_m - d_N <= max Q_m.
                tables = ValueDpTables(
                    self.epsilon, int(instance.capacities.max(initial=0))
                )
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
    #: Inert (see :data:`~repro.core.gen.PLAN_ENGINES`): recorded in
    #: plans, not built.
    engine: str = "dense"
    fallback: str = "weight_dp"
    knapsack_cache: bool = True
    prefix_prune: bool = True
    reuse_library_cache: bool = True

    def __post_init__(self) -> None:
        # Bad settings fail when a plan is declared or loaded, not when
        # it runs.
        check_plan_engine(self.engine)
        self.build()

    def build(self) -> "TrimCachingSpec":
        """Construct the solver (constructor performs validation)."""
        return TrimCachingSpec(
            epsilon=self.epsilon,
            backend=self.backend,
            combinations=self.combinations,
            max_combinations=self.max_combinations,
            server_order=self.server_order,
            workers=self.workers,
            fallback=self.fallback,
            knapsack_cache=self.knapsack_cache,
            prefix_prune=self.prefix_prune,
            reuse_library_cache=self.reuse_library_cache,
        )
