"""Objective ``U(X)`` (eq. 2), storage cost ``g_m`` (eq. 7), feasibility.

Also provides :class:`CoverageTracker`, the incremental-evaluation engine
shared by the greedy solvers: it maintains which (user, model) requests are
already served and answers marginal-gain queries in vectorised form. The
tracker has two engines over the same state:

* ``"dense"`` (default) — column refreshes run the einsum kernel on
  column views, bit-identical to the frozen seed's from-scratch
  recompute (:mod:`repro.core.reference`);
* ``"sparse"`` — column refreshes walk only the CSR nonzeros, ``O(nnz)``
  instead of ``O(M·K)``.

``"auto"`` resolves to ``"sparse"`` on sparse-primary instances and to
``"dense"`` otherwise; :data:`COVERAGE_ENGINES` is the one list of
accepted engine names.

:func:`served_matrix` picks the O(nnz) walk automatically whenever the
instance carries the CSR artifact — boolean output, so the sparse walk is
*exactly* the dense einsum's result, not merely close.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.placement import Placement, PlacementInstance
from repro.errors import PlacementError


#: Coverage engines accepted by :class:`CoverageTracker` and by every
#: solver that builds one; ``"auto"`` resolves per instance.
COVERAGE_ENGINES = ("dense", "sparse", "auto")


def check_engine(engine: str, error: type = PlacementError) -> None:
    """Raise ``error`` unless ``engine`` is one of :data:`COVERAGE_ENGINES`."""
    if engine not in COVERAGE_ENGINES:
        raise error(
            f"engine must be {'|'.join(COVERAGE_ENGINES)}, got {engine!r}"
        )


def _check_shapes(instance: PlacementInstance, placement: Placement) -> None:
    expected = (instance.num_servers, instance.num_models)
    if placement.matrix.shape != expected:
        raise PlacementError(
            f"placement shape {placement.matrix.shape} does not match instance {expected}"
        )


def served_matrix(
    instance: PlacementInstance,
    placement: Placement,
    feasible: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(K, I)`` boolean: is request (k, i) served by some server?

    ``feasible`` overrides the instance's ``I1`` tensor (used when
    evaluating a placement under faded rates instead of expected rates).
    Without an override, a sparse-primary instance is walked in O(nnz)
    via its CSR artifact; the result is exactly the dense einsum's.
    """
    _check_shapes(instance, placement)
    if feasible is None:
        if instance.has_sparse or instance.is_sparse_primary:
            return instance.sparse_feasible.served_matrix(placement.matrix)
        feas = instance.feasible
    else:
        feas = feasible
        if feas.shape != instance.feasible_shape:
            raise PlacementError(
                f"feasibility tensor must have shape {instance.feasible_shape}"
            )
    # served[k, i] = OR_m (x[m, i] AND I1[m, k, i])
    return np.einsum("mki,mi->ki", feas, placement.matrix) > 0


def hit_ratio(
    instance: PlacementInstance,
    placement: Placement,
    feasible: Optional[np.ndarray] = None,
) -> float:
    """The expected cache hit ratio ``U(X)`` of eq. (2)."""
    served = served_matrix(instance, placement, feasible)
    return float((instance.demand * served).sum() / instance.total_demand)


def storage_used(instance: PlacementInstance, placement: Placement, server: int) -> int:
    """Deduplicated bytes used on ``server``: ``g_m(X_m)`` of eq. (7)."""
    _check_shapes(instance, placement)
    return instance.dedup_storage(placement.models_on(server))


def independent_storage_used(
    instance: PlacementInstance, placement: Placement, server: int
) -> int:
    """Bytes used on ``server`` when models are stored without sharing."""
    _check_shapes(instance, placement)
    return int(sum(instance.model_sizes[i] for i in placement.models_on(server)))


def placement_is_feasible(
    instance: PlacementInstance,
    placement: Placement,
    *,
    deduplicate: bool = True,
) -> bool:
    """Does the placement respect every server's capacity?

    ``deduplicate=False`` applies the Independent-Caching storage
    accounting (full model sizes, knapsack constraint).
    """
    for server in range(instance.num_servers):
        if deduplicate:
            used = storage_used(instance, placement, server)
        else:
            used = independent_storage_used(instance, placement, server)
        if used > instance.capacities[server]:
            return False
    return True


class CoverageTracker:
    """Incremental coverage bookkeeping for greedy solvers.

    Tracks which (user, model) requests are currently served and exposes:

    * :meth:`gain` — marginal hit-probability mass of adding (m, i);
    * :meth:`gain_matrix` — all marginal gains at once, shape ``(M, I)``;
    * :meth:`mark_served` — update after a placement step.

    All gains are *unnormalised* (probability mass, not ratio); divide by
    ``instance.total_demand`` to convert.

    The ``(M, I)`` gain matrix is *maintained* rather than recomputed:
    caching (m, i) only changes column ``i`` (the users it newly serves
    stop counting toward every server that could reach them), so
    :meth:`mark_served` refreshes that one column instead of running the
    full ``O(M·K·I)`` einsum. Two refresh engines are available:

    ``engine="dense"`` (default)
        ``O(M·K)`` per refresh; runs the same einsum kernel on column
        *views* of the same arrays the full recompute would use
        (identical dtypes and stride patterns, hence identical
        accumulation order), which keeps the maintained matrix
        bit-identical to the seed's from-scratch recompute — greedy
        tie-breaking is unaffected. Enforced by the equivalence tests
        against :mod:`repro.core.reference`, which assert exact equality.

    ``engine="sparse"``
        ``O(nnz of the column)`` per refresh via the instance's CSR
        artifact (a bincount over the column's feasible entries). The
        ``served``/``unserved_demand`` state stays *exactly* equal to the
        dense engine's (boolean updates and exact zeroing only), but the
        gain sums reduce fewer terms than the einsum and may differ from
        it in final ulps — so greedy placements are pinned to the seed at
        the placement level (empirically identical on the equivalence
        grids) rather than bit-by-bit through the gains.

    ``engine="auto"`` picks ``"sparse"`` for sparse-primary instances and
    ``"dense"`` for the rest.
    """

    def __init__(self, instance: PlacementInstance, engine: str = "dense") -> None:
        check_engine(engine)
        if engine == "auto":
            engine = "sparse" if instance.is_sparse_primary else "dense"
        self.instance = instance
        self.engine = engine
        self.served = np.zeros(
            (instance.num_users, instance.num_models), dtype=bool
        )
        #: ``(K, I)`` demand mass not yet served, maintained per column.
        self._weighted = instance.demand * ~self.served
        # Flat aliases of the same buffers (never rebound — all updates
        # are in place), for 1-D gathers and scatters against the CSR
        # entry_flat_index.
        self._wflat = self._weighted.reshape(-1)
        self._sflat = self.served.reshape(-1)
        if engine == "sparse":
            sparse = instance.sparse_feasible
            self._sparse = sparse
            num_servers = instance.num_servers
            self._gains = np.zeros(
                (num_servers, instance.num_models), dtype=float
            )
            for model_index in range(instance.num_models):
                servers, users = sparse.column_entries(model_index)
                self._gains[:, model_index] = np.bincount(
                    servers,
                    weights=self._weighted[users, model_index],
                    minlength=num_servers,
                )
        else:
            self._sparse = None
            self._gains = np.einsum(
                "mki,ki->mi", instance.feasible, self._weighted
            )

    def unserved_demand(self) -> np.ndarray:
        """``(K, I)`` demand mass not yet served."""
        return self._weighted.copy()

    def gain(self, server: int, model_index: int) -> float:
        """Marginal mass served by caching ``model_index`` on ``server``."""
        return float(self._gains[server, model_index])

    def gain_matrix(self) -> np.ndarray:
        """``(M, I)`` marginal masses for every (server, model) pair."""
        return self._gains.copy()

    def gain_matrix_view(self) -> np.ndarray:
        """The maintained ``(M, I)`` gain matrix itself (do not mutate)."""
        return self._gains

    def server_gains(self, server: int) -> np.ndarray:
        """``(I,)`` marginal masses for one server (the Spec sub-problem's
        ``u(m, i)`` values of eq. (14), with ``I2`` implicit in
        ``self.served``)."""
        return self._gains[server].copy()

    def _refresh_column(self, model_index: int) -> None:
        """Re-run this engine's exact gain kernel for one column.

        This is the single refresh primitive: :meth:`mark_served` and the
        demand-delta operations both end here, so a refreshed column is
        always the product of the same kernel (same accumulation order,
        same bits) as the initial build.
        """
        if self._sparse is not None:
            sparse = self._sparse
            # Same entries in the same order as the (servers, users)
            # column view, gathered flat (entry_flat_index[j] addresses
            # weighted[users[j], model_index]) — identical bincount input.
            num_servers = self.instance.num_servers
            start = sparse.pair_indptr[model_index * num_servers]
            stop = sparse.pair_indptr[(model_index + 1) * num_servers]
            self._gains[:, model_index] = np.bincount(
                sparse.entry_servers[start:stop],
                weights=self._wflat[sparse.entry_flat_index()[start:stop]],
                minlength=num_servers,
            )
            return
        # Column views of the same arrays the full einsum would reduce:
        # same kernel, same accumulation order, same bits.
        self._gains[:, model_index] = np.einsum(
            "mk,k->m",
            self.instance.feasible[:, :, model_index],
            self._weighted[:, model_index],
        )

    def mark_served(self, server: int, model_index: int) -> None:
        """Record that (server, model) is now cached."""
        if self._sparse is not None:
            self._mark_served_sparse(server, model_index)
            return
        feas = self.instance.feasible[server, :, model_index]
        served_col = self.served[:, model_index]
        newly = feas > served_col  # feasible and not yet served
        if not newly.any():
            return
        served_col |= feas
        # Still-unserved entries keep their exact bits; newly served ones
        # become exactly 0.0 — identical to recomputing demand * ~served.
        self._weighted[:, model_index][newly] = 0.0
        self._refresh_column(model_index)

    def _mark_served_sparse(self, server: int, model_index: int) -> None:
        """O(column nnz) refresh over the CSR artifact."""
        sparse = self._sparse
        row = model_index * self.instance.num_servers + server
        start, stop = sparse.pair_indptr[row : row + 2].tolist()
        if start == stop:
            return
        # No all-served early-out: on the greedy path the chosen pair
        # always has positive gain (some pair user unserved), so the
        # check would be pure per-mark overhead; re-marking a fully
        # served pair just recomputes the same column bits. The flat
        # indices address exactly (pair_users, model_index) in both
        # (K, I) buffers; newly served users' remaining mass becomes
        # exactly 0.0, as in the dense engine.
        flat = sparse.entry_flat_index()[start:stop]
        self._sflat[flat] = True
        self._wflat[flat] = 0.0
        self._refresh_column(model_index)

    # ------------------------------------------------------------------
    # Delta operations (the serving layer's warm re-solve). The coverage
    # masks are demand-independent given the mark sequence — mark_served
    # marks every feasible user of the pair regardless of current demand —
    # so demand mutations only require re-syncing the unserved mass and
    # re-running the exact column kernel on the affected columns.

    def clone(self) -> "CoverageTracker":
        """An independent copy of the tracker state.

        The instance and CSR artifact are shared (read-only here); the
        ``served``/``unserved``/gain arrays are copied, so marks on the
        clone never touch the original. Bitwise, a clone is the tracker.
        """
        new = object.__new__(CoverageTracker)
        new.instance = self.instance
        new.engine = self.engine
        new._sparse = self._sparse
        new.served = self.served.copy()
        new._sflat = new.served.reshape(-1)
        new._weighted = self._weighted.copy()
        new._wflat = new._weighted.reshape(-1)
        new._gains = self._gains.copy()
        return new

    def refresh_columns(
        self, columns: Iterable[int], user: Optional[int] = None
    ) -> None:
        """Re-sync columns after ``instance.demand`` changed in place.

        Per column: ``weighted = demand * ~served`` recomputed elementwise
        (the constructor's expression, restricted to the column — still
        unserved entries get ``d * 1.0 == d`` bit-exactly, served ones
        ``d * 0.0 == +0.0``), then the engine's exact column kernel. The
        result equals a fresh tracker build on the mutated demand followed
        by replaying this tracker's mark sequence, bit for bit.

        ``user``, when given, promises that only that user's demand row
        changed: the elementwise resync is restricted to that row (the
        other rows' recompute would reproduce their bits unchanged).
        """
        demand = self.instance.demand
        if self._sparse is not None:
            cols = np.asarray(columns, dtype=np.intp)
            if cols.size == 0:
                return
            # Batched form of the per-column loop below, one kernel run
            # for the whole column set. Bit-identical: the multiply is
            # elementwise, and np.bincount accumulates strictly in input
            # order, so concatenating the columns' CSR entries (each
            # column's order preserved) yields the same per-bin partial
            # sums as one bincount per column.
            if user is None:
                self._weighted[:, cols] = (
                    demand[:, cols] * ~self.served[:, cols]
                )
            else:
                self._weighted[user, cols] = (
                    demand[user, cols] * ~self.served[user, cols]
                )
            sparse = self._sparse
            num_servers = self.instance.num_servers
            # Each column's entries are one contiguous range of the CSR
            # arrays (sorted by (model, server, user)), so the per-column
            # concatenation is a union of ranges — built below as
            # cumsum-of-ones with jumps at range boundaries, skipping
            # empty columns.
            indptr = sparse.pair_indptr
            starts = indptr[cols * num_servers]
            lengths = indptr[(cols + 1) * num_servers] - starts
            total = int(lengths.sum())
            if total == 0:
                self._gains[:, cols] = 0.0
                return
            # pos[j] walks each column's contiguous entry range in order:
            # a global arange shifted per column so it starts at the
            # column's range start (columns with no entries contribute
            # nothing via the zero-length repeat).
            offsets = starts - np.cumsum(lengths) + lengths
            col_ids = np.repeat(np.arange(cols.size), lengths)
            pos = np.arange(total, dtype=np.int64) + offsets[col_ids]
            # One bincount over the global (model, server) pair bins: each
            # pair's entries arrive in the same order as its own bincount
            # would see them, so the per-bin partial sums are identical.
            sums = np.bincount(
                sparse.entry_pair_index()[pos],
                weights=self._wflat[sparse.entry_flat_index()[pos]],
                minlength=self.instance.num_models * num_servers,
            )
            self._gains[:, cols] = sums.reshape(
                self.instance.num_models, num_servers
            )[cols].T
            return
        for column in columns:
            column = int(column)
            if user is None:
                np.multiply(
                    demand[:, column],
                    ~self.served[:, column],
                    out=self._weighted[:, column],
                )
            else:
                self._weighted[user, column] = demand[user, column] * (
                    ~self.served[user, column]
                )
            self._refresh_column(column)

    def update_user(self, user: int, demand_row: np.ndarray) -> np.ndarray:
        """Set one user's demand row and refresh the affected columns.

        O(sum of changed-column costs): only columns whose demand entry
        actually changed are touched. Returns those column indices.
        """
        changed = self.instance.set_demand_row(user, demand_row)
        self.refresh_columns(changed, user=user)
        return changed

    def add_user(self, user: int, demand_row: np.ndarray) -> np.ndarray:
        """(Re-)activate a user with the given demand row (delta op)."""
        return self.update_user(user, demand_row)

    def remove_user(self, user: int) -> np.ndarray:
        """Deactivate a user: zero their demand row (delta op)."""
        return self.update_user(
            user, np.zeros(self.instance.num_models, dtype=float)
        )

    def scale_model(self, model_index: int, factor: float) -> np.ndarray:
        """Scale one model's demand column (popularity drift delta op)."""
        changed = self.instance.scale_demand_column(model_index, factor)
        self.refresh_columns(changed)
        return changed

    def mark_server_models(self, server: int, model_indices: Iterable[int]) -> None:
        """Record a whole per-server caching decision at once."""
        for model_index in model_indices:
            self.mark_served(server, model_index)

    def covered_mass(self) -> float:
        """Total demand mass currently served."""
        return float((self.instance.demand * self.served).sum())

    def hit_ratio(self) -> float:
        """Current hit ratio implied by the tracker state."""
        return self.covered_mass() / self.instance.total_demand
