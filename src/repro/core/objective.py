"""Objective ``U(X)`` (eq. 2) and storage cost ``g_m`` (eq. 7).

Also provides :class:`CoverageTracker`, the incremental-evaluation kernel
shared by Gen, Spec's successive ``I2`` bookkeeping and Independent
Caching: it maintains which (user, model) requests are already served and
answers marginal-gain queries in vectorised form. Its gains are
``np.bincount`` sums over the instance's CSR feasibility artifact,
``O(nnz)``, bit-identical to the per-server sums of the frozen seed
tracker (``ReferenceCoverageTracker`` in ``tests/oracles/reference.py``)
on instances with two or more models.

:func:`served_matrix` picks the O(nnz) walk automatically whenever the
instance carries the CSR artifact — boolean output, so the sparse walk is
*exactly* the dense einsum's result, not merely close.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.placement import Placement, PlacementInstance
from repro.errors import PlacementError


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
    Without an override, an instance that carries its CSR artifact is
    walked in O(nnz); the result is exactly the dense einsum's.
    """
    _check_shapes(instance, placement)
    if feasible is None:
        if instance.has_sparse:
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


class CoverageTracker:
    """Incremental coverage bookkeeping for greedy solvers.

    Tracks which (user, model) requests are currently served and exposes:

    * :meth:`gain` — marginal hit-probability mass of adding (m, i);
    * :meth:`gain_matrix` — all marginal gains at once, shape ``(M, I)``;
    * :meth:`mark_served` — update after a placement step.

    All gains are *unnormalised* (probability mass, not ratio); divide by
    ``instance.total_demand`` to convert.

    The gains are sums over the instance's CSR feasibility artifact
    (:class:`~repro.core.sparse.SparseFeasibility`): the gain of (m, i)
    is ``np.bincount`` of the unserved mass of the pair's feasible users,
    which adds them one by one in ascending user order. On every instance
    with two or more models that is the sum the seed tracker's
    ``ReferenceCoverageTracker.server_gains`` (``tests/oracles/reference.py``)
    takes over the dense tensor, and the gains equal it bit for bit (with
    one model, numpy sums the reference's contiguous column pairwise).

    The ``(M, I)`` gain matrix is *maintained* rather than recomputed:
    caching (m, i) only changes column ``i`` (the users it newly serves
    stop counting toward every server that could reach them), so
    :meth:`mark_served` refreshes that one column, ``O(nnz of the
    column)``. One column kernel fills every column at construction and
    refreshes them after a mark and in :meth:`refresh_columns`: it
    gathers the column's unserved mass in storage order through prebuilt
    CSR views (:meth:`~repro.core.sparse.SparseFeasibility.column_views`:
    per column, its intp servers and flat ``(K, I)`` indices, shared by
    every clone) and sums it with one ``np.bincount`` by server. So a
    refreshed column equals a rebuilt one bit for bit, and building
    holds no per-entry temporary larger than one column. A mark is two
    scatters over the pair's entries (bounds read from a list of
    ``pair_indptr``) plus the kernel. The ``served`` and
    ``unserved_demand`` state changes by boolean updates and exact
    zeroing only.
    """

    def __init__(self, instance: PlacementInstance) -> None:
        sparse = instance.sparse_feasible
        self.instance = instance
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
        self._num_servers = instance.num_servers
        # Read-only CSR views shared by every clone: per-column
        # (servers, flat index) slices for the column kernel, and the
        # flat index and pair bounds (a list: a mark reads two Python
        # ints) for a mark's scatters.
        self._columns = sparse.column_views()
        self._entry_flat = sparse.entry_flat_index()
        self._pair_bounds = sparse.pair_indptr.tolist()
        self._gains = np.empty((self._num_servers, instance.num_models))
        for column in range(instance.num_models):
            self._refresh_column(column)

    def _refresh_column(self, model_index: int) -> None:
        """Recompute column ``model_index`` of the gains from the unserved
        mass: one gather of the column's entries in storage order, one
        ``np.bincount`` by server, which sums each server's entries in
        that order."""
        servers, column_flat = self._columns[model_index]
        self._gains[:, model_index] = np.bincount(
            servers,
            weights=self._wflat[column_flat],
            minlength=self._num_servers,
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

    def mark_served(self, server: int, model_index: int) -> None:
        """Record that (server, model) is now cached.

        ``O(column nnz)``: two scatters over the pair's entries, then the
        column refresh (one gather, one bincount). No all-served
        early-out: on the greedy path the chosen pair always has positive
        gain (some pair user unserved), so the check would be pure
        per-mark overhead; re-marking a fully served pair just recomputes
        the same column bits. The flat indices address exactly
        ``(pair_users, model_index)`` in both ``(K, I)`` buffers; newly
        served users' remaining mass becomes exactly 0.0.
        """
        row = model_index * self._num_servers + server
        start = self._pair_bounds[row]
        stop = self._pair_bounds[row + 1]
        if start == stop:
            return
        flat = self._entry_flat[start:stop]
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
        # Shares the read-only references (instance, CSR views) ...
        new.__dict__.update(self.__dict__)
        # ... and copies the mutable state.
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
        ``d * 0.0 == +0.0``), then the column kernel on each listed column
        in turn. The result equals a fresh tracker build on the mutated
        demand followed by replaying this tracker's mark sequence, bit for
        bit, whatever the order of ``columns``; a repeated column is
        recomputed, never added twice.

        ``user``, when given, promises that only that user's demand row
        changed: the elementwise resync is restricted to that row (the
        other rows' recompute would reproduce their bits unchanged).
        """
        cols = np.asarray(columns, dtype=np.intp)
        if cols.size == 0:
            return
        demand = self.instance.demand
        if user is None:
            self._weighted[:, cols] = demand[:, cols] * ~self.served[:, cols]
        else:
            self._weighted[user, cols] = (
                demand[user, cols] * ~self.served[user, cols]
            )
        for column in cols.tolist():
            self._refresh_column(column)

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
