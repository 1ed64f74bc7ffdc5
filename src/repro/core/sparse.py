"""Sparse CSR representation of the feasibility indicator ``I1``.

At paper scale the (server, user, model) feasibility tensor is well under
15% dense — tight deadlines and shared access bandwidth leave most
requests unreachable — yet the seed pipeline materialised the full
``(M, K, I)`` tensor (and, worse, the float latency tensor behind it) for
every topology of every sweep point. :class:`SparseFeasibility` is the
shared sparse artifact: one immutable CSR bundle built once per scenario
and consumed by every layer (placement instance, coverage tracking,
objective evaluation, exhaustive search, benchmarks). It is the only form
of ``I1`` an instance stores; :meth:`SparseFeasibility.from_dense` and
:meth:`SparseFeasibility.to_dense` convert at the edges.

Layout
------
The nonzeros are stored as one flat COO/CSR hybrid sorted by
``(model, server, user)`` — "column major" from the solvers' point of
view, because every hot operation touches one model column at a time:

* ``pair_indptr`` — ``(I * M + 1,)`` int64; the entries of pair
  ``(m, i)`` live at ``entries[pair_indptr[i * M + m] :
  pair_indptr[i * M + m + 1]]``;
* ``entry_users`` — ``(nnz,)`` int32 user index of every entry;
* ``entry_servers`` — ``(nnz,)`` int32 server index of every entry
  (the expansion of ``pair_indptr``, precomputed for bincount reduces;
  the per-column views hold an intp copy, ``np.bincount``'s own width).

A per-user view (``user_indptr`` / ``user_servers`` / ``user_models``,
sorted by ``(user, model, server)``) is derived lazily for consumers that
iterate requests instead of placements, and so are per-column slice views
(:meth:`SparseFeasibility.column_views`) for the coverage tracker's
column refresh.

Exactness
---------
All boolean/integer queries (``to_dense``, ``served_matrix`` walks,
coverage counts) are *exactly* equal to their dense counterparts — there
is no floating-point accumulation in this module. The float reductions
over the sparse structure (the :class:`~repro.core.objective.
CoverageTracker` gains) are documented and tested where they are made.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PlacementError


class SparseFeasibility:
    """Immutable CSR bundle over the ``I1[m, k, i]`` nonzeros.

    Build via :meth:`from_dense`, from canonical ``(pair, user)``
    entries via :meth:`from_pairs` (the latency layer's path, which
    never materialises the dense tensor), or from per-user-block COO
    fragments via :meth:`from_user_blocks` (the chunked build).
    """

    def __init__(
        self,
        shape: Tuple[int, int, int],
        pair_indptr: np.ndarray,
        entry_users: np.ndarray,
        entry_servers: np.ndarray,
    ) -> None:
        num_servers, num_users, num_models = (int(x) for x in shape)
        if num_servers < 0 or num_users < 0 or num_models < 0:
            raise PlacementError("feasibility shape must be non-negative")
        self.shape: Tuple[int, int, int] = (num_servers, num_users, num_models)
        #: ``(I*M + 1,)`` segment bounds; pair (m, i) is row ``i*M + m``.
        self.pair_indptr = pair_indptr
        #: ``(nnz,)`` user of every entry, (model, server, user)-sorted.
        self.entry_users = entry_users
        #: ``(nnz,)`` server of every entry (aligned with ``entry_users``).
        self.entry_servers = entry_servers
        self._user_view: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._coverage_counts: Optional[np.ndarray] = None
        self._entry_flat: Optional[np.ndarray] = None
        self._column_views: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, feasible: np.ndarray) -> "SparseFeasibility":
        """Compress a dense ``(M, K, I)`` boolean tensor (exact)."""
        feasible = np.asarray(feasible, dtype=bool)
        if feasible.ndim != 3:
            raise PlacementError("feasible must be a (M, K, I) tensor")
        # The flat nonzeros of the (I, M, K) view are already sorted by
        # (model, server, user) — the canonical layout.
        pairs, users = np.divmod(
            np.flatnonzero(feasible.transpose(2, 0, 1)), feasible.shape[1]
        )
        return cls.from_pairs(feasible.shape, pairs, users)

    @classmethod
    def from_pairs(
        cls,
        shape: Tuple[int, int, int],
        pairs: np.ndarray,
        users: np.ndarray,
    ) -> "SparseFeasibility":
        """Build from entries given as pair row ``model * M + server`` and
        user, already unique and in ``(model, server, user)`` order.

        The order is the caller's guarantee and is not checked, so
        builders that emit it by construction (the dense compression and
        the latency layer) pay no O(nnz) validation.
        """
        num_servers, num_users, num_models = (int(x) for x in shape)
        num_pairs = num_models * num_servers
        pair_indptr = np.zeros(num_pairs + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs, minlength=num_pairs), out=pair_indptr[1:])
        return cls(
            (num_servers, num_users, num_models),
            pair_indptr=pair_indptr,
            entry_users=np.asarray(users, dtype=np.int32),
            entry_servers=np.asarray(pairs % num_servers, dtype=np.int32),
        )

    @classmethod
    def from_user_blocks(
        cls,
        shape: Tuple[int, int, int],
        blocks: "list[Tuple[np.ndarray, np.ndarray, np.ndarray]]",
    ) -> "SparseFeasibility":
        """Merge per-user-block COO fragments into one global bundle.

        ``blocks`` lists ``(models, servers, users)`` triples covering
        consecutive, disjoint, ascending user ranges, each sorted by
        ``(model, server, user)`` with *global* user indices — exactly
        what the chunked feasibility build emits. Because every user of
        block ``b`` precedes every user of block ``b+1``, scattering each
        block's entries into its pairs' running offsets reproduces the
        global ``(model, server, user)`` order without any global sort:
        the result equals :meth:`from_pairs` on the concatenated, fully
        sorted entries bit for bit, in O(nnz).
        """
        num_servers, num_users, num_models = (int(x) for x in shape)
        rows = num_models * num_servers
        block_codes = []
        block_counts = []
        for models, servers, users in blocks:
            codes = np.asarray(models, dtype=np.int64) * num_servers + np.asarray(
                servers, dtype=np.int64
            )
            block_codes.append(codes)
            block_counts.append(np.bincount(codes, minlength=rows))
        pair_indptr = np.zeros(rows + 1, dtype=np.int64)
        if block_counts:
            np.cumsum(np.sum(block_counts, axis=0), out=pair_indptr[1:])
        nnz = int(pair_indptr[-1])
        entry_users = np.empty(nnz, dtype=np.int32)
        entry_servers = np.empty(nnz, dtype=np.int32)
        offsets = pair_indptr[:-1].copy()
        for (models, servers, users), codes, counts in zip(
            blocks, block_codes, block_counts
        ):
            if codes.size:
                # Rank of each entry within its pair's run inside this
                # (code-sorted) block: position minus the run's start.
                run_starts = np.concatenate(
                    ([0], np.cumsum(counts)[:-1])
                )
                dest = offsets[codes] + (
                    np.arange(codes.size, dtype=np.int64) - run_starts[codes]
                )
                entry_users[dest] = users
                entry_servers[dest] = servers
            offsets += counts
        return cls(
            (num_servers, num_users, num_models),
            pair_indptr=pair_indptr,
            entry_users=entry_users,
            entry_servers=entry_servers,
        )

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Exact structural equality: shape and every index array.

        The chunked-build contract (`chunked == unchunked for any chunk
        size`) is stated in terms of this comparison.
        """
        if not isinstance(other, SparseFeasibility):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.pair_indptr, other.pair_indptr)
            and np.array_equal(self.entry_users, other.entry_users)
            and np.array_equal(self.entry_servers, other.entry_servers)
        )

    #: Identity hash retained deliberately: bundles are used as cache
    #: keys by identity (e.g. weak memos) and are never deduplicated by
    #: value in a hash container, so value-equality must not change
    #: their hashing behaviour.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # Shape and density
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """``M``."""
        return self.shape[0]

    @property
    def num_users(self) -> int:
        """``K``."""
        return self.shape[1]

    @property
    def num_models(self) -> int:
        """``I``."""
        return self.shape[2]

    @property
    def nnz(self) -> int:
        """Number of feasible ``(m, k, i)`` triples."""
        return int(self.entry_users.shape[0])

    @property
    def density(self) -> float:
        """``nnz / (M·K·I)`` (0.0 for an empty tensor)."""
        total = self.shape[0] * self.shape[1] * self.shape[2]
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def pair_users(self, server: int, model_index: int) -> np.ndarray:
        """Users feasibly served by ``(server, model)`` (a sorted view)."""
        row = model_index * self.shape[0] + server
        return self.entry_users[self.pair_indptr[row] : self.pair_indptr[row + 1]]

    def entry_flat_index(self) -> np.ndarray:
        """``(nnz,)`` int64 flat index of every entry into a C-contiguous
        ``(K, I)`` user-by-model matrix (``user * I + model``).

        Lets the objective layer gather per-entry weights from the
        unserved-mass matrix with a single 1-D take instead of 2-D fancy
        indexing. Built lazily and cached (the bundle is immutable).
        """
        if self._entry_flat is None:
            num_servers, _, num_models = self.shape
            models = np.repeat(
                np.arange(num_models * num_servers, dtype=np.int64) // num_servers,
                np.diff(self.pair_indptr),
            )
            self._entry_flat = (
                self.entry_users.astype(np.int64) * num_models + models
            )
        return self._entry_flat

    def column_views(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per model column, ``(servers, entry_flat_index)`` views.

        Entry ``i`` holds model ``i``'s entries in storage order (the
        pairs ``i * M .. (i + 1) * M - 1``) as slices of one
        intp copy of :attr:`entry_servers` and of
        :meth:`entry_flat_index`. Built once and cached (the bundle is
        immutable), so the coverage tracker's per-column kernel is a list
        lookup, and its ``np.bincount`` reads native-width bins instead
        of casting an int32 column on every call.
        """
        if self._column_views is None:
            num_servers, _, num_models = self.shape
            bounds = self.pair_indptr[
                np.arange(num_models + 1) * num_servers
            ].tolist()
            flat = self.entry_flat_index()
            servers = self.entry_servers.astype(np.intp)
            self._column_views = [
                (servers[start:stop], flat[start:stop])
                for start, stop in zip(bounds[:-1], bounds[1:])
            ]
        return self._column_views

    def to_dense(self) -> np.ndarray:
        """Scatter back to the dense ``(M, K, I)`` boolean tensor (exact)."""
        num_servers, num_users, num_models = self.shape
        dense = np.zeros((num_models, num_servers, num_users), dtype=bool)
        models = np.repeat(
            np.arange(num_models * num_servers, dtype=np.int64) // num_servers,
            np.diff(self.pair_indptr),
        )
        dense[models, self.entry_servers, self.entry_users] = True
        return np.ascontiguousarray(dense.transpose(1, 2, 0))

    def user_view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-user CSR: ``(user_indptr, user_models, user_servers)``.

        Entries are sorted by ``(user, model, server)``;
        user ``k``'s feasible (model, server) pairs live at positions
        ``user_indptr[k] : user_indptr[k + 1]``. Built lazily and cached.
        """
        if self._user_view is None:
            num_servers, num_users, num_models = self.shape
            models = np.repeat(
                np.arange(num_models * num_servers, dtype=np.int64) // num_servers,
                np.diff(self.pair_indptr),
            )
            order = np.lexsort(
                (self.entry_servers, models, self.entry_users)
            )
            counts = np.bincount(self.entry_users, minlength=num_users)
            user_indptr = np.zeros(num_users + 1, dtype=np.int64)
            np.cumsum(counts, out=user_indptr[1:])
            self._user_view = (
                user_indptr,
                models[order].astype(np.int32),
                self.entry_servers[order].copy(),
            )
        return self._user_view

    def server_coverage_counts(self) -> np.ndarray:
        """Per server, how many users it can feasibly serve *some* model.

        The sparse equivalent of ``feasible.any(axis=2).sum(axis=1)``
        (exact — integer counting). Cached.
        """
        if self._coverage_counts is None:
            num_servers, num_users, _ = self.shape
            codes = (
                self.entry_servers.astype(np.int64) * num_users
                + self.entry_users
            )
            unique_pairs = np.unique(codes)
            self._coverage_counts = np.bincount(
                (unique_pairs // num_users).astype(np.int64),
                minlength=num_servers,
            )
        return self._coverage_counts

    # ------------------------------------------------------------------
    # Objective-layer walks
    # ------------------------------------------------------------------
    def served_matrix(self, placement_matrix: np.ndarray) -> np.ndarray:
        """``(K, I)`` bool: is request (k, i) served under the placement?

        Walks only the placed pairs' user lists, ``O(nnz of placed
        columns)``: ``served[k, i] = OR_m (x[m, i] AND I1[m, k, i])``.
        """
        num_servers, num_users, num_models = self.shape
        if placement_matrix.shape != (num_servers, num_models):
            raise PlacementError(
                f"placement shape {placement_matrix.shape} does not match "
                f"feasibility {(num_servers, num_models)}"
            )
        served = np.zeros((num_users, num_models), dtype=bool)
        placed_servers, placed_models = np.nonzero(placement_matrix)
        for server, model_index in zip(placed_servers, placed_models):
            served[self.pair_users(int(server), int(model_index)), model_index] = True
        return served

    def served_matrix_block(
        self, placement_matrix: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Rows ``start:stop`` of :meth:`served_matrix`, exactly.

        Each pair's user list is sorted ascending, so the users inside
        ``[start, stop)`` form one contiguous run found by two binary
        searches — the block walk touches only those entries, keeping the
        served scratch ``(stop - start, I)`` instead of ``(K, I)``. The
        streaming evaluator folds these blocks one at a time.
        """
        num_servers, num_users, num_models = self.shape
        if placement_matrix.shape != (num_servers, num_models):
            raise PlacementError(
                f"placement shape {placement_matrix.shape} does not match "
                f"feasibility {(num_servers, num_models)}"
            )
        if not 0 <= start <= stop <= num_users:
            raise PlacementError(
                f"user block [{start}, {stop}) out of range for K={num_users}"
            )
        served = np.zeros((stop - start, num_models), dtype=bool)
        placed_servers, placed_models = np.nonzero(placement_matrix)
        for server, model_index in zip(placed_servers, placed_models):
            users = self.pair_users(int(server), int(model_index))
            lo, hi = np.searchsorted(users, (start, stop))
            served[users[lo:hi] - start, model_index] = True
        return served

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SparseFeasibility(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f})"
        )
