"""Dense block-membership bitmasks for the vectorised solvers.

The set-based storage accounting on :class:`~repro.core.placement.
PlacementInstance` (``marginal_storage``/``dedup_storage``) walks Python
frozensets per (server, model) probe — fine for reference code, but it is
the inner loop of every greedy solver. :class:`BlockMaskIndex` replaces
those walks with dense numpy arrays over *block positions* ``0..B-1``,
read straight off the library's arrays
(:attr:`~repro.models.library.ModelLibrary.membership`) by scatter:

* ``member`` — ``(I, B)`` bool: does model ``i`` contain block ``b``?
* ``sizes`` — ``(B,)`` int64 block sizes.
* ``member_t`` — ``(B, I)`` bool, the transposed membership (scattered
  on first use): row ``b`` lists which models contain block ``b``.

With a per-server cached-block mask ``c`` (``(B,)`` bool) the marginal
storage of *every* model at once is the single integer matvec
``(member & ~c) @ sizes`` — exact (no float drift), so incremental
maintenance of marginal-size tables is bit-stable.

:class:`ServerBlockCache` maintains those per-server masks plus an
``(M, I)`` marginal-size table updated by exact integer deltas as models
are placed: caching blocks ``F`` lowers every model's marginal by
``sizes[F] @ member_t[F]`` (exact int64 against bool rows). A resident
cache (the serving layer's) also keeps those deltas for reuse by its
clones.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.library import ModelLibrary


class BlockMaskIndex:
    """Immutable dense index of model -> block membership.

    Parameters
    ----------
    library:
        The model library. Dense model index ``i`` is the ``i``-th model
        id in ascending order (``PlacementInstance.index_to_model_id``);
        block position ``b`` is the ``b``-th block id in ascending order.
        Unreferenced blocks occupy a column that no model sets.
    """

    def __init__(self, library: ModelLibrary) -> None:
        self._membership = library.membership
        indptr, positions = self._membership
        #: block position -> block id (ascending id order).
        self.block_ids: np.ndarray = library.block_id_array
        #: ``(B,)`` block sizes in bytes, aligned with ``block_ids``.
        self.sizes: np.ndarray = library.block_size_array
        #: ``(I,)`` full model sizes ``D_i`` (sum of member block sizes).
        self.model_sizes: np.ndarray = library.model_size_array
        num_models = library.num_models
        num_blocks = library.num_blocks
        rows = np.repeat(np.arange(num_models), np.diff(indptr))
        #: ``(I, B)`` bool membership matrix.
        self.member: np.ndarray = np.zeros(
            (num_models, num_blocks), dtype=bool
        )
        self.member[rows, positions] = True
        #: per model, the sorted block *positions* it occupies (the sparse
        #: row of ``member`` — the greedy solvers touch only these).
        #: Stable (timsort): linear on the sorted rows libraries emit, and
        #: it does not page in numpy's SIMD quicksort (~0.1 MB of RSS).
        order = np.argsort(rows * num_blocks + positions, kind="stable")
        self.model_positions: List[np.ndarray] = np.split(
            positions[order], indptr[1:-1]
        )
        self._full_overlap: List[Optional[np.ndarray]] = [None] * num_models

    @cached_property
    def block_pos(self) -> Dict[int, int]:
        """Block id -> block position."""
        return {block_id: pos for pos, block_id in enumerate(self.block_ids.tolist())}

    @cached_property
    def member_t(self) -> np.ndarray:
        """``(B, I)`` bool transposed membership (built on first use)."""
        # Bool, not int64: 1/8 the bytes, and a worker keeps alive the
        # index of every library it has touched. Scattered from the CSR
        # like ``member``: a strided copy of ``member.T`` is 4x slower.
        indptr, positions = self._membership
        rows = np.repeat(np.arange(self.num_models), np.diff(indptr))
        member_t = np.zeros((self.num_blocks, self.num_models), dtype=bool)
        member_t[positions, rows] = True
        return member_t

    def full_overlap(self, model_index: int) -> np.ndarray:
        """``(I,)`` int64 byte overlap of every model with one model.

        Entry ``i`` is the total size of the blocks model ``i`` shares
        with ``model_index`` — the drop in every marginal when that model
        is cached on a server holding none of its blocks. Memoised per
        model on first use.
        """
        overlap = self._full_overlap[model_index]
        if overlap is None:
            positions = self.model_positions[model_index]
            overlap = self.sizes[positions] @ self.member_t[positions]
            overlap.setflags(write=False)
            self._full_overlap[model_index] = overlap
        return overlap

    # ------------------------------------------------------------------
    @property
    def num_models(self) -> int:
        """``I``."""
        return int(self.member.shape[0])

    @property
    def num_blocks(self) -> int:
        """``B``."""
        return int(self.member.shape[1])

    # ------------------------------------------------------------------

#: Byte budget of one resident delta table (see
#: :meth:`ServerBlockCache.resident`); once its entries would exceed it,
#: new deltas are computed but no longer stored.
DELTA_TABLE_BYTES = 4 << 20

#: A block delta: ``(fresh positions or None, bytes added, (I,) drop in
#: every model's marginal)``.
_Delta = Tuple[Optional[np.ndarray], int, Optional[np.ndarray]]


class ServerBlockCache:
    """Mutable per-server cached-block state for the greedy solvers.

    Maintains, for each server:

    * ``masks[m]`` — ``(B,)`` bool: blocks currently cached;
    * ``used[m]`` — deduplicated bytes currently used;
    * ``extras[m]`` — ``(I,)`` int64: marginal bytes of every model.

    ``extras`` is updated *incrementally*: adding a model contributes only
    its newly cached blocks, and each model's marginal shrinks by exactly
    the sizes of the new blocks it contains. All arithmetic is integer,
    so the table is always exactly equal to a from-scratch recompute.

    Delta table. What an add changes — the fresh block positions, the
    bytes added and the ``(I,)`` drop in every marginal — depends only on
    the model and on which of its blocks the server already holds. A
    cache built by :meth:`resident` keeps those integer results in a
    table keyed on ``(model, already-cached pattern)``, and every
    :meth:`clone` of it shares that table, so a pattern met by any clone
    costs two scatters on every later clone instead of the
    ``int64 @ bool`` product over the fresh blocks' rows. The values are
    exact integers, so a hit changes no bit. The table pays off only
    where the same adds recur across solves: the resident service
    re-solves every event on a clone of one unplaced cache, and its adds
    repeat almost entirely. Within one solve a pattern rarely recurs, so
    a plain cache keeps no table; nor does :class:`BlockMaskIndex`, which
    every worker keeps alive for each library it touched. The table stops
    growing at :data:`DELTA_TABLE_BYTES`.
    """

    def __init__(self, index: BlockMaskIndex, num_servers: int) -> None:
        self.index = index
        self.masks = np.zeros((num_servers, index.num_blocks), dtype=bool)
        self.used = np.zeros(num_servers, dtype=np.int64)
        self.extras = np.tile(index.model_sizes, (num_servers, 1))
        #: ``(model, already-pattern bytes) -> delta``, shared by clones;
        #: ``None`` keeps no table.
        self._deltas: Optional[Dict[Tuple[int, bytes], _Delta]] = None
        self._delta_limit = 0

    @classmethod
    def resident(cls, index: BlockMaskIndex, num_servers: int) -> "ServerBlockCache":
        """An empty cache whose :meth:`clone` copies share one delta table."""
        cache = cls(index, num_servers)
        cache._deltas = {}
        cache._delta_limit = DELTA_TABLE_BYTES // (8 * max(1, index.num_models))
        return cache

    def clone(self) -> "ServerBlockCache":
        """A copy with its own masks, usage and marginals; the index and
        the delta table (if any) are shared."""
        new = object.__new__(ServerBlockCache)
        new.__dict__.update(self.__dict__)
        new.masks = self.masks.copy()
        new.used = self.used.copy()
        new.extras = self.extras.copy()
        return new

    @classmethod
    def from_placement(
        cls, index: BlockMaskIndex, placement_matrix: np.ndarray
    ) -> "ServerBlockCache":
        """A cache pre-loaded with an existing ``(M, I)`` placement.

        Replays every placed model through :meth:`add`; the resulting
        masks, usage and marginal tables are exactly what incremental
        construction would have produced (set union and integer sums are
        order-independent).
        """
        cache = cls(index, int(placement_matrix.shape[0]))
        for server, model_index in zip(*np.nonzero(placement_matrix)):
            cache.add(int(server), int(model_index))
        return cache

    def marginal(self, server: int, model_index: int) -> int:
        """Marginal bytes of one (server, model) pair — O(1) lookup."""
        return int(self.extras[server, model_index])

    def marginal_row(self, server: int) -> np.ndarray:
        """``(I,)`` marginal bytes on one server (a view; do not mutate)."""
        return self.extras[server]

    def add(self, server: int, model_index: int) -> int:
        """Cache a model's blocks on a server; returns the bytes added."""
        positions = self.index.model_positions[model_index]
        mask_row = self.masks[server]
        already = mask_row[positions]
        deltas = self._deltas
        if deltas is None:
            fresh, added, drop = self._delta(model_index, positions, already)
        else:
            key = (model_index, already.tobytes())
            entry = deltas.get(key)
            if entry is None:
                entry = self._delta(model_index, positions, already)
                if len(deltas) < self._delta_limit:
                    deltas[key] = entry
            fresh, added, drop = entry
        if fresh is None:
            return 0
        mask_row[fresh] = True
        self.extras[server] -= drop
        self.used[server] += added
        return added

    def _delta(
        self, model_index: int, positions: np.ndarray, already: np.ndarray
    ) -> _Delta:
        """What adding the model changes, given which blocks are cached."""
        index = self.index
        if not already.any():
            # None of the blocks were cached: the drop is the model's
            # memoised full overlap (identical integers to the general
            # path with ``already`` all false).
            return (
                positions,
                int(index.model_sizes[model_index]),
                index.full_overlap(model_index),
            )
        # Every model containing one of the newly cached blocks gets
        # exactly that block's size cheaper on this server.
        fresh = positions[~already]
        if fresh.size == 0:
            return None, 0, None
        fresh_sizes = index.sizes[fresh]
        drop = fresh_sizes @ index.member_t[fresh]
        drop.setflags(write=False)
        return fresh, int(fresh_sizes.sum()), drop
