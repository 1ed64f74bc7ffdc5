"""Dense block-class bitmasks for the vectorised solvers.

The set-based storage accounting on :class:`~repro.core.placement.
PlacementInstance` (``marginal_storage``/``dedup_storage``) walks Python
frozensets per (server, model) probe — fine for reference code, but it is
the inner loop of every greedy solver. :class:`BlockMaskIndex` replaces
those walks with dense numpy arrays over *block classes*.

A block class is the set of blocks owned by exactly the same set of
models. A server caches whole models, so it holds all of a class's
blocks or none of them, and the deduplicated footprint ``g_m(X_m)`` of
eq. (7) — the byte sum of the union of cached blocks — equals the byte
sum of the union of cached classes, where a class weighs the exact int64
sum of its blocks' sizes. So every marginal, drop and footprint below is
the same integer the per-block sums give. A paper-scale general-case
library (I=300) has ~3,400 blocks but ~440 classes. ``block_class``
maps each block to its class.

* ``member`` — ``(I, C)`` bool: does model ``i`` own class ``c``?
* ``member_t`` — ``(C, I)`` bool, its transpose: the owners of class ``c``.
* ``sizes`` — ``(C,)`` int64 class sizes.

With a per-server cached-class mask ``c`` (``(C,)`` bool) the marginal
storage of *every* model at once is the single integer matvec
``(member & ~c) @ sizes`` — exact (no float drift), so incremental
maintenance of marginal-size tables is bit-stable.

:class:`ServerBlockCache` maintains those per-server masks plus an
``(M, I)`` marginal-size table updated by exact integer deltas as models
are placed: caching classes ``F`` lowers every model's marginal by
``sizes[F] @ member_t[F]`` (exact int64 against bool rows). A resident
cache (the serving layer's) also keeps those deltas for reuse by its
clones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.library import ModelLibrary

#: Models per word of a block's owner-set key: each owner adds a distinct
#: power of two below ``2**52``, so every float64 sum is an exact integer.
_OWNER_BITS = 52


class BlockMaskIndex:
    """Immutable dense index of model -> block-class membership.

    Parameters
    ----------
    library:
        The model library. Dense model index ``i`` is the ``i``-th model
        id in ascending order (``PlacementInstance.index_to_model_id``).
        Unreferenced blocks form the class no model owns.
    """

    def __init__(self, library: ModelLibrary) -> None:
        indptr, positions = library.membership
        num_models = library.num_models
        num_blocks = library.num_blocks
        counts = np.diff(indptr)
        models = np.arange(num_models)
        # Each block's owner set as a column of exact integer words, from
        # the CSR in one bincount; blocks with equal columns form a class.
        words = num_models // _OWNER_BITS + 1
        owner_keys = np.bincount(
            np.repeat(models // _OWNER_BITS * num_blocks, counts) + positions,
            weights=np.repeat(np.ldexp(1.0, models % _OWNER_BITS), counts),
            minlength=words * num_blocks,
        ).reshape(words, num_blocks)
        order = np.lexsort(owner_keys)
        sorted_keys = np.take(owner_keys, order, axis=1)
        starts = np.ones(num_blocks, dtype=bool)
        np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0, out=starts[1:])
        #: ``(B,)`` class of each block position.
        self.block_class: np.ndarray = np.empty(num_blocks, dtype=np.intp)
        self.block_class[order] = np.cumsum(starts) - 1
        #: ``(C,)`` exact int64 class sizes in bytes.
        self.sizes: np.ndarray = np.add.reduceat(
            library.block_size_array[order], np.flatnonzero(starts)
        )
        #: ``(I,)`` full model sizes ``D_i`` (sum of member block sizes).
        self.model_sizes: np.ndarray = library.model_size_array
        #: ``(I, C)`` bool membership matrix.
        self.member: np.ndarray = np.zeros((num_models, self.sizes.size), dtype=bool)
        self.member[np.repeat(models, counts), self.block_class[positions]] = True
        #: ``(C, I)`` bool transposed membership. Bool, not int64: 1/8
        #: the bytes, and a worker keeps alive the index of every library
        #: it has touched.
        self.member_t: np.ndarray = np.ascontiguousarray(self.member.T)
        #: per model, the sorted classes it owns (the sparse row of
        #: ``member`` — the greedy solvers touch only these).
        owned = np.flatnonzero(self.member)
        ends = np.searchsorted(owned, (models + 1) * self.sizes.size).tolist()
        owned %= self.sizes.size
        self.model_positions: List[np.ndarray] = [
            owned[start:end] for start, end in zip([0] + ends, ends)
        ]
        self._full_overlap: List[Optional[np.ndarray]] = [None] * num_models

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
    def num_classes(self) -> int:
        """``C``, the number of block classes."""
        return int(self.member.shape[1])


#: Byte budget of one resident delta table (see
#: :meth:`ServerBlockCache.resident`); once its entries would exceed it,
#: new deltas are computed but no longer stored.
DELTA_TABLE_BYTES = 4 << 20

#: A delta: ``(fresh classes or None, bytes added, (I,) drop in every
#: model's marginal)``.
_Delta = Tuple[Optional[np.ndarray], int, Optional[np.ndarray]]


class ServerBlockCache:
    """Mutable per-server cached-block state for the greedy solvers.

    Maintains, for each server:

    * ``masks[m]`` — ``(C,)`` bool: block classes currently cached;
    * ``used[m]`` — deduplicated bytes currently used;
    * ``extras[m]`` — ``(I,)`` int64: marginal bytes of every model.

    ``extras`` is updated *incrementally*: adding a model contributes only
    its newly cached classes, and each model's marginal shrinks by
    exactly the sizes of the new classes it owns. All arithmetic is integer,
    so the table is always exactly equal to a from-scratch recompute.

    Delta table. What an add changes — the fresh classes, the bytes
    added and the ``(I,)`` drop in every marginal — depends only on the
    model and on which of its classes the server already holds. A
    cache built by :meth:`resident` keeps those integer results in a
    table keyed on ``(model, already-cached pattern)``, and every
    :meth:`clone` of it shares that table, so a pattern met by any clone
    costs two scatters on every later clone instead of the
    ``int64 @ bool`` product over the fresh classes' rows. The values are
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
        self.masks = np.zeros((num_servers, index.num_classes), dtype=bool)
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
        """What adding the model changes, given which classes are cached."""
        index = self.index
        if not already.any():
            # None of its classes were cached: the drop is the model's
            # memoised full overlap (identical integers to the general
            # path with ``already`` all false).
            return (
                positions,
                int(index.model_sizes[model_index]),
                index.full_overlap(model_index),
            )
        # Every model owning one of the newly cached classes gets
        # exactly that class's size cheaper on this server.
        fresh = positions[~already]
        if fresh.size == 0:
            return None, 0, None
        fresh_sizes = index.sizes[fresh]
        drop = fresh_sizes @ index.member_t[fresh]
        drop.setflags(write=False)
        return fresh, int(fresh_sizes.sum()), drop
