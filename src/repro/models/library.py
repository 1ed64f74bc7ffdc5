"""The parameter-sharing model library (paper §III-B).

:class:`ModelLibrary` owns the parameter blocks ``J`` and models ``I`` and
answers every structural query the solvers need:

* ``I_j`` — which models contain block ``j`` (:meth:`models_with_block`);
* shared vs. specific block classification;
* deduplicated storage footprints (union of block sizes), the quantity the
  submodular constraint (6b) is built from;
* marginal storage cost of adding one model to a cached block set.

The library is array-native. Blocks are parallel arrays over *block
positions* ``0..B-1`` (ascending block id): ids and int64 sizes, plus
name and origin lists. The model -> block membership is one CSR pair
(``indptr``, block positions in each model's forward order) over the
models in ascending id order. Owner counts come from one ``bincount``
and model sizes from one ``reduceat``. :class:`ParameterBlock` objects,
the ``I_j`` sets and the id lookup tables are built only on access. A
library pickles as its block columns and models alone; the receiver
re-derives everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import LibraryError
from repro.models.blocks import ParameterBlock
from repro.models.model import Model


@dataclass(frozen=True)
class SharingStats:
    """Summary of how much storage parameter sharing saves."""

    num_models: int
    num_blocks: int
    num_shared_blocks: int
    total_size_independent: int
    total_size_deduplicated: int

    @property
    def savings_ratio(self) -> float:
        """Fraction of storage saved by deduplication (0 = none)."""
        if self.total_size_independent == 0:
            return 0.0
        return 1.0 - self.total_size_deduplicated / self.total_size_independent


class ModelLibrary:
    """An immutable collection of models over a shared block pool.

    Parameters
    ----------
    blocks:
        All parameter blocks; ids must be unique.
    models:
        All models; ids must be unique and every referenced block id must
        exist in ``blocks``.

    Notes
    -----
    Instances are logically immutable: all mutating operations return new
    libraries, and the arrays they expose are read-only.
    :meth:`from_arrays` builds the same representation without block
    objects; both constructors run the same checks.
    """

    def __init__(
        self, blocks: Iterable[ParameterBlock], models: Iterable[Model]
    ) -> None:
        blocks = list(blocks)
        self._assemble(
            [block.block_id for block in blocks],
            [block.size_bytes for block in blocks],
            [block.name for block in blocks],
            [block.origin for block in blocks],
            models,
        )

    @classmethod
    def from_arrays(
        cls,
        block_ids: Sequence[int],
        block_sizes: Sequence[int],
        block_names: Sequence[str],
        block_origins: Sequence[str],
        models: Iterable[Model],
    ) -> "ModelLibrary":
        """A library from parallel block columns and the model list.

        ``block_ids``, ``block_sizes``, ``block_names`` and
        ``block_origins`` describe one block per position, in any order.
        """
        library = cls.__new__(cls)
        library._assemble(block_ids, block_sizes, block_names, block_origins, models)
        return library

    def _assemble(
        self,
        block_ids: Sequence[int],
        block_sizes: Sequence[int],
        block_names: Sequence[str],
        block_origins: Sequence[str],
        models: Iterable[Model],
    ) -> None:
        ids = np.array(block_ids, dtype=np.int64).reshape(-1)
        sizes = np.array(block_sizes, dtype=np.int64).reshape(-1)
        names = list(block_names)
        origins = list(block_origins)
        if not len(ids) == len(sizes) == len(names) == len(origins):
            raise LibraryError("block columns must have equal lengths")
        if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, sizes = ids[order], sizes[order]
            names = [names[i] for i in order]
            origins = [origins[i] for i in order]
            duplicate = np.flatnonzero(ids[1:] == ids[:-1])
            if duplicate.size:
                raise LibraryError(f"duplicate block id {ids[duplicate[0]]}")
        if ids.size and ids[0] < 0:
            raise LibraryError(f"block_id must be non-negative, got {ids[0]}")
        bad = np.flatnonzero(sizes <= 0)
        if bad.size:
            raise LibraryError(
                f"block {ids[bad[0]]} size must be positive, got {sizes[bad[0]]}"
            )

        ordered = sorted(models, key=attrgetter("model_id"))
        if not ordered:
            raise LibraryError("library must contain at least one model")
        model_ids = np.fromiter(
            (model.model_id for model in ordered), dtype=np.int64, count=len(ordered)
        )
        duplicate = np.flatnonzero(model_ids[1:] == model_ids[:-1])
        if duplicate.size:
            raise LibraryError(f"duplicate model id {model_ids[duplicate[0]]}")

        indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
        np.cumsum([model.num_blocks for model in ordered], out=indptr[1:])
        referenced = np.fromiter(
            chain.from_iterable(model.block_ids for model in ordered),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        positions = np.searchsorted(ids, referenced)
        if ids.size:
            known = ids[np.minimum(positions, ids.size - 1)] == referenced
        else:
            known = np.zeros(referenced.shape, dtype=bool)
        if not known.all():
            row = int(np.searchsorted(indptr, np.argmin(known), side="right")) - 1
            span = slice(indptr[row], indptr[row + 1])
            missing = sorted(referenced[span][~known[span]].tolist())
            raise LibraryError(
                f"model {model_ids[row]} references unknown blocks {missing}"
            )

        self._block_ids = ids
        self._block_sizes = sizes
        self._block_names = names
        self._block_origins = origins
        self._models: Tuple[Model, ...] = tuple(ordered)
        self._model_ids = model_ids
        self._indptr = indptr
        self._positions = positions
        #: per block position, how many models contain it.
        self._owner_counts = np.bincount(positions, minlength=ids.size)
        self._model_sizes = np.add.reduceat(sizes[positions], indptr[:-1])

        for array in (
            self._block_ids,
            self._block_sizes,
            self._model_ids,
            self._indptr,
            self._positions,
            self._owner_counts,
            self._model_sizes,
        ):
            array.setflags(write=False)

    def __reduce__(self):
        return (
            ModelLibrary.from_arrays,
            (
                self._block_ids,
                self._block_sizes,
                self._block_names,
                self._block_origins,
                self._models,
            ),
        )

    # ------------------------------------------------------------------
    # Lazy lookup tables
    # ------------------------------------------------------------------
    @cached_property
    def _block_pos(self) -> Dict[int, int]:
        return {block_id: pos for pos, block_id in enumerate(self._block_ids.tolist())}

    @cached_property
    def _model_pos(self) -> Dict[int, int]:
        return {model_id: pos for pos, model_id in enumerate(self._model_ids.tolist())}

    @cached_property
    def _owners(self) -> List[FrozenSet[int]]:
        """Per block position, the ids of the models containing it."""
        rows = np.repeat(self._model_ids, np.diff(self._indptr))
        order = np.argsort(self._positions, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self._owner_counts)))
        owners = rows[order].tolist()
        return [
            frozenset(owners[start:stop])
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]

    def _position_of(self, block_id: int) -> int:
        try:
            return self._block_pos[block_id]
        except KeyError:
            raise LibraryError(f"unknown block id {block_id}") from None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def model_ids(self) -> List[int]:
        """All model ids in ascending order."""
        return self._model_ids.tolist()

    @property
    def block_ids(self) -> List[int]:
        """All block ids in ascending order."""
        return self._block_ids.tolist()

    @property
    def num_models(self) -> int:
        """Number of models ``|I|``."""
        return len(self._models)

    @property
    def num_blocks(self) -> int:
        """Number of parameter blocks ``|J|``."""
        return int(self._block_ids.size)

    def model(self, model_id: int) -> Model:
        """Look up a model by id."""
        try:
            return self._models[self._model_pos[model_id]]
        except KeyError:
            raise LibraryError(f"unknown model id {model_id}") from None

    def block(self, block_id: int) -> ParameterBlock:
        """Look up a block by id (built on each call)."""
        pos = self._position_of(block_id)
        return ParameterBlock(
            block_id,
            int(self._block_sizes[pos]),
            name=self._block_names[pos],
            origin=self._block_origins[pos],
        )

    def models(self) -> List[Model]:
        """All models in id order."""
        return list(self._models)

    def blocks(self) -> List[ParameterBlock]:
        """All blocks in id order."""
        return [
            ParameterBlock(block_id, size, name=name, origin=origin)
            for block_id, size, name, origin in zip(
                self._block_ids.tolist(),
                self._block_sizes.tolist(),
                self._block_names,
                self._block_origins,
            )
        ]

    # ------------------------------------------------------------------
    # Array views (read-only; block positions are ascending block ids,
    # model rows are ascending model ids)
    # ------------------------------------------------------------------
    @property
    def block_id_array(self) -> np.ndarray:
        """``(B,)`` int64 block ids, one per block position."""
        return self._block_ids

    @property
    def block_size_array(self) -> np.ndarray:
        """``(B,)`` int64 block sizes ``D'_j``, one per block position."""
        return self._block_sizes

    @property
    def model_size_array(self) -> np.ndarray:
        """``(I,)`` int64 full model sizes ``D_i``, in model id order."""
        return self._model_sizes

    @property
    def membership(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR model -> block membership: ``(indptr, block_positions)``.

        Row ``r`` (the ``r``-th model by id) holds the block positions
        ``block_positions[indptr[r]:indptr[r + 1]]`` in forward order.
        """
        return self._indptr, self._positions

    @cached_property
    def block_sizes_by_id(self) -> Dict[int, int]:
        """Block id -> size in bytes (built on first access; do not mutate)."""
        return dict(zip(self._block_ids.tolist(), self._block_sizes.tolist()))

    # ------------------------------------------------------------------
    # Sharing structure
    # ------------------------------------------------------------------
    def models_with_block(self, block_id: int) -> FrozenSet[int]:
        """``I_j``: ids of models containing ``block_id``."""
        return self._owners[self._position_of(block_id)]

    @cached_property
    def shared_block_ids(self) -> FrozenSet[int]:
        """Blocks contained in more than one model (paper's shared blocks)."""
        return frozenset(self._block_ids[self._owner_counts > 1].tolist())

    @property
    def specific_block_ids(self) -> FrozenSet[int]:
        """Blocks contained in at most one model."""
        return frozenset(self._block_ids[self._owner_counts <= 1].tolist())

    def shared_blocks_of(self, model_id: int) -> FrozenSet[int]:
        """The shared blocks of one model."""
        return self.model(model_id).block_set & self.shared_block_ids

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def block_size(self, block_id: int) -> int:
        """Size of one block, ``D'_j``."""
        return int(self._block_sizes[self._position_of(block_id)])

    def blocks_size(self, block_ids: AbstractSet[int]) -> int:
        """Total size of a set of blocks."""
        sizes = self.block_sizes_by_id
        try:
            return sum(sizes[b] for b in block_ids)
        except KeyError as error:
            raise LibraryError(f"unknown block id {error.args[0]}") from None

    def model_size(self, model_id: int) -> int:
        """Full size of one model, ``D_i`` (sum of its block sizes)."""
        try:
            return int(self._model_sizes[self._model_pos[model_id]])
        except KeyError:
            raise LibraryError(f"unknown model id {model_id}") from None

    def sharing_stats(self) -> SharingStats:
        """Library-wide sharing summary (used by Table I reporting)."""
        return SharingStats(
            num_models=self.num_models,
            num_blocks=self.num_blocks,
            num_shared_blocks=int(np.count_nonzero(self._owner_counts > 1)),
            total_size_independent=int(self._model_sizes.sum()),
            total_size_deduplicated=int(
                self._block_sizes[self._owner_counts > 0].sum()
            ),
        )

    # ------------------------------------------------------------------
    # Structure checks and derived libraries
    # ------------------------------------------------------------------
    def specific_blocks_are_exclusive(self) -> bool:
        """True when every non-shared block belongs to at most one model.

        Holds by definition of "shared" (zero-owner orphan blocks are
        allowed); retained as a cheap invariant check plus a readable name
        for the condition the Spec solver relies on (the DP treats
        specific sizes as additive).
        """
        return all(
            len(self.models_with_block(b)) <= 1 for b in self.specific_block_ids
        )

    def subset(self, model_ids: Sequence[int]) -> "ModelLibrary":
        """A new library restricted to ``model_ids`` (blocks pruned).

        Note that a block shared by several models may become specific in
        the subset if only one of its owners survives.
        """
        if not model_ids:
            raise LibraryError("subset requires at least one model id")
        chosen = [self.model(i) for i in model_ids]
        rows = [self._model_pos[model.model_id] for model in chosen]
        needed = np.unique(
            np.concatenate(
                [self._positions[self._indptr[r] : self._indptr[r + 1]] for r in rows]
            )
        )
        return ModelLibrary.from_arrays(
            self._block_ids[needed],
            self._block_sizes[needed],
            [self._block_names[pos] for pos in needed.tolist()],
            [self._block_origins[pos] for pos in needed.tolist()],
            chosen,
        )

    def __contains__(self, model_id: object) -> bool:
        return model_id in self._model_pos

    def __len__(self) -> int:
        return len(self._models)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ModelLibrary(models={self.num_models}, blocks={self.num_blocks}, "
            f"shared={len(self.shared_block_ids)})"
        )
