"""Problem instances and placement decisions for P1.1.

:class:`PlacementInstance` is the solver-facing view of one snapshot:
demand ``p_{k,i}``, feasibility ``I1[m,k,i]``, server capacities ``Q_m``
and the model library. Solvers work in *dense model indices* ``0..I-1``
(column positions), which the instance maps to library model ids — library
ids need not be contiguous (e.g. after :meth:`ModelLibrary.subset`).

An instance stores feasibility in one form, the
:class:`~repro.core.sparse.SparseFeasibility` CSR artifact (what
:func:`~repro.sim.scenario.build_scenario` produces), and every solver
reads it that way. A dense ``(M, K, I)`` boolean tensor is also accepted
and compressed once at construction. :attr:`PlacementInstance.feasible`
scatters the CSR back to a read-only dense tensor on demand, for dense
consumers outside the package (the frozen seed solvers in
``tests/oracles/reference.py``).

:class:`Placement` is the decision ``X``: a boolean ``(M, I)`` matrix with
set-style helpers. It is cheap to copy and hashable once frozen.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import weakref

import numpy as np

from repro.core.blockmask import BlockMaskIndex
from repro.core.sparse import SparseFeasibility
from repro.errors import PlacementError
from repro.models.library import ModelLibrary

#: Per-library memo of the block bitmask index. The index is pure library
#: structure (model -> block membership, block sizes), libraries are
#: logically immutable, and every instance of one library (each sweep
#: topology) needs the identical index — so build it once, weakly keyed.
_BLOCK_INDEX_CACHE: "weakref.WeakKeyDictionary[ModelLibrary, BlockMaskIndex]" = (
    weakref.WeakKeyDictionary()
)


class PlacementInstance:
    """One placement problem (paper P1.1).

    Parameters
    ----------
    library:
        The parameter-sharing model library.
    demand:
        ``(K, I)`` request probabilities ``p_{k,i}``; column ``i``
        corresponds to ``library.model_ids[i]``.
    feasible:
        ``I1[m,k,i]`` — can server ``m`` serve the (k, i) request within
        its deadline? Either the dense ``(M, K, I)`` boolean tensor or a
        :class:`~repro.core.sparse.SparseFeasibility`.
    capacities:
        ``(M,)`` storage capacities ``Q_m`` in bytes.
    """

    def __init__(
        self,
        library: ModelLibrary,
        demand: np.ndarray,
        feasible: Union[np.ndarray, SparseFeasibility],
        capacities: Sequence[int],
    ) -> None:
        demand = np.asarray(demand, dtype=float)
        if not isinstance(feasible, SparseFeasibility):
            feasible = SparseFeasibility.from_dense(feasible)
        capacities_arr = np.asarray(capacities, dtype=np.int64)

        if demand.ndim != 2:
            raise PlacementError("demand must be a (K, I) matrix")
        num_users, num_models = demand.shape
        num_servers = feasible.shape[0]
        if feasible.shape != (num_servers, num_users, num_models):
            raise PlacementError(
                f"feasible shape {feasible.shape} does not match demand {demand.shape}"
            )
        if capacities_arr.ndim != 1 or capacities_arr.shape[0] != num_servers:
            raise PlacementError("capacities must have one entry per server")
        if np.any(capacities_arr < 0):
            raise PlacementError("capacities must be non-negative")
        if np.any(demand < 0):
            raise PlacementError("demand probabilities must be non-negative")
        if num_models != library.num_models:
            raise PlacementError(
                f"demand has {num_models} models but library has {library.num_models}"
            )
        total = demand.sum()
        if total <= 0:
            raise PlacementError("total demand must be positive")

        self.library = library
        self.demand = demand
        #: The CSR feasibility artifact, the instance's one stored form.
        self.sparse_feasible = feasible
        self._feasible_dense: Optional[np.ndarray] = None
        #: ``(M, K, I)`` shape of the feasibility indicator.
        self.feasible_shape: Tuple[int, int, int] = feasible.shape
        self.capacities = capacities_arr
        self.total_demand = float(total)
        #: dense index -> library model id (ascending id order).
        self.index_to_model_id: Tuple[int, ...] = tuple(library.model_ids)
        #: dense index -> the model's block-id frozenset.
        self.model_blocks: Tuple[FrozenSet[int], ...] = tuple(
            model.block_set for model in library.models()
        )
        #: dense index -> full model size D_i in bytes (the library's
        #: read-only array, shared by every instance of the library).
        self.model_sizes: np.ndarray = library.model_size_array
        self._block_index: Optional[BlockMaskIndex] = None

    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """``M``."""
        return self.feasible_shape[0]

    @property
    def num_users(self) -> int:
        """``K``."""
        return int(self.demand.shape[0])

    @property
    def num_models(self) -> int:
        """``I``."""
        return int(self.demand.shape[1])

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> np.ndarray:
        """The dense ``(M, K, I)`` indicator, scattered from the CSR on
        first access and cached read-only (a write raises ``ValueError``
        instead of drifting from the CSR the solvers read)."""
        if self._feasible_dense is None:
            dense = self.sparse_feasible.to_dense()
            dense.flags.writeable = False
            self._feasible_dense = dense
        return self._feasible_dense

    def marginal_storage(
        self, model_index: int, cached_blocks: AbstractSet[int]
    ) -> int:
        """Bytes needed to add this model on top of ``cached_blocks``."""
        return sum(
            self.block_sizes[b]
            for b in self.model_blocks[model_index]
            if b not in cached_blocks
        )

    def dedup_storage(self, model_indices: Iterable[int]) -> int:
        """Deduplicated footprint ``g_m`` of a set of dense indices."""
        blocks: Set[int] = set()
        for index in model_indices:
            blocks |= self.model_blocks[index]
        return sum(self.block_sizes[b] for b in blocks)

    @property
    def block_sizes(self) -> Dict[int, int]:
        """Block id -> size in bytes (the library's shared table)."""
        return self.library.block_sizes_by_id

    @property
    def block_index(self) -> BlockMaskIndex:
        """Dense block-class bitmask index (built lazily, cached).

        A block class is the set of blocks owned by exactly the same
        models. Models are cached whole, so a server holds a class
        entirely or not at all, and the union of cached classes weighs
        exactly what eq. (7)'s union of cached blocks weighs: the
        index's integer sums equal :meth:`marginal_storage`/
        :meth:`dedup_storage` above, the set-based reference paths.
        Being shared (more than one owner) is a property of a whole
        class. The index depends only on the library, so it is memoised
        per library object — instances sharing a library (every
        topology of a sweep point) share it.
        """
        if self._block_index is None:
            cached = _BLOCK_INDEX_CACHE.get(self.library)
            if cached is None:
                cached = BlockMaskIndex(self.library)
                _BLOCK_INDEX_CACHE[self.library] = cached
            self._block_index = cached
        return self._block_index

    def new_placement(self) -> "Placement":
        """An empty placement with this instance's shape."""
        return Placement(np.zeros((self.num_servers, self.num_models), dtype=bool))

    # ------------------------------------------------------------------
    # In-place mutation (the serving layer's event stream). These are the
    # single source of mutation arithmetic: both the resident service and
    # the from-scratch reference path apply events through them, so the
    # mutated demand/capacity arrays are bit-identical on both sides.
    #
    # NOTE: the constructor does NOT copy float/int64 input arrays
    # (``np.asarray`` shares them). Callers that mutate an instance must
    # build it from explicit ``.copy()``s or accept shared-array updates.

    def _recompute_total(self, restore: "Optional[Tuple[int, np.ndarray]]") -> None:
        total = self.demand.sum()
        if total <= 0:
            if restore is not None:
                user, previous = restore
                self.demand[user] = previous
            raise PlacementError("total demand must be positive")
        # Same expression as the constructor: float(demand.sum()).
        self.total_demand = float(total)

    def set_demand_row(self, user: int, demand_row: np.ndarray) -> np.ndarray:
        """Replace one user's demand row in place.

        Returns the dense model indices whose column actually changed
        (entries where old != new) — the columns a maintained gain matrix
        must refresh. Raises :class:`PlacementError` (leaving the row
        unchanged) if the update would make total demand non-positive.
        """
        if not 0 <= user < self.num_users:
            raise PlacementError(f"user {user} out of range [0, {self.num_users})")
        row = np.asarray(demand_row, dtype=float)
        if row.shape != (self.num_models,):
            raise PlacementError(
                f"demand row must have shape ({self.num_models},), got {row.shape}"
            )
        if np.any(row < 0):
            raise PlacementError("demand probabilities must be non-negative")
        previous = self.demand[user].copy()
        changed = np.flatnonzero(previous != row)
        self.demand[user] = row
        self._recompute_total((user, previous))
        return changed

    def scale_demand_column(self, model_index: int, factor: float) -> np.ndarray:
        """Scale one model's demand column by ``factor`` (popularity drift).

        Returns the changed column indices (``[model_index]`` when any
        entry moved, empty otherwise).
        """
        if not 0 <= model_index < self.num_models:
            raise PlacementError(
                f"model index {model_index} out of range [0, {self.num_models})"
            )
        factor = float(factor)
        if not np.isfinite(factor) or factor < 0:
            raise PlacementError("popularity factor must be finite and non-negative")
        column = self.demand[:, model_index]
        scaled = column * factor
        if np.array_equal(column, scaled):
            return np.empty(0, dtype=np.intp)
        previous = column.copy()
        self.demand[:, model_index] = scaled
        total = self.demand.sum()
        if total <= 0:
            self.demand[:, model_index] = previous
            raise PlacementError("total demand must be positive")
        self.total_demand = float(total)
        return np.array([model_index], dtype=np.intp)

    def set_capacity(self, server: int, capacity_bytes: int) -> None:
        """Set one server's storage capacity ``Q_m`` in bytes."""
        if not 0 <= server < self.num_servers:
            raise PlacementError(
                f"server {server} out of range [0, {self.num_servers})"
            )
        capacity = int(capacity_bytes)
        if capacity < 0:
            raise PlacementError("capacities must be non-negative")
        self.capacities[server] = capacity


class Placement:
    """The decision matrix ``X`` (servers x models, boolean)."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise PlacementError("placement matrix must be 2-D (servers x models)")
        self.matrix = matrix

    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of servers in the decision."""
        return int(self.matrix.shape[0])

    @property
    def num_models(self) -> int:
        """Number of models in the decision."""
        return int(self.matrix.shape[1])

    def models_on(self, server: int) -> List[int]:
        """Dense model indices cached on ``server``."""
        return np.flatnonzero(self.matrix[server]).tolist()

    def add(self, server: int, model_index: int) -> None:
        """Cache one model on one server (idempotent)."""
        self.matrix[server, model_index] = True

    def remove(self, server: int, model_index: int) -> None:
        """Evict one model from one server (idempotent)."""
        self.matrix[server, model_index] = False

    def contains(self, server: int, model_index: int) -> bool:
        """Is the model cached on the server?"""
        return bool(self.matrix[server, model_index])

    def total_placements(self) -> int:
        """``|X|``: number of (server, model) placements."""
        return int(self.matrix.sum())

    def copy(self) -> "Placement":
        """An independent copy."""
        return Placement(self.matrix.copy())

    def frozen(self) -> Tuple[FrozenSet[int], ...]:
        """Hashable canonical form (one frozenset per server)."""
        return tuple(
            frozenset(np.flatnonzero(row).tolist()) for row in self.matrix
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool(
            (self.matrix == other.matrix).all()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Placement({self.total_placements()} placements on "
            f"{self.num_servers} servers)"
        )
