"""Algorithm 2 machinery: shared-block combinations and knapsack solvers.

The Spec solver decomposes each per-server sub-problem **P2.1m** into:

1. a traversal of *combinations of shared parameter blocks* ``N ∈ A``
   (:func:`enumerate_shared_combinations`, which returns ``A`` in array
   form as a :class:`CombinationSet`), and
2. for each combination, a 0/1 knapsack over the eligible models' specific
   blocks within the capacity left after caching ``N``.

Four interchangeable knapsack backends are provided, each public
function behind one input check (``_validate_knapsack``) that also
drops the items that cannot enter a solution:

* :func:`knapsack_value_dp` — the paper's rounded DP over utility values
  (eq. 16/19): ``(1 - ε)``-optimal, polynomial in ``1/ε``. It is a
  one-shot solve of :class:`ValueDpTables`, the one implementation of
  the rounded DP's fill and backtrack; Spec keeps one table object per
  solve so a filtered sub-instance that recurs across combinations and
  servers pays for its fill once;
* :func:`knapsack_weight_dp` — DP over quantised weights: exact up to the
  conservative ceiling of item sizes to the quantum;
* :func:`knapsack_branch_and_bound` — exact, no quantisation; the ε = 0
  reference used by the Fig. 6 optimality study and the test suite;
* :func:`knapsack_best_first` — the same exact search driven by a
  priority queue instead of depth-first recursion: it expands only nodes
  whose LP bound beats the incumbent, which collapses the node count on
  the wide-value instances that blow up the rounded DP. Both exact
  searches share one item order and one LP bound.

Spec filters its items itself, once per sub-problem, and hands every
backend only those; its rounded DP goes straight to
:meth:`ValueDpTables.solve`, which takes filtered items only.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import SolverError
from repro.models.library import ModelLibrary


# ----------------------------------------------------------------------
# Shared-block combination enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedCombination:
    """One element ``N`` of the combination set ``A``.

    Attributes
    ----------
    blocks:
        The shared block ids cached by this combination.
    size_bytes:
        ``d_N``: total size of those blocks.
    """

    blocks: FrozenSet[int]
    size_bytes: int


def _distinct_shared_sets(library: ModelLibrary) -> List[FrozenSet[int]]:
    """Distinct non-empty per-model shared-block sets."""
    seen: Set[FrozenSet[int]] = set()
    for model_id in library.model_ids:
        shared = library.shared_blocks_of(model_id)
        if shared:
            seen.add(shared)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _group_nested_chains(
    shared_sets: Sequence[FrozenSet[int]],
) -> List[List[FrozenSet[int]]]:
    """Group shared sets into families of pairwise-overlapping sets.

    For layer-freezing libraries every family is a chain of nested
    prefixes of one root; the caller verifies nestedness.
    """
    parent = list(range(len(shared_sets)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for a, b in itertools.combinations(range(len(shared_sets)), 2):
        if shared_sets[a] & shared_sets[b]:
            union(a, b)
    groups: Dict[int, List[FrozenSet[int]]] = {}
    for index, shared in enumerate(shared_sets):
        groups.setdefault(find(index), []).append(shared)
    return [sorted(members, key=len) for members in groups.values()]


def _chains_are_nested(chain: Sequence[FrozenSet[int]]) -> bool:
    """Is ``chain`` (sorted by size) totally ordered by inclusion?"""
    for smaller, larger in zip(chain, chain[1:]):
        if not smaller <= larger:
            return False
    return True


class CombinationSet(Sequence[SharedCombination]):
    """The combination set ``A`` in array form.

    The shared blocks are split into block-disjoint *chains*, each a list
    of nested prefixes in increasing size. A combination picks one
    *level* per chain: level ``0`` caches nothing of that chain, level
    ``k`` caches its ``k``-th prefix. ``N`` is the union of the picked
    prefixes, and because chains are block-disjoint ``d_N`` is the sum of
    the picked prefix sizes. The exhaustive mode is the same form with
    one single-block chain per shared block.

    Indexing or iterating yields :class:`SharedCombination` values, built
    on demand; the solver itself only reads the arrays.

    Attributes
    ----------
    chains:
        Per chain, its prefixes in increasing size; level ``k`` of chain
        ``c`` is ``chains[c][k - 1]``.
    choices:
        ``(|A|, len(chains))`` level matrix, one row per combination in
        enumeration order.
    sizes:
        ``(|A|,)`` int64 ``d_N`` per combination.
    """

    def __init__(
        self,
        chains: Sequence[Sequence[FrozenSet[int]]],
        choices: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self.chains: Tuple[Tuple[FrozenSet[int], ...], ...] = tuple(
            tuple(chain) for chain in chains
        )
        # Read-only: one set is memoised per library and shared by every
        # solve that uses it.
        choices.flags.writeable = False
        sizes.flags.writeable = False
        self.choices = choices
        self.sizes = sizes

    def __len__(self) -> int:
        return int(self.choices.shape[0])

    def __getitem__(self, row: int) -> SharedCombination:
        row = operator.index(row)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("combination index out of range")
        blocks = frozenset().union(
            *(
                chain[level - 1]
                for chain, level in zip(self.chains, self.choices[row].tolist())
                if level
            )
        )
        return SharedCombination(blocks, int(self.sizes[row]))

    def eligibility(self, shared_sets: Sequence[AbstractSet[int]]) -> np.ndarray:
        """``(|A|, len(shared_sets))`` bool: does ``N`` contain set ``i``?

        A set is contained in ``N`` iff, on every chain it touches, the
        picked level reaches the smallest prefix holding its blocks on
        that chain. In the prefix mode every model's shared set *is* one
        chain level, so its column is ``choices[:, chain] >= level``; an
        empty set is contained in every ``N``. A block outside every
        chain makes its set never contained.
        """
        level_of: Dict[FrozenSet[int], Tuple[int, int]] = {}
        first_level: Dict[int, Tuple[int, int]] = {}
        for chain_pos, chain in enumerate(self.chains):
            for level, prefix in enumerate(chain, start=1):
                level_of.setdefault(prefix, (chain_pos, level))
                for block in prefix:
                    first_level.setdefault(block, (chain_pos, level))
        never = np.zeros(len(shared_sets), dtype=bool)
        requirements: List[List[Tuple[int, int]]] = []
        for position, shared in enumerate(shared_sets):
            hit = level_of.get(frozenset(shared))
            if hit is not None:
                requirements.append([hit])
                continue
            needed: Dict[int, int] = {}
            for block in shared:
                if block not in first_level:
                    never[position] = True
                    break
                chain_pos, level = first_level[block]
                needed[chain_pos] = max(needed.get(chain_pos, 0), level)
            requirements.append(list(needed.items()))
        eligible = np.ones((len(self), len(shared_sets)), dtype=bool)
        width = max((len(need) for need in requirements), default=0)
        for slot in range(width):
            chain_col = np.zeros(len(shared_sets), dtype=np.intp)
            min_level = np.zeros(len(shared_sets), dtype=self.choices.dtype)
            for position, need in enumerate(requirements):
                if slot < len(need):
                    chain_col[position], min_level[position] = need[slot]
            eligible &= self.choices[:, chain_col] >= min_level
        eligible[:, never] = False
        return eligible


#: The combination-set modes :func:`enumerate_shared_combinations` takes.
COMBINATION_MODES = ("auto", "prefix", "exhaustive")

#: Per-library memo of enumerated combination sets. Libraries are
#: logically immutable and compared by identity, so weak keying is exact;
#: entries vanish with their library. A sweep that shares one library
#: across topologies (the paper fixes the library) enumerates ``A`` once
#: instead of once per solve.
_COMBINATION_CACHE: "weakref.WeakKeyDictionary[ModelLibrary, Dict[Tuple[str, int], CombinationSet]]" = (
    weakref.WeakKeyDictionary()
)


def enumerate_shared_combinations(
    library: ModelLibrary,
    mode: str = "auto",
    max_combinations: int = 1_000_000,
) -> CombinationSet:
    """Build the combination set ``A`` for Algorithm 2.

    The result is memoised per library object (treat it as immutable —
    every built-in path does) and per ``(mode, max_combinations)``.

    Modes
    -----
    ``"exhaustive"``
        Every subset of the shared blocks — the paper's literal ``2^β``;
        only viable for tiny block counts (tests). Ordered by subset size,
        then lexicographically by sorted block ids (the
        ``itertools.combinations`` order).
    ``"prefix"``
        Exploits the structure fine-tuning creates: per-model shared sets
        form nested chains (one per root/family), and a union of
        non-maximal prefixes of the *same* chain is never preferable, so
        ``A`` is the product over chains of (no prefix | one of its
        distinct prefixes), in ``itertools.product`` order. Raises
        :class:`SolverError` if the library's shared sets are not
        chain-structured.
    ``"auto"``
        ``"prefix"`` when the library is chain-structured, otherwise
        ``"exhaustive"``.

    Raises
    ------
    SolverError
        If the resulting ``A`` would exceed ``max_combinations``.
    """
    if mode not in COMBINATION_MODES:
        raise SolverError(f"unknown combination mode {mode!r}")
    per_library = _COMBINATION_CACHE.setdefault(library, {})
    key = (mode, max_combinations)
    if key not in per_library:
        per_library[key] = _enumerate(library, mode, max_combinations)
    return per_library[key]


def _enumerate(
    library: ModelLibrary, mode: str, max_combinations: int
) -> CombinationSet:
    """The enumeration behind :func:`enumerate_shared_combinations`."""
    shared = sorted(library.shared_block_ids)
    if not shared:
        return CombinationSet(
            (), np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=np.int64)
        )

    if mode in ("auto", "prefix"):
        shared_sets = _distinct_shared_sets(library)
        chains = _group_nested_chains(shared_sets)
        nested = all(_chains_are_nested(chain) for chain in chains)
        if not nested and mode == "prefix":
            raise SolverError(
                "library's shared blocks are not chain-structured; "
                "use mode='exhaustive'"
            )
        if nested:
            count = 1
            for chain in chains:
                count *= len(chain) + 1
                if count > max_combinations:
                    raise SolverError(
                        f"combination set would exceed {max_combinations} "
                        f"elements; the library is too general for Spec"
                    )
            # itertools.product order: the last chain's level varies
            # fastest, each chain's block repeated ``repeat`` times.
            dtype = np.min_scalar_type(max(len(chain) for chain in chains))
            choices = np.empty((count, len(chains)), dtype=dtype)
            sizes = np.zeros(count, dtype=np.int64)
            repeat = count
            for chain_pos, chain in enumerate(chains):
                radix = len(chain) + 1
                repeat //= radix
                column = np.tile(
                    np.repeat(np.arange(radix, dtype=dtype), repeat),
                    count // (radix * repeat),
                )
                choices[:, chain_pos] = column
                level_sizes = np.array(
                    [0] + [library.blocks_size(prefix) for prefix in chain],
                    dtype=np.int64,
                )
                sizes += level_sizes[column]
            return CombinationSet(chains, choices, sizes)

    count = 2 ** len(shared)
    if count > max_combinations:
        raise SolverError(
            f"2^{len(shared)} shared-block subsets exceed {max_combinations}; "
            "the library is too general for exhaustive enumeration"
        )
    # Row r of ``bits`` is the subset whose membership, read with block
    # position 0 as the most significant bit, spells r. For equal subset
    # sizes, itertools.combinations' lexicographic order is descending r.
    masks = np.arange(count, dtype=np.int64)
    bits = np.empty((count, len(shared)), dtype=np.uint8)
    for pos in range(len(shared)):
        bits[:, pos] = (masks >> (len(shared) - 1 - pos)) & 1
    choices = bits[np.lexsort((-masks, bits.sum(axis=1)))]
    block_sizes = np.array(
        [library.block_size(block) for block in shared], dtype=np.int64
    )
    return CombinationSet(
        [(frozenset((block,)),) for block in shared],
        choices,
        choices @ block_sizes,
    )


# ----------------------------------------------------------------------
# Knapsack backends
# ----------------------------------------------------------------------
def _validate_knapsack(
    values: Sequence[float], weights: Sequence[int], capacity: int
) -> List[Tuple[int, float, int]]:
    """Check a knapsack instance and return ``(index, value, weight)`` of
    every item that can enter a solution (positive value, weight within
    the capacity), in input order.

    The input check of every public backend function, so all of them
    reject the same inputs with the same errors. Its output is the
    filtered-item contract :meth:`ValueDpTables.solve` takes: the
    values and weights of these items, whose positions
    :func:`knapsack_value_dp` maps back to input indices.
    """
    all_values = np.asarray(values, dtype=float).tolist()
    all_weights = np.asarray(weights)
    if all_weights.dtype.kind != "i":
        integral = all_weights.astype(np.int64)
        if (integral != all_weights).any():
            raise SolverError("knapsack weights must be integers")
        all_weights = integral
    all_weights = all_weights.tolist()
    if len(all_values) != len(all_weights):
        raise SolverError("values and weights must have equal length")
    if capacity < 0:
        raise SolverError(f"capacity must be non-negative, got {capacity}")
    if all_values and min(all_values) < 0:
        raise SolverError("knapsack values must be non-negative")
    if all_weights and min(all_weights) < 0:
        raise SolverError("knapsack weights must be non-negative")
    return [
        item
        for item in zip(range(len(all_values)), all_values, all_weights)
        if item[1] > 0 and item[2] <= capacity
    ]


def knapsack_value_dp(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    epsilon: float = 0.1,
    max_states: int = 5_000_000,
) -> Tuple[float, List[int]]:
    """The paper's rounded value-dimension DP (Algorithm 2, eq. 16/19).

    Values are rounded to integers ``⌊v / (ε · v_min)⌋`` (``v_min`` =
    smallest positive value), then ``T[w] = minimal weight achieving
    rounded value w`` is filled item by item. Guarantees total value at
    least ``(1 - ε)`` of the optimum. A one-shot :class:`ValueDpTables`
    solve that memoises nothing; selections are bit-identical to the
    seed implementation (retained as ``reference_knapsack_value_dp`` in
    ``tests/oracles/reference.py``).

    Returns ``(true_value_of_selection, selected_indices)``.

    Raises
    ------
    SolverError
        If ``epsilon`` is not a finite positive number (use the exact
        backends for ε = 0), or the DP table would exceed ``max_states``.
    """
    tables = ValueDpTables(epsilon, capacity, max_states=max_states, max_entries=0)
    items = _validate_knapsack(values, weights, capacity)
    original, item_values, item_weights = zip(*items) if items else ((), (), ())
    value, positions = tables.solve(item_values, item_weights, capacity)
    return value, [original[pos] for pos in positions]


def knapsack_weight_dp(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    quantum: int = 1_000_000,
    max_states: int = 50_000_000,
) -> Tuple[float, List[int]]:
    """DP over quantised weights: exact for the quantised instance.

    Item weights are *ceiled* to multiples of ``quantum`` (conservative:
    a returned selection always fits the true capacity). With byte-exact
    weights and ``quantum=1`` this is the textbook exact DP.
    """
    items = _validate_knapsack(values, weights, capacity)
    if quantum <= 0:
        raise SolverError(f"quantum must be positive, got {quantum}")
    cap_units = capacity // quantum
    items = [
        (index, value, -(-weight // quantum)) for index, value, weight in items
    ]
    items = [item for item in items if item[2] <= cap_units]
    if not items:
        return 0.0, []
    if (cap_units + 1) * len(items) > max_states:
        raise SolverError(
            f"weight DP needs {(cap_units + 1) * len(items)} states "
            f"(> {max_states}); increase the quantum"
        )
    best = np.zeros(cap_units + 1)
    take = np.zeros((len(items), cap_units + 1), dtype=bool)
    for item_pos, (_, value, weight_units) in enumerate(items):
        if weight_units == 0:
            # Fits for free after quantisation: always take.
            best += value
            take[item_pos, :] = True
            continue
        shifted = best[: cap_units + 1 - weight_units] + value
        segment = best[weight_units:]
        improved = shifted > segment
        segment[improved] = shifted[improved]
        take[item_pos, weight_units:] = improved
    units = int(np.argmax(best))
    selected = []
    for item_pos in range(len(items) - 1, -1, -1):
        if take[item_pos, units]:
            selected.append(items[item_pos][0])
            units -= items[item_pos][2]
    selected.reverse()
    true_value = float(sum(values[index] for index in selected))
    return true_value, selected


def _density_ordered_items(
    values: Sequence[float], weights: Sequence[int], capacity: int
) -> List[Tuple[int, float, int]]:
    """The exact searches' items: ``(index, value, weight)`` of every
    item that can enter a solution, in decreasing value density."""
    items = _validate_knapsack(values, weights, capacity)
    items.sort(key=lambda item: item[1] / max(item[2], 1e-12), reverse=True)
    return items


def _lp_bound(
    items: Sequence[Tuple[int, float, int]],
    position: int,
    value: float,
    remaining: int,
) -> float:
    """Fractional (LP) relaxation bound of a search node: ``value`` plus
    the density-ordered ``items[position:]`` packed into ``remaining``,
    the first one that does not fit taken fractionally."""
    upper = value
    for idx in range(position, len(items)):
        _, item_value, item_weight = items[idx]
        if item_weight <= remaining:
            upper += item_value
            remaining -= item_weight
        else:
            if item_weight > 0:
                upper += item_value * remaining / item_weight
            break
    return upper


def knapsack_branch_and_bound(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
) -> Tuple[float, List[int]]:
    """Exact 0/1 knapsack via depth-first branch and bound.

    Items are explored in decreasing value density with the fractional
    (LP) relaxation as the pruning bound. Exponential worst case but fast
    at the sub-problem sizes Spec produces; the ε = 0 reference solver.
    """
    items = _density_ordered_items(values, weights, capacity)
    n = len(items)
    best_value = 0.0
    best_set: List[int] = []
    chosen: List[int] = []

    def dfs(position: int, value: float, remaining: int) -> None:
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = list(chosen)
        if position == n:
            return
        # No slack: a node whose bound exceeds the incumbent at all may
        # hold a strictly better completion.
        if _lp_bound(items, position, value, remaining) <= best_value:
            return
        index, item_value, item_weight = items[position]
        if item_weight <= remaining:
            chosen.append(index)
            dfs(position + 1, value + item_value, remaining - item_weight)
            chosen.pop()
        dfs(position + 1, value, remaining)

    dfs(0, 0.0, capacity)
    return best_value, sorted(best_set)


def knapsack_best_first(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    max_nodes: int = 1_000_000,
) -> Tuple[float, List[int]]:
    """Exact 0/1 knapsack via best-first branch and bound.

    Explores the same include-first decision tree as
    :func:`knapsack_branch_and_bound` (same item order, same LP bound)
    but pops nodes from a priority queue ordered by bound instead of
    recursing depth-first. Only nodes whose bound exceeds the optimum
    are ever expanded, so the node count collapses on instances where
    depth-first churns — exactly the wide-value-spread instances that
    overflow the rounded value DP.

    The queue is tie-broken on the DFS preorder path (include = 0 sorts
    before exclude = 1), and the incumbent keeps the preorder-earliest
    achiever of the maximal value, so equal-value optima resolve to the
    *same* selection the depth-first reference returns. Both prune a
    node exactly when its bound cannot exceed the incumbent, with no
    slack, so they agree on the optimum value as well (the equivalence
    tests pin the two backends selection-identical).

    Raises
    ------
    SolverError
        If more than ``max_nodes`` nodes are expanded (exact 0/1
        knapsack is exponential in the worst case).
    """
    items = _density_ordered_items(values, weights, capacity)
    n = len(items)
    best_value = 0.0
    best_set: Tuple[int, ...] = ()
    # Sentinel larger than every real path (paths start with 0 or 1).
    best_path: Tuple[int, ...] = (2,)
    expanded = 0
    # Heap entry: (-bound, preorder path, position, value, remaining,
    # chosen original indices). Python's tuple comparison gives us
    # best-bound-first with preorder tie-breaks for free.
    root = (-_lp_bound(items, 0, 0.0, capacity), (), 0, 0.0, capacity, ())
    heap: List[Tuple[float, Tuple[int, ...], int, float, int, Tuple[int, ...]]] = [root]
    while heap:
        neg_bound, path, position, value, remaining, chosen = heapq.heappop(heap)
        node_bound = -neg_bound
        # The heap pops in (bound desc, preorder) order, so once the top
        # cannot strictly improve — or can at best tie at a later
        # preorder position — nothing below it can either.
        if node_bound < best_value or (
            node_bound == best_value and path > best_path
        ):
            break
        if value > best_value or (value == best_value and path < best_path):
            best_value = value
            best_set = chosen
            best_path = path
        if position == n:
            continue
        expanded += 1
        if expanded > max_nodes:
            raise SolverError(
                f"best-first knapsack expanded more than {max_nodes} nodes; "
                "use a DP backend for this instance"
            )
        index, item_value, item_weight = items[position]
        if item_weight <= remaining:
            include_value = value + item_value
            include_remaining = remaining - item_weight
            heapq.heappush(
                heap,
                (
                    -_lp_bound(items, position + 1, include_value, include_remaining),
                    path + (0,),
                    position + 1,
                    include_value,
                    include_remaining,
                    chosen + (index,),
                ),
            )
        heapq.heappush(
            heap,
            (
                -_lp_bound(items, position + 1, value, remaining),
                path + (1,),
                position + 1,
                value,
                remaining,
                chosen,
            ),
        )
    return best_value, sorted(best_set)


#: Sentinel cached for filtered instances whose rounded table overflows
#: ``max_states`` — repeat calls re-raise without re-deriving the count
#: (a hit, never a second miss).
_TABLE_BLOWN = "blown"


class TableBlownError(SolverError):
    """The rounded value-DP table would exceed ``max_states``.

    The one :class:`SolverError` of :meth:`ValueDpTables.solve` that a
    caller may answer with another backend; a broken filtered-item
    contract or a failed backtrack is a plain :class:`SolverError`.
    """


def _lp_units(
    rounded: Sequence[int], weights: Sequence[int], capacity: float
) -> int:
    """The fractional-knapsack (LP) bound on rounded units at ``capacity``.

    Items go in decreasing density ``r / w`` (zero-weight items first
    and whole), and the first item that does not fit counts for the
    fraction that does, rounded up. Every selection that fits
    ``capacity`` reaches at most this many units. Integer weights make
    ``⌊capacity⌋`` the same budget; an infinite one bounds nothing.

    The order is exact. Python's int division is correctly rounded,
    hence monotone, so distinct float densities order the items as the
    exact ones do. Only when two floats are equal, which may hide an
    exact difference, are the items sorted by the cross products
    ``r_a·w_b`` against ``r_b·w_a``.
    """
    if not math.isfinite(capacity):
        return sum(rounded)
    keys = [-r / w if w else -math.inf for r, w in zip(rounded, weights)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):
        order.sort(
            key=functools.cmp_to_key(
                lambda a, b: rounded[b] * weights[a] - rounded[a] * weights[b]
            )
        )
    remaining = math.floor(capacity)
    units = 0
    for item in order:
        weight = weights[item]
        if weight <= remaining:
            units += rounded[item]
            remaining -= weight
        else:
            units += -(-rounded[item] * remaining // weight)
            break
    return units


class ValueDpTables:
    """The rounded value DP of :func:`knapsack_value_dp`, memoised.

    The one implementation of the paper's rounded DP fill and backtrack.
    :meth:`solve` takes *filtered* items only: equal-length values and
    weights, every value positive and every weight in ``0..`` the call
    capacity, as :func:`_validate_knapsack` leaves them. The rounded
    table ``min_weight[units]`` depends only on that item list,
    ``epsilon`` and the table's ``capacity`` — the largest capacity any
    call may ask for. A table is filled only up to the LP bound on
    rounded units at ``capacity``: every state above it weighs more than
    ``capacity``, and no state is read from a higher one, so every state
    a call can reach, its decision bits and the backtrack are exactly
    the uncapped DP's. A call at any capacity up to ``capacity`` reads
    the same table; a larger one is refused. Within one Spec solve the
    same filtered sub-instance recurs across combinations and servers
    (utilities only change for models whose demand an earlier placement
    already served), so keying the fill on the filtered
    ``(values, weights)`` tuples turns repeat calls into a backtrack.
    At most ``max_entries`` tables are kept; ``max_entries=0`` memoises
    nothing (a one-shot solve, which is what
    :func:`knapsack_value_dp` runs).

    The items are the memo key, so the whole contract is checked on a
    miss, before the fill. A hit checks only what depends on the call:
    its capacity is at most the table's, and at least the heaviest
    cached item (an item list filtered for a larger capacity may not
    fit a smaller one).

    Each table keeps two things for the per-capacity step: the suffix
    minimum of ``min_weight``, so the best reachable value under a
    capacity is one binary search, and a packed per-item decision
    bitset over the states (the seed's take matrix), so the backtrack
    tests one bit per item. Selections are byte-identical to the seed
    DP (asserted by the equivalence tests).
    """

    def __init__(
        self,
        epsilon: float,
        capacity: float,
        max_states: int = 5_000_000,
        max_entries: int = 100_000,
    ) -> None:
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise SolverError(
                f"the rounded value DP requires a finite epsilon > 0, got {epsilon}"
            )
        self.epsilon = epsilon
        self.capacity = capacity
        self.max_states = max_states
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._tables: Dict[Tuple[Tuple[float, ...], Tuple[int, ...]], tuple] = {}

    # ------------------------------------------------------------------
    def _fill(self, values: Tuple[float, ...], weights: Tuple[int, ...]):
        """The part of the DP every call up to ``capacity`` shares.

        Returns ``(suffix_min, decisions, row_bytes, rounded)``:
        ``suffix_min[u]`` is the least weight reaching *at least* ``u``
        rounded units (non-decreasing), and bit ``u`` of item ``j``'s
        ``row_bytes``-long row in ``decisions`` (little bit order) is set
        iff item ``j`` improved state ``u``, for the states ``u`` up to
        the LP bound at ``capacity``. Each item's state sweep is one
        slice-shift update; the shifted candidate row is materialised
        before the masked write, which gives exactly the 0/1 semantics
        of the seed's descending Python loop.
        """
        count = len(values)
        unit = self.epsilon * min(values)
        ratio = np.floor(np.array(values) / unit)
        # Beyond 2**53 the float ratios stop being the exact floors the
        # seed's integer arithmetic produces — but any such instance is
        # astronomically past max_states, so the blown marker is exact.
        if not np.all(np.isfinite(ratio)) or float(ratio.max()) >= 2.0**53:
            return (
                _TABLE_BLOWN,
                f"value DP needs more than {self.max_states} states; "
                "increase epsilon or use another backend",
            )
        rounded = np.maximum(ratio, 1.0).astype(np.int64).tolist()
        total_rounded = sum(rounded)
        # The uncapped width decides the blow-up, so the same instances
        # fall back to the other backends whatever the capacity.
        if (total_rounded + 1) * count > self.max_states:
            return (
                _TABLE_BLOWN,
                f"value DP needs {(total_rounded + 1) * count} states "
                f"(> {self.max_states}); increase epsilon or use another backend",
            )
        # Every item fits ``capacity`` alone (the key is filtered to a
        # call capacity no larger), so ``top`` is at least each item's
        # units and every sweep below is non-empty.
        top = min(total_rounded, _lp_units(rounded, weights, self.capacity))
        min_weight = np.full(top + 1, np.inf)
        min_weight[0] = 0.0
        decisions = np.zeros((count, top + 1), dtype=bool)
        reachable = 0
        for item, (weight, value_units) in enumerate(zip(weights, rounded)):
            reachable = min(reachable + value_units, top)
            shifted = min_weight[: reachable - value_units + 1] + weight
            segment = min_weight[value_units : reachable + 1]
            improved = decisions[item, value_units : reachable + 1]
            np.less(shifted, segment, out=improved)
            np.copyto(segment, shifted, where=improved)
        suffix_min = np.minimum.accumulate(min_weight[::-1])[::-1]
        packed = np.packbits(decisions, axis=1, bitorder="little")
        return (suffix_min, packed.tobytes(), packed.shape[1], rounded)

    # ------------------------------------------------------------------
    def solve(
        self, values: Sequence[float], weights: Sequence[int], capacity: int
    ) -> Tuple[float, List[int]]:
        """Solve one filtered instance; returns ``(true_value,
        selected_positions)``, positions into ``values``.

        Raises :class:`SolverError` on items outside the filtered-item
        contract or a capacity above the table's, and
        :class:`TableBlownError` on a rounded table past ``max_states``.
        """
        if capacity > self.capacity:
            raise SolverError(
                f"capacity {capacity} exceeds the tables' capacity {self.capacity}"
            )
        key = (tuple(values), tuple(weights))
        entry = self._tables.get(key)
        if entry is None:
            heaviest = _check_filtered(key[0], key[1], capacity)
            if not key[0]:
                return 0.0, []
            self.misses += 1
            entry = self._fill(*key) + (heaviest,)
            if len(self._tables) < self.max_entries:
                self._tables[key] = entry
        else:
            self.hits += 1
            if entry[-1] > capacity:
                raise SolverError(
                    f"knapsack item of weight {entry[-1]} exceeds capacity {capacity}"
                )
        if entry[0] is _TABLE_BLOWN:
            raise TableBlownError(entry[1])
        suffix_min, decisions, row_bytes, rounded, _ = entry

        # The largest u with min_weight[u] <= capacity is the largest u
        # whose suffix minimum fits (suffix_min[0] = 0 always does).
        units = int(suffix_min.searchsorted(capacity, side="right")) - 1
        selected: List[int] = []
        for item_pos in range(len(rounded) - 1, -1, -1):
            if decisions[item_pos * row_bytes + (units >> 3)] >> (units & 7) & 1:
                selected.append(item_pos)
                units -= rounded[item_pos]
        if units != 0:
            raise SolverError("value DP backtrack failed (internal error)")
        selected.reverse()
        true_value = float(sum([key[0][pos] for pos in selected]))
        return true_value, selected


def _check_filtered(
    values: Sequence[float], weights: Sequence[int], capacity: int
) -> int:
    """Check the filtered-item contract of :meth:`ValueDpTables.solve`;
    returns the heaviest weight (0 for no items)."""
    if len(values) != len(weights):
        raise SolverError("values and weights must have equal length")
    if capacity < 0:
        raise SolverError(f"capacity must be non-negative, got {capacity}")
    if not all(value > 0 for value in values):
        raise SolverError("filtered knapsack values must be positive")
    if weights and min(weights) < 0:
        raise SolverError("knapsack weights must be non-negative")
    heaviest = max(weights, default=0)
    if heaviest > capacity:
        raise SolverError(
            f"knapsack item of weight {heaviest} exceeds capacity {capacity}"
        )
    return heaviest


#: Backend registry used by the Spec solver.
KNAPSACK_BACKENDS = {
    "value_dp": knapsack_value_dp,
    "weight_dp": knapsack_weight_dp,
    "exact": knapsack_branch_and_bound,
    "best_first": knapsack_best_first,
}
