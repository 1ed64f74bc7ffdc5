"""Empirical submodularity checkers (Propositions 1-2 verification).

The paper proves that the objective ``U`` is submodular and the storage
constraints ``g_m`` are submodular over placement ground sets. These
helpers verify the defining inequality

    f(S ∪ {x}) - f(S)  >=  f(T ∪ {x}) - f(T)   for S ⊆ T, x ∉ T

either exhaustively (tiny ground sets) or by random sampling, and are used
by the property-based test suite. They work on arbitrary set functions so
they can also *refute* submodularity for functions that should fail.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, List, Sequence, Tuple

from repro.core.objective import hit_ratio
from repro.core.placement import PlacementInstance
from repro.utils.rng import SeedLike, as_generator

SetFunction = Callable[[FrozenSet], float]

#: Numerical slack for float comparisons.
_TOL = 1e-9


def marginal(f: SetFunction, base: FrozenSet, element) -> float:
    """``f(base ∪ {element}) - f(base)``."""
    return f(base | {element}) - f(base)


def is_submodular_exhaustive(
    f: SetFunction, ground_set: Sequence
) -> Tuple[bool, List[Tuple[FrozenSet, FrozenSet, object]]]:
    """Check every (S ⊆ T, x) triple; returns (ok, violations).

    Exponential — intended for ground sets of at most ~12 elements.
    """
    elements = list(ground_set)
    violations: List[Tuple[FrozenSet, FrozenSet, object]] = []
    for t_size in range(len(elements) + 1):
        for t_tuple in itertools.combinations(elements, t_size):
            t_set = frozenset(t_tuple)
            rest = [x for x in elements if x not in t_set]
            for s_size in range(t_size + 1):
                for s_tuple in itertools.combinations(t_tuple, s_size):
                    s_set = frozenset(s_tuple)
                    for x in rest:
                        if (
                            marginal(f, s_set, x)
                            < marginal(f, t_set, x) - _TOL
                        ):
                            violations.append((s_set, t_set, x))
    return not violations, violations


def is_submodular_sampled(
    f: SetFunction,
    ground_set: Sequence,
    trials: int = 200,
    seed: SeedLike = 0,
) -> bool:
    """Randomised submodularity check (no false negatives on failures found)."""
    elements = list(ground_set)
    if len(elements) < 2:
        return True
    rng = as_generator(seed)
    for _ in range(trials):
        x = elements[int(rng.integers(len(elements)))]
        others = [e for e in elements if e != x]
        t_size = int(rng.integers(0, len(others) + 1))
        t_list = [others[i] for i in rng.permutation(len(others))[:t_size]]
        t_set = frozenset(t_list)
        s_size = int(rng.integers(0, len(t_list) + 1))
        s_set = frozenset(t_list[:s_size])
        if marginal(f, s_set, x) < marginal(f, t_set, x) - _TOL:
            return False
    return True


def is_monotone_sampled(
    f: SetFunction,
    ground_set: Sequence,
    trials: int = 200,
    seed: SeedLike = 0,
) -> bool:
    """Randomised check that ``f`` never decreases when adding elements."""
    elements = list(ground_set)
    if not elements:
        return True
    rng = as_generator(seed)
    for _ in range(trials):
        size = int(rng.integers(0, len(elements)))
        base = frozenset(
            elements[i] for i in rng.permutation(len(elements))[:size]
        )
        x = elements[int(rng.integers(len(elements)))]
        if x in base:
            continue
        if marginal(f, base, x) < -_TOL:
            return False
    return True


# ----------------------------------------------------------------------
# Paper-specific set functions over the placement ground set
# ----------------------------------------------------------------------
def objective_set_function(instance: PlacementInstance) -> SetFunction:
    """``U`` as a set function over (server, model-index) pairs."""

    def evaluate(pairs: FrozenSet) -> float:
        placement = instance.new_placement()
        for server, model_index in pairs:
            placement.add(server, model_index)
        return hit_ratio(instance, placement)

    return evaluate


def storage_set_function(instance: PlacementInstance, server: int) -> SetFunction:
    """``g_m`` (eq. 7) as a set function over model indices."""

    def evaluate(model_indices: FrozenSet) -> float:
        return float(instance.dedup_storage(model_indices))

    return evaluate


def placement_ground_set(instance: PlacementInstance) -> List[Tuple[int, int]]:
    """All (server, model-index) pairs of an instance."""
    return [
        (server, model_index)
        for server in range(instance.num_servers)
        for model_index in range(instance.num_models)
    ]
