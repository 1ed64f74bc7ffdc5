"""Spec's candidate traversal, on its own.

``TrimCachingSpec._traverse`` must return what the seed's walk returned:
run every candidate in bound-rank order and keep the first strict
improvement, i.e. the maximal mass at the earliest rank. The inputs
here are drawn from small integer sets so that bounds, guards and
masses tie often, with every mass at most its guard and its bound, as
every knapsack backend guarantees.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import TrimCachingSpec


def seed_walk(bounds, order, masses):
    """Every candidate in rank order; the first strict improvement wins."""
    best_mass, best_selection = 0.0, []
    for pos in order:
        if masses[pos] > best_mass:
            best_mass, best_selection = masses[pos], [pos]
    return best_mass, best_selection


def traverse(bounds, order, masses, lp_guard, chunks):
    runs = []

    def run_position(pos):
        runs.append(pos)
        return masses[pos], [pos]

    spec = TrimCachingSpec(workers=chunks)
    if chunks == 1:
        return spec._traverse(bounds, order, run_position, None, lp_guard), runs
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        return spec._traverse(bounds, order, run_position, pool, lp_guard), runs


candidate = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),  # mass
    st.sampled_from([0.0, 0.5, 1.0]),  # guard slack over the mass
    st.sampled_from([0.0, 0.5, 1.0]),  # bound slack over the mass
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(candidate, min_size=1, max_size=12),
    st.sampled_from([1, 2, 3]),
)
def test_matches_the_seed_walk(candidates, chunks):
    masses = [mass for mass, _, _ in candidates]
    guards = np.array([mass + slack for mass, slack, _ in candidates])
    bounds = [mass + slack for mass, _, slack in candidates]
    order = np.argsort(-np.array(bounds), kind="stable").tolist()

    (mass, selection), runs = traverse(bounds, order, masses, guards, chunks)

    assert (mass, selection) == seed_walk(bounds, order, masses)
    assert len(runs) == len(set(runs))


def test_best_guard_runs_first_and_ends_the_walk():
    # Bound order is 0, 1, 2, but candidate 2's guard is the largest;
    # its mass beats every other guard, so nothing else runs.
    bounds = [5.0, 4.0, 3.0]
    order = [0, 1, 2]
    masses = [1.0, 1.0, 2.0]
    guards = np.array([1.5, 1.0, 2.5])

    result, runs = traverse(bounds, order, masses, guards, chunks=1)

    assert result == (2.0, [2])
    assert runs == [2]


def test_equal_mass_at_an_earlier_rank_wins():
    # Candidate 1 is visited first (larger guard) and reaches 2.0;
    # candidate 0 ties it at an earlier rank, so it must still run and
    # win, as in the seed's walk.
    bounds = [3.0, 2.0]
    order = [0, 1]
    masses = [2.0, 2.0]
    guards = np.array([2.0, 2.5])

    result, runs = traverse(bounds, order, masses, guards, chunks=1)

    assert result == (2.0, [0])
    assert runs == [1, 0]


def test_many_chunks_under_frequent_thread_switches():
    # More chunks than cores, switching every microsecond: the shared
    # incumbent must never prune the winner.
    rng = np.random.default_rng(0)
    masses = rng.integers(0, 4, size=200).astype(float).tolist()
    guards = np.array(masses) + rng.integers(0, 2, size=200)
    bounds = (np.array(masses) + rng.integers(0, 2, size=200)).tolist()
    order = np.argsort(-np.array(bounds), kind="stable").tolist()
    expected = seed_walk(bounds, order, masses)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            result, runs = traverse(bounds, order, masses, guards, chunks=8)
            assert result == expected
            assert len(runs) == len(set(runs))
    finally:
        sys.setswitchinterval(interval)
