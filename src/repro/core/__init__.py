"""The paper's contribution: the placement problem and its solvers.

* :class:`~repro.core.placement.PlacementInstance` — problem **P1.1**:
  demand ``p_{k,i}``, feasibility ``I1[m,k,i]``, capacities ``Q_m`` and the
  parameter-sharing library.
* :mod:`~repro.core.objective` — cache-hit objective ``U(X)`` (eq. 2) and
  the submodular storage cost ``g_m`` (eq. 7).
* :class:`~repro.core.spec.TrimCachingSpec` — Algorithms 1+2 for the
  special case, with the (1-ε)/2 guarantee.
* :class:`~repro.core.gen.TrimCachingGen` — Algorithm 3 greedy for the
  general case.
* :class:`~repro.core.independent.IndependentCaching` — the content-
  placement baseline that ignores parameter sharing.
* :class:`~repro.core.exhaustive.ExhaustiveSearch` — exact optimum for
  small instances (used by the Fig. 6 study and the test suite).
"""

from repro.core.blockmask import BlockMaskIndex, ServerBlockCache
from repro.core.bounds import gamma_bound, spec_guarantee
from repro.core.exhaustive import ExhaustiveConfig, ExhaustiveSearch
from repro.core.gen import GenConfig, TrimCachingGen
from repro.core.independent import IndependentCaching, IndependentConfig
from repro.core.extras import (
    RandomConfig,
    RandomPlacement,
    TopPopularityConfig,
    TopPopularityPlacement,
)
from repro.core.objective import CoverageTracker, hit_ratio, storage_used
from repro.core.placement import Placement, PlacementInstance
from repro.core.sparse import SparseFeasibility
from repro.core.spec import SpecConfig, TrimCachingSpec

__all__ = [
    "PlacementInstance",
    "Placement",
    "SparseFeasibility",
    "hit_ratio",
    "storage_used",
    "CoverageTracker",
    "BlockMaskIndex",
    "ServerBlockCache",
    "TrimCachingSpec",
    "TrimCachingGen",
    "IndependentCaching",
    "ExhaustiveSearch",
    "RandomPlacement",
    "TopPopularityPlacement",
    "SpecConfig",
    "GenConfig",
    "IndependentConfig",
    "ExhaustiveConfig",
    "RandomConfig",
    "TopPopularityConfig",
    "gamma_bound",
    "spec_guarantee",
]
