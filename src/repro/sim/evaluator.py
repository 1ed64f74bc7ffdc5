"""Placement evaluation: expected hit ratio and Rayleigh Monte Carlo.

The paper decides placements from *average* channel gains but scores them
over >10³ Rayleigh-fading channel realisations per topology.
:class:`PlacementEvaluator` reproduces both: :meth:`expected_hit_ratio`
is the optimisation objective ``U(X)``; :meth:`monte_carlo_hit_ratio`
re-draws instantaneous rates per realisation, recomputes the feasibility
indicator, and averages the realised hit ratio.

Per realisation the feasibility indicator is rebuilt as a
:class:`~repro.core.sparse.SparseFeasibility` CSR artifact and scored via
the sparse ``served_matrix`` walk — the dense ``(M, K, I)`` tensor is
never materialised, so there is no ``O(M·K·I)`` inner loop per
realisation. The CSR encodes the identical indicator and the walk
reproduces the dense einsum's booleans exactly, so each realised hit
ratio is **bit-identical** to scoring the dense
:meth:`~repro.network.latency.LatencyModel.feasibility` tensor with
:func:`~repro.core.objective.hit_ratio` on the same RNG stream (asserted
by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.objective import hit_ratio
from repro.core.placement import Placement
from repro.network.channel import ChannelModel
from repro.sim.scenario import Scenario
from repro.utils.rng import SeedLike, as_generator
from repro.utils.stats import RunningStats
from repro.utils.validation import check_positive


@dataclass
class MonteCarloResult:
    """Aggregate of a fading Monte-Carlo evaluation."""

    mean: float
    std: float
    num_realizations: int


@dataclass(frozen=True)
class EvalSpec:
    """Configuration of the stratified sampling evaluator.

    Attributes
    ----------
    sample_users:
        Total number of users to sample (across all strata).
    strata:
        Number of contiguous user-index strata; proportional allocation
        with at least two samples per stratum (variance needs two).
    seed:
        Sampling seed; the sweep runner defaults it to the scenario seed
        so repeated runs draw the same panel.
    z:
        Normal quantile of the reported confidence interval (1.96 = 95%).
    """

    sample_users: int
    strata: int = 4
    seed: Optional[int] = None
    z: float = 1.96

    def __post_init__(self) -> None:
        if self.strata < 1:
            raise ValueError(f"strata must be at least 1, got {self.strata}")
        if self.sample_users < 2 * self.strata:
            raise ValueError(
                f"sample_users must be at least 2 per stratum "
                f"({2 * self.strata}), got {self.sample_users}"
            )
        check_positive("z", self.z)


@dataclass
class SampledEvaluation:
    """A sampling estimate of the expected hit ratio, with its CI."""

    estimate: float
    ci_half_width: float
    sample_size: int
    strata: int

    @property
    def lower(self) -> float:
        """Lower CI bound."""
        return self.estimate - self.ci_half_width

    @property
    def upper(self) -> float:
        """Upper CI bound."""
        return self.estimate + self.ci_half_width

    def contains(self, value: float) -> bool:
        """Does the confidence interval cover ``value``?"""
        return self.lower <= value <= self.upper


@dataclass
class StreamingEvaluation:
    """Exact expected hit ratio computed in user blocks.

    ``per_user`` summarises the distribution of per-user hit masses
    (mean/std/min/max over the whole population), folded chunk by chunk.
    """

    hit_ratio: float
    per_user: RunningStats


class PlacementEvaluator:
    """Evaluate placements on one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    def expected_hit_ratio(self, placement: Placement) -> float:
        """``U(X)`` under expected rates (the solver objective)."""
        return hit_ratio(self.scenario.instance, placement)

    def streaming_expected_hit_ratio(
        self, placement: Placement, chunk_size: Optional[int] = None
    ) -> StreamingEvaluation:
        """``U(X)`` folded over user blocks — temporaries stay O(chunk).

        Walks :meth:`SparseFeasibility.served_matrix_block` one block at
        a time and folds the per-user hit masses into a
        :class:`RunningStats`; the served scratch is ``(chunk, I)``
        instead of ``(K, I)``. The ratio equals
        :meth:`expected_hit_ratio` up to summation order (numerically
        close, not bit-equal — the blocks sum in a different order).
        ``chunk_size`` defaults to the scenario config's ``chunk_size``,
        or 65536 when the scenario was built unchunked.
        """
        if chunk_size is None:
            chunk_size = self.scenario.config.chunk_size or 65536
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        instance = self.scenario.instance
        sparse = instance.sparse_feasible
        demand = instance.demand
        placement_matrix = placement.matrix
        num_users = self.scenario.num_users
        stats = RunningStats()
        total = 0.0
        for start in range(0, num_users, chunk_size):
            stop = min(start + chunk_size, num_users)
            served = sparse.served_matrix_block(placement_matrix, start, stop)
            masses = (demand[start:stop] * served).sum(axis=1)
            stats.add_array(masses)
            total += float(masses.sum())
        return StreamingEvaluation(
            hit_ratio=total / instance.total_demand, per_user=stats
        )

    def _user_hit_mass(
        self, placement_matrix: np.ndarray, user_indices: np.ndarray
    ) -> np.ndarray:
        """Exact hit mass ``Σ_i d_{k,i}·served(k,i)`` of selected users.

        A vectorised gather over the per-user CSR view: concatenate the
        chosen users' (model, server) runs, keep the placed entries, and
        reduce each user's *distinct* served models' demand — touching
        only the sampled rows, never a ``(K, I)`` matrix.
        """
        sparse = self.scenario.instance.sparse_feasible
        demand = self.scenario.instance.demand
        num_models = self.scenario.num_models
        user_indptr, user_models, user_servers = sparse.user_view()
        user_indices = np.asarray(user_indices, dtype=np.int64)
        counts = user_indptr[user_indices + 1] - user_indptr[user_indices]
        total = int(counts.sum())
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = np.repeat(
            user_indptr[user_indices] - offsets[:-1], counts
        ) + np.arange(total, dtype=np.int64)
        owner = np.repeat(np.arange(user_indices.size, dtype=np.int64), counts)
        placed = placement_matrix[user_servers[flat], user_models[flat]]
        codes = owner * num_models + user_models[flat]
        served_codes = np.unique(codes[placed])
        if served_codes.size == 0:
            return np.zeros(user_indices.size)
        sampled_pos = served_codes // num_models
        sampled_model = served_codes % num_models
        return np.bincount(
            sampled_pos,
            weights=demand[user_indices[sampled_pos], sampled_model],
            minlength=user_indices.size,
        )

    def sampled_hit_ratio(
        self, placement: Placement, spec: EvalSpec
    ) -> SampledEvaluation:
        """Stratified sampling estimate of the expected hit ratio.

        Users are split into ``spec.strata`` contiguous index strata;
        each stratum contributes a without-replacement sample allocated
        proportionally (≥ 2 per stratum). The estimator is the standard
        stratified total ``Σ_h N_h·mean_h`` over per-user hit masses,
        normalised by the *exact* total demand, with the
        finite-population-corrected normal CI. Strata whose sample
        covers the whole stratum contribute zero variance.
        """
        num_users = self.scenario.num_users
        if spec.strata * 2 > num_users:
            raise ValueError(
                f"cannot allocate 2 samples to each of {spec.strata} "
                f"strata with only {num_users} users"
            )
        rng = as_generator(spec.seed)
        placement_matrix = placement.matrix
        total_demand = self.scenario.instance.total_demand
        strata = np.array_split(np.arange(num_users, dtype=np.int64), spec.strata)
        total_estimate = 0.0
        total_variance = 0.0
        sample_size = 0
        for stratum in strata:
            stratum_size = int(stratum.size)
            share = int(round(spec.sample_users * stratum_size / num_users))
            num_sampled = min(stratum_size, max(2, share))
            chosen = stratum[
                np.sort(
                    rng.choice(stratum_size, size=num_sampled, replace=False)
                )
            ]
            masses = self._user_hit_mass(placement_matrix, chosen)
            mean = float(masses.mean())
            total_estimate += stratum_size * mean
            if num_sampled < stratum_size:
                variance = float(masses.var(ddof=1))
                total_variance += (
                    stratum_size**2
                    * (1.0 - num_sampled / stratum_size)
                    * variance
                    / num_sampled
                )
            sample_size += num_sampled
        return SampledEvaluation(
            estimate=total_estimate / total_demand,
            ci_half_width=spec.z * float(np.sqrt(total_variance)) / total_demand,
            sample_size=sample_size,
            strata=spec.strata,
        )

    def monte_carlo_hit_ratio(
        self,
        placement: Placement,
        num_realizations: int = 1000,
        seed: SeedLike = None,
    ) -> MonteCarloResult:
        """Average hit ratio over Rayleigh fading realisations.

        Each realisation draws i.i.d. ``|h|² ~ Exp(1)`` gains per
        (server, user) pair, recomputes instantaneous rates and the
        feasibility indicator as a CSR artifact, and scores the *fixed*
        placement by walking only the placed pairs' user lists. Each
        realised hit ratio is bit-identical to
        ``hit_ratio(instance, placement, latency.feasibility(rates))`` on
        the same draw.

        Every realisation's per-user server sort is seeded with the
        topology's *expected* order — fading rarely upends the ranking,
        so the adaptive stable sort runs on nearly-sorted data,
        amortising the per-realisation argsort across the whole run. The
        hint cannot change a bit of the result (the sort is still an
        exact sort of the faded values).
        """
        if num_realizations < 1:
            raise ValueError("num_realizations must be at least 1")
        rng = as_generator(seed)
        topology = self.scenario.topology
        latency = self.scenario.latency_model
        instance = self.scenario.instance
        stats = RunningStats()
        shape = (topology.num_servers, topology.num_users)
        placement_matrix = placement.matrix
        total_demand = instance.total_demand
        hint = latency.expected_server_order()
        for _ in range(num_realizations):
            gains = ChannelModel.sample_rayleigh_gains(shape, rng)
            rates = topology.faded_rates(gains)
            sparse = latency.feasibility_sparse(rates, server_order_hint=hint)
            served = sparse.served_matrix(placement_matrix)
            stats.add(float((instance.demand * served).sum() / total_demand))
        return MonteCarloResult(
            mean=stats.mean, std=stats.std, num_realizations=num_realizations
        )
