"""End-to-end latency (paper eqs. 4-5) and the feasibility indicator I1.

For a user ``k`` requesting model ``i`` from server ``m``:

* if ``m`` covers ``k`` (associated): ``T = D_i / C̄_{m,k} + t_{k,i}``;
* otherwise the model is relayed through the best associated server
  ``m' ∈ M_k``: ``T = min_{m'} (D_i / C_{m,m'} + D_i / C̄_{m',k}) + t_{k,i}``.

``I1[m, k, i] = (T_{m,k,i} <= T̄_{k,i})`` is the only thing the placement
problem needs from the physical layer, so :class:`LatencyModel`
precomputes *per-bit* delivery times per (m, k) pair and broadcasts them
against model sizes.

:meth:`LatencyModel.feasibility` materialises the dense tensor;
:meth:`LatencyModel.feasibility_sparse` produces the same indicator as a
:class:`~repro.core.sparse.SparseFeasibility` CSR artifact without ever
allocating the ``(M, K, I)`` float latency tensor. Both run the identical
elementwise arithmetic per entry, so their nonzero sets are bit-equal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.sparse import SparseFeasibility
from repro.errors import TopologyError
from repro.network.topology import NetworkTopology


class LatencyModel:
    """Latency/feasibility computations over a topology.

    Parameters
    ----------
    topology:
        The network snapshot.
    model_sizes_bytes:
        ``D_i`` per model, shape ``(I,)`` matching the users' QoS vectors.
    """

    def __init__(self, topology: NetworkTopology, model_sizes_bytes: np.ndarray) -> None:
        sizes = np.asarray(model_sizes_bytes, dtype=float)
        if sizes.ndim != 1:
            raise TopologyError("model_sizes_bytes must be 1-D")
        if sizes.shape[0] != topology.num_models:
            raise TopologyError(
                f"expected {topology.num_models} model sizes, got {sizes.shape[0]}"
            )
        if np.any(sizes <= 0):
            raise TopologyError("model sizes must be positive")
        self.topology = topology
        self.model_bits = 8.0 * sizes
        # Batched (K, I) QoS matrices straight from the topology: the
        # array-backed batch when there is one, otherwise the exact
        # stacking of the per-user rows (bit-identical values).
        self.deadlines = topology.deadlines_matrix
        self.inference = topology.inference_matrix
        self._backhaul_per_bit = self._backhaul_matrix()
        self._expected_order: Optional[np.ndarray] = None

    def _backhaul_matrix(self) -> np.ndarray:
        """Per-bit transfer time between every ordered server pair."""
        num = self.topology.num_servers
        backhaul = self.topology.backhaul
        per_bit = np.full((num, num), 1.0 / backhaul.default_rate_bps)
        # ``Backhaul`` stores each override as a ``(min, max)`` pair of
        # distinct ids, and the topology refuses ids past the last server.
        for (a, b), rate in backhaul.overrides.items():
            per_bit[a, b] = per_bit[b, a] = 1.0 / rate
        np.fill_diagonal(per_bit, 0.0)
        return per_bit

    # ------------------------------------------------------------------
    def per_bit_delivery(self, rates: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-bit delivery time from each server to each user, ``(M, K)``.

        Associated pairs download directly; non-associated pairs take the
        cheapest relay through an associated server. Entries are ``inf``
        when no path exists (user covered by nobody).

        Parameters
        ----------
        rates:
            Access rates ``(M, K)`` in bits/s; defaults to the topology's
            expected rates. Pass faded rates for Monte-Carlo evaluation.
        """
        topo = self.topology
        if rates is None:
            rates = topo.expected_rates
        if rates.shape != (topo.num_servers, topo.num_users):
            raise TopologyError(
                f"rates must have shape {(topo.num_servers, topo.num_users)}, "
                f"got {rates.shape}"
            )
        covered = topo.coverage_mask
        with np.errstate(divide="ignore"):
            access = np.where((rates > 0) & covered, 1.0 / rates, np.inf)

        # access is already inf wherever m does not cover k, so it doubles
        # as the masked per-bit matrix the relay minimisation needs.
        per_bit = access.copy()
        # Relay through the best associated server, all users at once:
        # per_bit[m, k] = min_{m'} (backhaul(m, m') + access(m', k)).
        # Non-associated m' read inf and drop out of the min exactly as in
        # the former per-user loop (float min is order-exact, so the
        # vectorised reduction is bit-identical); a user covered by nobody
        # stays all-inf. User chunks bound the (M, M, K') temporary.
        num_servers, num_users = access.shape
        chunk = max(1, 4_000_000 // max(num_servers * num_servers, 1))
        for start in range(0, num_users, chunk):
            stop = min(start + chunk, num_users)
            relay = (
                self._backhaul_per_bit[:, :, None] + access[None, :, start:stop]
            ).min(axis=1)
            uncovered = ~covered[:, start:stop]
            per_bit[:, start:stop][uncovered] = relay[uncovered]
        return per_bit

    def latency(self, rates: Optional[np.ndarray] = None) -> np.ndarray:
        """``T_{m,k,i}`` tensor, shape ``(M, K, I)`` (``inf`` = unreachable)."""
        per_bit = self.per_bit_delivery(rates)
        return (
            self.model_bits[None, None, :] * per_bit[:, :, None]
            + self.inference[None, :, :]
        )

    def feasibility(self, rates: Optional[np.ndarray] = None) -> np.ndarray:
        """``I1[m,k,i]``: can server ``m`` serve (k, i) within deadline?"""
        from repro import obs

        with obs.span("feasibility.dense"):
            return self.latency(rates) <= self.deadlines[None, :, :]

    def expected_server_order(self) -> np.ndarray:
        """Per-user server order under *expected* rates, cached.

        ``(M, K)`` — column ``k`` lists the servers sorted by expected
        per-bit delivery time to user ``k``. Monte-Carlo evaluation
        passes this as ``server_order_hint`` to
        :meth:`feasibility_sparse`: fading perturbs per-bit times but
        rarely upends their ranking, so pre-permuting by the expected
        order leaves a nearly-sorted array for the stable (timsort,
        adaptive) argsort — amortising the per-realization sort across
        all realizations of a topology without changing a bit.
        """
        if self._expected_order is None:
            self._expected_order = np.argsort(
                self.per_bit_delivery(), axis=0, kind="stable"
            )
        return self._expected_order

    def _sorted_order(
        self,
        per_bit: np.ndarray,
        server_order_hint: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(order, sorted_pb)``: per-user server order by per-bit time.

        With a hint, the values are pre-permuted by the hinted order and
        the stable argsort of the (nearly sorted) result is composed
        back — the composition is an exact sorting permutation of the
        actual values, and the prefix-cut membership below depends only
        on values, so any valid order yields the identical CSR (entries
        come out in ``(model, server, user)`` order whichever order is
        used). Pinned by the bit-identity test suite.
        """
        if server_order_hint is None:
            order = np.argsort(per_bit, axis=0, kind="stable")
        else:
            if server_order_hint.shape != per_bit.shape:
                raise TopologyError(
                    f"server_order_hint must have shape {per_bit.shape}, "
                    f"got {server_order_hint.shape}"
                )
            hinted = np.take_along_axis(per_bit, server_order_hint, axis=0)
            order = np.take_along_axis(
                server_order_hint,
                np.argsort(hinted, axis=0, kind="stable"),
                axis=0,
            )
        sorted_pb = np.take_along_axis(per_bit, order, axis=0)
        return order, sorted_pb

    def _prefix_cuts(
        self,
        sorted_pb: np.ndarray,
        deadlines: np.ndarray,
        inference: np.ndarray,
    ) -> np.ndarray:
        """Feasible-server counts per (user, model) for one user block.

        For fixed (k, i), T = D_i * per_bit[m, k] + t_{k,i} is monotone
        non-decreasing in per_bit (IEEE multiply/add by a positive
        constant round monotonically), so along each user's servers
        sorted by per_bit the indicator is True on a prefix. A
        vectorised binary search finds every (k, i) prefix cut with
        O(log M) probes, each probe evaluating the *original*
        multiply/add/compare on the original values — bit-identical
        membership at O(K·I·log M) instead of O(M·K·I) work. Each
        column's low/high updates are elementwise-independent, so
        running the search on a user block equals the corresponding
        slice of a whole-population run exactly.
        """
        num_servers = sorted_pb.shape[0]
        num_users, num_models = deadlines.shape
        user_rows = np.arange(num_users)[:, None]
        bits = self.model_bits[None, :]
        low = np.zeros((num_users, num_models), dtype=np.int64)
        high = np.full((num_users, num_models), num_servers, dtype=np.int64)
        while True:
            active = low < high
            if not active.any():
                break
            # Clamp keeps settled entries (cut == M) in bounds; their
            # probe result is discarded by the masks below.
            mid = np.minimum((low + high) >> 1, num_servers - 1)
            probe = bits * sorted_pb[mid, user_rows] + inference <= deadlines
            low = np.where(probe & active, mid + 1, low)
            high = np.where(probe | ~active, high, mid)
        return low  # (K', I): feasible servers per (user, model)

    @staticmethod
    def _block_entries(
        counts: np.ndarray, order: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """One user block's ``I1`` entries as ``(pairs, users)``, in CSR order.

        ``pairs`` holds each entry's pair row ``model * M + server`` and
        ``users`` its block-local user. Server ``m`` serves (k, i) iff
        its place in user ``k``'s sorted order, ``rank[m, k]``, is below
        ``counts[k, i]``. Over the users with any entry, that test laid
        out ``(model, server, user)`` is a bool mask whose
        ``np.flatnonzero`` lists the entries already in CSR order, so
        nothing is sorted. The mask spans only the users with an entry:
        where most users are unreachable, an ``(I, M, K)`` mask would
        cost far more than the entries it holds.
        """
        active = np.flatnonzero(counts.any(axis=1))
        order = order[:, active]
        rank = np.empty_like(order)
        np.put_along_axis(
            rank, order, np.arange(order.shape[0])[:, None], axis=0
        )
        mask = rank[None, :, :] < counts[active].T[:, None, :]
        pairs, columns = np.divmod(np.flatnonzero(mask), active.size)
        return pairs, active[columns]

    def feasibility_sparse(
        self,
        rates: Optional[np.ndarray] = None,
        server_order_hint: Optional[np.ndarray] = None,
    ) -> SparseFeasibility:
        """``I1`` as a CSR artifact, built by binary-searched prefix cuts.

        Runs exactly the elementwise arithmetic of :meth:`feasibility`
        (same multiply/add/compare on the same values, so the nonzero set
        is bit-identical) but holds only ``(M, K)``/``(K, I)``
        intermediates and the bool mask of :meth:`_block_entries`, which
        lists the entries already in CSR order, never the ``(M, K, I)``
        float latency tensor.

        ``server_order_hint`` (optional, ``(M, K)``) seeds the per-user
        server sort with a previously computed order — see
        :meth:`expected_server_order`; the CSR is identical with or
        without it.
        """
        from repro import obs

        with obs.span("feasibility.sparse"):
            per_bit = self.per_bit_delivery(rates)
            num_servers, num_users = per_bit.shape
            num_models = self.model_bits.shape[0]
            order, sorted_pb = self._sorted_order(per_bit, server_order_hint)
            counts = self._prefix_cuts(
                sorted_pb, self.deadlines, self.inference
            )
            pairs, users = self._block_entries(counts, order)
            return SparseFeasibility.from_pairs(
                (num_servers, num_users, num_models), pairs, users
            )

    def feasibility_sparse_chunked(
        self,
        chunk_size: int,
        rates: Optional[np.ndarray] = None,
    ) -> SparseFeasibility:
        """``I1`` as a CSR artifact, assembled in user blocks.

        Identical arithmetic to :meth:`feasibility_sparse`, but the
        per-user argsort, the binary-searched prefix cuts and the entry
        mask all run on ``chunk_size``-user blocks, so the large
        ``(K, I)``-shaped search temporaries and the mask are bounded by
        the chunk, not by K. Each block's entries come out
        ``(model, server, user)``-sorted, and the fragments are
        merged by :meth:`SparseFeasibility.from_user_blocks` into the
        global ``(model, server, user)`` order without a global sort —
        the result compares ``==`` to the unchunked build for any chunk
        size (argsort along axis 0 is column-independent, the binary
        search is elementwise per (k, i), and within a pair users ascend
        block by block).
        """
        if chunk_size < 1:
            raise TopologyError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        from repro import obs

        with obs.span("feasibility.sparse_chunked", chunk_size=chunk_size):
            per_bit = self.per_bit_delivery(rates)
            num_servers, num_users = per_bit.shape
            num_models = self.model_bits.shape[0]
            blocks = []
            for start in range(0, num_users, chunk_size):
                stop = min(start + chunk_size, num_users)
                block_pb = per_bit[:, start:stop]
                order = np.argsort(block_pb, axis=0, kind="stable")
                sorted_pb = np.take_along_axis(block_pb, order, axis=0)
                counts = self._prefix_cuts(
                    sorted_pb,
                    self.deadlines[start:stop],
                    self.inference[start:stop],
                )
                pairs, users = self._block_entries(counts, order)
                blocks.append(
                    (pairs // num_servers, pairs % num_servers, users + start)
                )
            return SparseFeasibility.from_user_blocks(
                (num_servers, num_users, num_models), blocks
            )
