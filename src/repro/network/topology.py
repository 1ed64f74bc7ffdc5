"""Network topology: servers + users + channel + backhaul, indexed.

:class:`NetworkTopology` glues the geometry, allocation and channel pieces
together and exposes the matrices the latency model and solvers consume:

* server-to-user distances ``(M, K)``;
* association (coverage) sets ``M_k`` and ``K_m``;
* expected per-pair rates ``C̄_{m,k}`` for associated pairs (eq. 1), with
  bandwidth/power split across each server's expected active users.

The user population is one :class:`~repro.network.users.UserBatch`:
every matrix is computed from its coordinate and QoS arrays, and
``topology.users`` materialises frozen :class:`User` views only when a
per-user reader asks.

Topologies are immutable; mobility produces new instances via
:meth:`NetworkTopology.with_user_positions`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.network.backhaul import Backhaul
from repro.network.channel import ChannelModel
from repro.network.geometry import pairwise_distances_coords
from repro.network.servers import EdgeServer
from repro.network.users import User, UserBatch


class NetworkTopology:
    """A snapshot of the edge network.

    Parameters
    ----------
    servers:
        The ``M`` edge servers; ids must equal their list position.
    users:
        The ``K`` users as a :class:`UserBatch` (validated, ids
        implicitly dense).
    channel:
        Channel model used for expected/faded rates.
    backhaul:
        Edge-to-edge links.
    """

    def __init__(
        self,
        servers: Sequence[EdgeServer],
        users: UserBatch,
        channel: Optional[ChannelModel] = None,
        backhaul: Optional[Backhaul] = None,
    ) -> None:
        if not servers:
            raise TopologyError("topology requires at least one server")
        if not isinstance(users, UserBatch):
            raise TopologyError(
                f"users must be a UserBatch, got {type(users).__name__}: "
                "build a UserBatch from (K, 2) positions and (K, I) "
                "deadline and inference arrays"
            )
        if len(users) == 0:
            raise TopologyError("topology requires at least one user")
        for index, server in enumerate(servers):
            if server.server_id != index:
                raise TopologyError(
                    f"server at position {index} has id {server.server_id}"
                )
        self._batch = users
        self._users: Optional[Tuple[User, ...]] = None
        self.servers: Tuple[EdgeServer, ...] = tuple(servers)
        self.channel = channel or ChannelModel()
        self.backhaul = backhaul or Backhaul()
        for pair in self.backhaul.overrides:
            if pair[1] >= len(self.servers):
                raise TopologyError(
                    f"backhaul override {pair} names a server past the "
                    f"last of {len(self.servers)}"
                )

        server_coords = np.array(
            [s.position.as_array() for s in self.servers]
        )
        self._distances = pairwise_distances_coords(server_coords, users.positions)
        # Coverage uses each server's own radius (possibly heterogeneous).
        radii = np.array([s.coverage_radius_m for s in self.servers])
        covered = self._distances <= radii[:, None]
        self._covered = covered
        # M_k / K_m as Python lists are only needed by list-oriented
        # consumers (request sim, reports); built lazily from the mask.
        self._servers_of_user: Optional[List[List[int]]] = None
        self._users_of_server: Optional[List[List[int]]] = None
        self._allocations = self._compute_allocations()
        self._expected_rates = self._compute_expected_rates()

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def users(self) -> Tuple[User, ...]:
        """The ``K`` users as frozen :class:`User` views.

        Materialised (and cached) on first access, so array readers
        never pay for K Python objects.
        """
        if self._users is None:
            self._users = tuple(self._batch.to_users())
        return self._users

    @property
    def user_batch(self) -> UserBatch:
        """The :class:`UserBatch` this topology holds."""
        return self._batch

    @property
    def num_servers(self) -> int:
        """``M``."""
        return len(self.servers)

    @property
    def num_users(self) -> int:
        """``K``."""
        return len(self._batch)

    @property
    def num_models(self) -> int:
        """``I`` (inferred from the users' QoS vectors)."""
        return self._batch.num_models

    @property
    def distances(self) -> np.ndarray:
        """``(M, K)`` server-to-user distances in metres."""
        return self._distances

    @property
    def coverage_mask(self) -> np.ndarray:
        """``(M, K)`` boolean association mask."""
        return self._covered

    # ------------------------------------------------------------------
    # Batched QoS accessors
    # ------------------------------------------------------------------
    @property
    def deadlines_matrix(self) -> np.ndarray:
        """``(K, I)`` deadlines ``T̄_{k,i}`` (the batch array itself)."""
        return self._batch.deadlines_s

    @property
    def inference_matrix(self) -> np.ndarray:
        """``(K, I)`` on-device inference latencies ``t_{k,i}``."""
        return self._batch.inference_latency_s

    @property
    def active_probabilities(self) -> np.ndarray:
        """``(K,)`` per-user activity probabilities ``p_A``."""
        return np.full(
            self.num_users, self._batch.active_probability, dtype=float
        )

    def servers_of_user(self, user_id: int) -> List[int]:
        """The paper's ``M_k``: servers covering user ``user_id``."""
        self._check_user(user_id)
        if self._servers_of_user is None:
            self._servers_of_user = [
                np.flatnonzero(self._covered[:, k]).tolist()
                for k in range(self.num_users)
            ]
        return list(self._servers_of_user[user_id])

    def users_of_server(self, server_id: int) -> List[int]:
        """The paper's ``K_m``: users covered by server ``server_id``."""
        self._check_server(server_id)
        if self._users_of_server is None:
            self._users_of_server = [
                np.flatnonzero(self._covered[m]).tolist()
                for m in range(self.num_servers)
            ]
        return list(self._users_of_server[server_id])

    # ------------------------------------------------------------------
    # Radio resources
    # ------------------------------------------------------------------
    def _compute_allocations(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(m, k) expected bandwidth and power shares.

        The vectorised form of :meth:`EdgeServer.per_user_share` applied
        to every associated pair — identical elementwise arithmetic
        (multiply, ``max`` floor, divide), so the shares match the former
        per-pair loop bit for bit. Servers with no associated users keep
        all-zero rows, exactly as the loop left them.
        """
        counts = self._covered.sum(axis=1)  # |K_m| per server
        active = self.active_probabilities
        expected_active = np.maximum(
            active[None, :] * counts[:, None].astype(float), 1e-12
        )
        total_b = np.array([s.total_bandwidth_hz for s in self.servers])
        total_p = np.array([s.total_power_watts for s in self.servers])
        bandwidth = np.where(
            self._covered, total_b[:, None] / expected_active, 0.0
        )
        power = np.where(self._covered, total_p[:, None] / expected_active, 0.0)
        return bandwidth, power

    def _compute_expected_rates(self) -> np.ndarray:
        bandwidth, power = self._allocations
        rates = np.zeros_like(self._distances)
        mask = self._covered & (bandwidth > 0)
        if mask.any():
            rates[mask] = self.channel.expected_rate(
                power[mask], bandwidth[mask], self._distances[mask]
            )
        return rates

    @property
    def expected_rates(self) -> np.ndarray:
        """``(M, K)`` expected rates ``C̄_{m,k}`` in bits/s (0 if not associated)."""
        return self._expected_rates

    def faded_rates(self, fading_gains: np.ndarray) -> np.ndarray:
        """Instantaneous rates under channel power gains ``|h|²``.

        ``fading_gains`` must be ``(M, K)``; entries for non-associated
        pairs are ignored.
        """
        if fading_gains.shape != self._distances.shape:
            raise TopologyError(
                f"fading gains must have shape {self._distances.shape}, "
                f"got {fading_gains.shape}"
            )
        bandwidth, power = self._allocations
        rates = np.zeros_like(self._distances)
        mask = self._covered & (bandwidth > 0)
        if mask.any():
            rates[mask] = self.channel.faded_rate(
                power[mask],
                bandwidth[mask],
                self._distances[mask],
                fading_gains[mask],
            )
        return rates

    # ------------------------------------------------------------------
    # Derived topologies
    # ------------------------------------------------------------------
    def with_user_positions(self, positions: np.ndarray) -> "NetworkTopology":
        """A new topology with users moved to ``positions`` ``(K, 2)``.

        Association sets, allocations and expected rates are recomputed —
        exactly what the mobility study needs between time slots.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (self.num_users, 2):
            raise TopologyError(
                f"positions must have shape ({self.num_users}, 2), "
                f"got {positions.shape}"
            )
        batch = self._batch
        moved = UserBatch(
            positions,
            batch.deadlines_s,
            batch.inference_latency_s,
            batch.active_probability,
        )
        return NetworkTopology(self.servers, moved, self.channel, self.backhaul)

    # ------------------------------------------------------------------
    def _check_user(self, user_id: int) -> None:
        if not 0 <= user_id < self.num_users:
            raise TopologyError(f"unknown user id {user_id}")

    def _check_server(self, server_id: int) -> None:
        if not 0 <= server_id < self.num_servers:
            raise TopologyError(f"unknown server id {server_id}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"NetworkTopology(M={self.num_servers}, K={self.num_users}, "
            f"I={self.num_models})"
        )
