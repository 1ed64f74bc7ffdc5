"""Planar geometry for the simulation area.

The paper places ``K`` users and ``M`` edge servers uniformly at random in
a square area (1 km x 1 km by default, 400 m for the Fig. 6 optimality
study). This module provides point sampling, distance matrices, and
coverage sets ``M_k`` / ``K_m`` induced by a server coverage radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class Point:
    """A 2-D position in metres."""

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        """The point as a length-2 float array."""
        return np.array([self.x, self.y], dtype=float)


def uniform_coords(
    count: int, side_length: float, seed: SeedLike = None
) -> np.ndarray:
    """Sample ``count`` uniform positions as a raw ``(count, 2)`` array.

    Consumes exactly the RNG stream of :func:`uniform_points` (one
    ``uniform`` draw of shape ``(count, 2)``) but skips the per-point
    ``Point`` objects — the chunked scenario pipeline's building block,
    where K Python objects would dominate memory long before the arrays
    do. ``uniform_points(c, s, seed)[k].as_array()`` equals row ``k`` of
    ``uniform_coords(c, s, seed)`` bit for bit.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if side_length <= 0:
        raise ConfigurationError(
            f"side_length must be positive, got {side_length}"
        )
    rng = as_generator(seed)
    return rng.uniform(0.0, side_length, size=(count, 2))


def uniform_points(
    count: int, side_length: float, seed: SeedLike = None
) -> List[Point]:
    """Sample ``count`` points uniformly in a ``side_length``-sided square."""
    coords = uniform_coords(count, side_length, seed)
    return [Point(float(x), float(y)) for x, y in coords]


def pairwise_distances_coords(
    src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Distance matrix between raw coordinate arrays.

    The arithmetic core of :func:`pairwise_distances` — identical
    elementwise subtract/square/sum/sqrt, so object-based and
    array-based topologies produce bit-identical distances.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.size == 0 or dst.size == 0:
        return np.zeros((src.shape[0], dst.shape[0]))
    diff = src[:, None, :] - dst[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def pairwise_distances(
    sources: Sequence[Point], targets: Sequence[Point]
) -> np.ndarray:
    """Distance matrix of shape ``(len(sources), len(targets))``."""
    if not sources or not targets:
        return np.zeros((len(sources), len(targets)))
    src = np.array([p.as_array() for p in sources])
    dst = np.array([p.as_array() for p in targets])
    return pairwise_distances_coords(src, dst)


def reflect_into_square(coords: np.ndarray, side_length: float) -> np.ndarray:
    """Reflect ``(..., 2)`` positions back into the square (used by mobility)."""
    period = 2.0 * side_length
    folded = np.mod(coords, period)
    # Folded values past the side mirror back: min(v, period - v).
    return np.minimum(folded, period - folded)
