"""Request popularity models: ``p_{k,i}`` matrices.

The paper draws each user's request probability over the model library from
a Zipf distribution (§VII-A). :class:`ZipfPopularity` reproduces that, with
an optional per-user permutation of the popularity ranking (so users need
not agree on which model is "most popular"); each user's row sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class ZipfPopularity:
    """Zipf request-probability generator.

    Attributes
    ----------
    exponent:
        Zipf skew ``s``; rank ``r`` has weight ``r**-s``. ``s = 0`` gives a
        uniform distribution.
    per_user_permutation:
        When True every user gets an independent random assignment of
        ranks to models; when False all users share a single global
        ranking (drawn once).
    """

    exponent: float = 0.8
    per_user_permutation: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and self.exponent >= 0):
            raise ConfigurationError(
                f"Zipf exponent must be finite and non-negative, got "
                f"{self.exponent}"
            )

    def probabilities(
        self, num_users: int, num_models: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Build the ``(num_users, num_models)`` matrix ``p_{k,i}``.

        Every row sums to 1 (each request is for exactly one model).
        """
        if num_users < 1 or num_models < 1:
            raise ConfigurationError(
                "num_users and num_models must both be at least 1"
            )
        rng = as_generator(seed)
        base = self._base_weights(num_models)
        matrix = np.empty((num_users, num_models))
        if self.per_user_permutation:
            for user in range(num_users):
                matrix[user] = base[rng.permutation(num_models)]
        else:
            shared = base[rng.permutation(num_models)]
            matrix[:] = shared
        return matrix

    def probabilities_batched(
        self,
        num_users: int,
        num_models: int,
        seed: SeedLike = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Batched ``p_{k,i}`` draw — the ``rng_scheme="v2"`` path.

        ``rng.permuted`` shuffles every user's rank assignment in one
        pass per block of ``chunk_size`` rows (``None``: one block of all
        users) instead of K per-user ``rng.permutation`` calls. Each row
        is an independent uniform permutation of the same Zipf weights,
        so the matrix is distributed exactly like :meth:`probabilities`'s
        — but it consumes the stream in a different layout, so the two
        methods differ draw-by-draw for the same seed (which is why the
        scheme is versioned).

        Each row gets its own Fisher-Yates pass, so a block consumes
        exactly the stream the full call would have spent on its rows:
        the matrix is the same bit for bit for any ``chunk_size``, while
        the tiled rank scratch is one block. With a shared global ranking
        there is a single permutation draw and nothing to block.
        """
        if num_users < 1 or num_models < 1:
            raise ConfigurationError(
                "num_users and num_models must both be at least 1"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be at least 1, got {chunk_size}"
            )
        rng = as_generator(seed)
        base = self._base_weights(num_models)
        matrix = np.empty((num_users, num_models))
        if self.per_user_permutation:
            step = chunk_size or num_users
            for start in range(0, num_users, step):
                stop = min(start + step, num_users)
                ranks = np.tile(np.arange(num_models), (stop - start, 1))
                matrix[start:stop] = base[rng.permuted(ranks, axis=1)]
        else:
            matrix[:] = base[rng.permutation(num_models)]
        return matrix

    def _base_weights(self, num_models: int) -> np.ndarray:
        """Normalised Zipf weights in rank order."""
        ranks = np.arange(1, num_models + 1, dtype=float)
        weights = ranks ** (-self.exponent)
        return weights / weights.sum()
