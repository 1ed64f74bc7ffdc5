"""Accuracy vs. number of frozen bottom layers (Fig. 1 substitution).

Paper Fig. 1 fine-tunes ResNet-50 for two CIFAR-10 super-tasks
("transportation" and "animal") at increasing frozen depths and reports
that accuracy stays nearly flat: even with the first 90% of trainable
layers frozen (up to layer 97), the average degradation is only ~4.7%,
with a worst case of 5.2% ("transportation") and ~4.05% ("animal").

We cannot train networks offline, so this module provides a calibrated
parametric curve with the same qualitative shape — flat for shallow
freezing, gently decreasing as the frozen prefix approaches the head —
anchored to the paper's reported endpoints. Fig. 1 is motivation only; no
algorithm consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AccuracyCurve:
    """Parametric accuracy-degradation curve for bottom-layer freezing.

    The degradation grows like a power of the frozen fraction, which keeps
    the curve nearly flat at shallow depth and steepening near the head:

    ``acc(n) = base_accuracy - max_drop * (n / total_layers) ** sharpness``

    Attributes
    ----------
    base_accuracy:
        Accuracy with zero frozen layers (full fine-tuning).
    max_drop:
        Degradation when every trainable layer is frozen.
    sharpness:
        Power-law exponent (> 1 keeps the curve flat early).
    total_layers:
        Number of freezable layers of the backbone.
    """

    base_accuracy: float
    max_drop: float
    sharpness: float
    total_layers: int

    def __post_init__(self) -> None:
        if not 0 < self.base_accuracy <= 1:
            raise ConfigurationError("base_accuracy must be in (0, 1]")
        if not 0 <= self.max_drop <= self.base_accuracy:
            raise ConfigurationError("max_drop must be in [0, base_accuracy]")
        if self.sharpness <= 0:
            raise ConfigurationError("sharpness must be positive")
        if self.total_layers < 1:
            raise ConfigurationError("total_layers must be at least 1")

    def accuracy(self, n_frozen: int) -> float:
        """Predicted accuracy with ``n_frozen`` bottom layers frozen."""
        if not 0 <= n_frozen <= self.total_layers:
            raise ConfigurationError(
                f"n_frozen must be in [0, {self.total_layers}], got {n_frozen}"
            )
        fraction = n_frozen / self.total_layers
        return self.base_accuracy - self.max_drop * fraction**self.sharpness

    def curve(self, depths: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`accuracy` over many depths."""
        return np.array([self.accuracy(depth) for depth in depths])


#: ResNet-50 "transportation" task: 5.2% drop at 90% frozen (paper Fig. 1).
TRANSPORTATION_CURVE = AccuracyCurve(
    base_accuracy=0.978, max_drop=0.071, sharpness=3.2, total_layers=107
)

#: ResNet-50 "animal" task: ~4.05% drop at 90% frozen (paper Fig. 1).
ANIMAL_CURVE = AccuracyCurve(
    base_accuracy=0.952, max_drop=0.055, sharpness=3.2, total_layers=107
)
