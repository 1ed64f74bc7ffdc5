"""The dense end-to-end latency tensor and ``I1`` built from it.

The package builds feasibility one way,
:meth:`~repro.network.latency.LatencyModel.feasibility_sparse`:
binary-searched prefix cuts straight into the CSR artifact, never the
``(M, K, I)`` float tensor. This module keeps the direct build of eqs.
(4)-(5) — broadcast the per-bit delivery times against model sizes, add
the inference time, compare with the deadline — as the independent
oracle that CSR build is checked against, and as the latency source of
the request-level simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.latency import LatencyModel


def latency_tensor(
    model: LatencyModel, rates: Optional[np.ndarray] = None
) -> np.ndarray:
    """``T_{m,k,i}``, shape ``(M, K, I)`` (``inf`` = unreachable)."""
    per_bit = model.per_bit_delivery(rates)
    return (
        model.model_bits[None, None, :] * per_bit[:, :, None]
        + model.inference[None, :, :]
    )


def dense_feasibility(
    model: LatencyModel, rates: Optional[np.ndarray] = None
) -> np.ndarray:
    """``I1[m,k,i] = T_{m,k,i} <= T̄_{k,i}`` as a dense boolean tensor."""
    return latency_tensor(model, rates) <= model.deadlines[None, :, :]
