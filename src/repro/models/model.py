"""The :class:`Model` type: an AI model as an ordered set of blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.errors import LibraryError


@dataclass(frozen=True)
class Model:
    """One downloadable AI model in the library.

    A model is fully described, for caching purposes, by the parameter
    blocks it comprises. Block *objects* live in the owning
    :class:`~repro.models.library.ModelLibrary`; a model stores ids only.

    Attributes
    ----------
    model_id:
        Unique non-negative integer id within a library.
    block_ids:
        Ids of the model's parameter blocks in forward (bottom-up) order.
    name:
        Human-readable label (e.g. ``"resnet50/shark"``).
    root:
        Name of the pre-trained model this one was fine-tuned from, or
        ``""`` for a from-scratch model. Metadata only.
    """

    model_id: int
    block_ids: Tuple[int, ...]
    name: str = ""
    root: str = ""
    _block_set: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.model_id < 0:
            raise LibraryError(f"model_id must be non-negative, got {self.model_id}")
        if not self.block_ids:
            raise LibraryError(f"model {self.model_id} must contain at least one block")
        if min(self.block_ids) < 0:
            raise LibraryError(
                f"model {self.model_id} lists a negative block id {min(self.block_ids)}"
            )
        block_set = frozenset(self.block_ids)
        if len(block_set) != len(self.block_ids):
            raise LibraryError(
                f"model {self.model_id} lists a duplicate block id"
            )
        object.__setattr__(self, "_block_set", block_set)

    @property
    def block_set(self) -> FrozenSet[int]:
        """The model's block ids as a frozenset (for fast membership)."""
        return self._block_set

    @property
    def num_blocks(self) -> int:
        """Number of parameter blocks in the model."""
        return len(self.block_ids)

    def __str__(self) -> str:
        label = self.name or f"model{self.model_id}"
        return f"{label}[{self.num_blocks} blocks]"
