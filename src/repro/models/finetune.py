"""Simulated fine-tuning: the operations that create parameter sharing.

The paper's libraries are built by actually fine-tuning ResNets; the
placement problem, however, consumes only *which blocks exist, their sizes,
and which models reference them*. :class:`FineTuner` therefore simulates
the three sharing-creating operations on parameter tables alone:

* :meth:`FineTuner.freeze_bottom` — bottom-layer freezing: the first ``n``
  tensors of the parent are reused (shared blocks), the rest are retrained
  (fresh specific blocks of the same sizes);
* :meth:`FineTuner.full_finetune` — all parameters retrained: a brand-new
  model with no blocks shared with its parent (used for the paper's
  first-round general-case models);
* :meth:`FineTuner.lora` — PEFT: the whole parent is frozen and shared,
  plus one small specific adapter block.

A single :class:`FineTuner` instance allocates globally unique block and
model ids and finally assembles a :class:`~repro.models.library.ModelLibrary`.
Blocks are recorded as flat size, name and origin columns (block id =
position), which :meth:`FineTuner.build` hands to
:meth:`~repro.models.library.ModelLibrary.from_arrays` without creating a
:class:`~repro.models.blocks.ParameterBlock` per block. Every operation
validates its arguments before it allocates, so a rejected call leaves
the tuner unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.resnet import LayerSpec, ResNetSpec, resnet_layer_table
from repro.data.transformer import (
    TransformerSpec,
    lora_adapter_params,
    transformer_layer_table,
)
from repro.errors import LibraryError
from repro.models.library import ModelLibrary
from repro.models.model import Model


@dataclass(frozen=True)
class PretrainedRoot:
    """A pre-trained model serving as the ancestor of fine-tuned models.

    Roots are *not* library models themselves unless explicitly added;
    they are templates whose bottom layers become shared blocks.

    Attributes
    ----------
    name:
        Unique root name (e.g. ``"resnet50"``).
    layers:
        Weight tensors in forward order; ``layers[-1]`` is the head.
    bytes_per_param:
        Storage per scalar parameter (4 = fp32).
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    bytes_per_param: int = 4

    def __post_init__(self) -> None:
        if not self.layers:
            raise LibraryError(f"root {self.name!r} must have at least one layer")
        if self.bytes_per_param <= 0:
            raise LibraryError("bytes_per_param must be positive")

    @property
    def num_layers(self) -> int:
        """Number of weight tensors (the paper's freezable 'layers')."""
        return len(self.layers)

    def layer_size_bytes(self, index: int) -> int:
        """Storage footprint of layer ``index``."""
        return self.layers[index].size_bytes(self.bytes_per_param)

    @property
    def total_size_bytes(self) -> int:
        """Full model footprint."""
        return sum(self.layer_size_bytes(i) for i in range(self.num_layers))


def make_resnet_root(spec: ResNetSpec, num_classes: int = 100) -> PretrainedRoot:
    """Build a :class:`PretrainedRoot` from a ResNet architecture spec."""
    return PretrainedRoot(spec.name, tuple(resnet_layer_table(spec, num_classes)))


def make_transformer_root(spec: TransformerSpec) -> PretrainedRoot:
    """Build a :class:`PretrainedRoot` from a transformer spec."""
    return PretrainedRoot(spec.name, tuple(transformer_layer_table(spec)))


class FineTuner:
    """Allocates blocks/models while simulating fine-tuning operations.

    Usage::

        tuner = FineTuner()
        root = make_resnet_root(RESNET18)
        shark = tuner.freeze_bottom(root, n_frozen=35, name="resnet18/shark")
        whale = tuner.freeze_bottom(root, n_frozen=35, name="resnet18/whale")
        library = tuner.build()   # shark and whale share 35 bottom blocks
    """

    def __init__(self) -> None:
        # Block columns; a block's id is its position.
        self._block_sizes: List[int] = []
        self._block_names: List[str] = []
        self._block_origins: List[str] = []
        self._models: List[Model] = []
        # Per-root cache of materialised bottom blocks so two fine-tunes of
        # the same root share the *same* block objects for their common
        # frozen prefix.
        self._root_prefix_blocks: Dict[str, List[int]] = {}
        self._roots: Dict[str, PretrainedRoot] = {}

    # ------------------------------------------------------------------
    # Id allocation
    # ------------------------------------------------------------------
    def _new_block(self, size_bytes: int, name: str, origin: str) -> int:
        block_id = len(self._block_sizes)
        if size_bytes <= 0:
            raise LibraryError(
                f"block {block_id} size must be positive, got {size_bytes}"
            )
        self._block_sizes.append(size_bytes)
        self._block_names.append(name)
        self._block_origins.append(origin)
        return block_id

    def _register_root(self, root: PretrainedRoot) -> None:
        known = self._roots.get(root.name)
        if known is None:
            self._roots[root.name] = root
            self._root_prefix_blocks[root.name] = []
        elif known is not root and known.layers != root.layers:
            raise LibraryError(
                f"two different roots registered under name {root.name!r}"
            )

    def _root_prefix(self, root: PretrainedRoot, depth: int) -> List[int]:
        """Block ids of the first ``depth`` layers of ``root``.

        Materialised lazily and cached so the prefix blocks are shared
        across every model frozen from the same root.
        """
        self._register_root(root)
        cache = self._root_prefix_blocks[root.name]
        while len(cache) < depth:
            index = len(cache)
            cache.append(
                self._new_block(
                    root.layer_size_bytes(index),
                    name=f"{root.name}.{root.layers[index].name}",
                    origin=root.name,
                )
            )
        return cache[:depth]

    # ------------------------------------------------------------------
    # Fine-tuning operations
    # ------------------------------------------------------------------
    def freeze_bottom(
        self,
        parent: "PretrainedRoot | Model",
        n_frozen: int,
        name: str,
        head_params: Optional[int] = None,
    ) -> Model:
        """Fine-tune ``parent`` with its first ``n_frozen`` tensors frozen.

        The frozen prefix is shared with the parent (and with every other
        model frozen from it); the remaining tensors become fresh specific
        blocks of the same sizes. For a :class:`Model` parent (the paper's
        second-round general-case fine-tuning) the prefix reuses the
        parent's own block ids.

        Parameters
        ----------
        parent:
            A pre-trained root or an existing library model.
        n_frozen:
            How many bottom tensors to freeze; must leave at least the
            head un-frozen (``0 <= n_frozen < parent depth``).
        name:
            Name of the new model.
        head_params:
            Optional parameter count for a replacement head (e.g. a
            different class count). Defaults to the parent head's size.
        """
        if isinstance(parent, PretrainedRoot):
            depth = parent.num_layers
            root_name = parent.name
            bytes_per_param = parent.bytes_per_param
        else:
            parent_ids = parent.block_ids
            if min(parent_ids) < 0 or max(parent_ids) >= self.num_blocks:
                foreign = [b for b in parent_ids if not 0 <= b < self.num_blocks]
                raise LibraryError(
                    f"parent model {parent.model_id} references blocks "
                    f"{foreign} not allocated by this tuner"
                )
            depth = len(parent_ids)
            root_name = parent.name or f"model{parent.model_id}"
            bytes_per_param = 4
        if not 0 <= n_frozen < depth:
            raise LibraryError(
                f"n_frozen must be in [0, {depth - 1}] for {name!r}, got {n_frozen}"
            )
        if head_params is not None and head_params <= 0:
            raise LibraryError("head_params must be positive")

        # Everything is validated: allocate the shared prefix, then one
        # fresh block per un-frozen tensor.
        retrained = range(n_frozen, depth)
        if isinstance(parent, PretrainedRoot):
            block_ids = self._root_prefix(parent, n_frozen)
            sizes = [parent.layer_size_bytes(i) for i in retrained]
            names = [parent.layers[i].name for i in retrained]
        else:
            block_ids = list(parent_ids[:n_frozen])
            sizes = [self._block_sizes[parent_ids[i]] for i in retrained]
            names = [
                self._block_names[parent_ids[i]] or f"layer{i}" for i in retrained
            ]
        if head_params is not None:
            sizes[-1] = head_params * bytes_per_param
        for size, layer_name in zip(sizes, names):
            block_ids.append(
                self._new_block(size, name=f"{name}.{layer_name}", origin=name)
            )
        return self._add_model(name, block_ids, root=root_name)

    def full_finetune(self, parent: PretrainedRoot, name: str) -> Model:
        """Retrain every parameter: a model sharing nothing with its parent."""
        block_ids = [
            self._new_block(
                parent.layer_size_bytes(index),
                name=f"{name}.{parent.layers[index].name}",
                origin=name,
            )
            for index in range(parent.num_layers)
        ]
        return self._add_model(name, block_ids, root=parent.name)

    def lora(
        self,
        parent: PretrainedRoot,
        name: str,
        adapter_params: int,
    ) -> Model:
        """PEFT fine-tuning: share the whole parent, add one adapter block."""
        if adapter_params <= 0:
            raise LibraryError(f"adapter_params must be positive, got {adapter_params}")
        block_ids = self._root_prefix(parent, parent.num_layers)
        adapter = self._new_block(
            adapter_params * parent.bytes_per_param,
            name=f"{name}.lora_adapter",
            origin=name,
        )
        return self._add_model(name, block_ids + [adapter], root=parent.name)

    def lora_for_transformer(
        self, parent: PretrainedRoot, spec: TransformerSpec, name: str, rank: int
    ) -> Model:
        """Convenience wrapper computing the adapter size from a spec."""
        return self.lora(parent, name, lora_adapter_params(spec, rank))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _add_model(self, name: str, block_ids: Sequence[int], root: str) -> Model:
        model = Model(
            model_id=len(self._models),
            block_ids=tuple(block_ids),
            name=name,
            root=root,
        )
        self._models.append(model)
        return model

    @property
    def num_models(self) -> int:
        """Models created so far."""
        return len(self._models)

    @property
    def num_blocks(self) -> int:
        """Blocks allocated so far."""
        return len(self._block_sizes)

    def build(self) -> ModelLibrary:
        """Assemble the library from everything created so far."""
        if not self._models:
            raise LibraryError("no models have been fine-tuned yet")
        return ModelLibrary.from_arrays(
            range(self.num_blocks),
            self._block_sizes,
            self._block_names,
            self._block_origins,
            self._models,
        )
