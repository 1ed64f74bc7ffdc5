"""Static substrate data: dataset taxonomy and architecture size tables."""

from repro.data.cifar100 import (
    CIFAR100_TAXONOMY,
    all_classes,
    classes_of,
    superclasses,
)
from repro.data.resnet import (
    RESNET18,
    RESNET34,
    RESNET50,
    LayerSpec,
    ResNetSpec,
    resnet_layer_table,
)
from repro.data.transformer import TransformerSpec, transformer_layer_table

__all__ = [
    "CIFAR100_TAXONOMY",
    "all_classes",
    "classes_of",
    "superclasses",
    "RESNET18",
    "RESNET34",
    "RESNET50",
    "LayerSpec",
    "ResNetSpec",
    "resnet_layer_table",
    "TransformerSpec",
    "transformer_layer_table",
]
