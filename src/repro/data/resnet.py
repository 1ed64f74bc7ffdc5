"""Per-weight-tensor parameter tables for the ResNet family.

The paper's model library is built from ResNet-18/34/50 fine-tuned with
bottom-layer freezing, where one *parameter block* corresponds to one weight
tensor (conv weight, batch-norm affine pair, or the classifier head). The
paper's frozen-layer ranges imply the following tensor counts, which this
module reproduces exactly from the architecture definition:

====== ======= =====================
model  tensors paper's frozen range
====== ======= =====================
RN-18  41      [29, 40]
RN-34  73      [49, 72]
RN-50  107     [87, 106]
====== ======= =====================

We never materialise weights — only names and parameter counts — because
the placement problem consumes sizes and sharing structure alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class LayerSpec:
    """One weight tensor of a network, in forward (bottom-up) order.

    Attributes
    ----------
    name:
        Dotted path mimicking the usual checkpoint naming.
    params:
        Number of scalar parameters in the tensor (incl. bias for the head).
    """

    name: str
    params: int

    def size_bytes(self, bytes_per_param: int = 4) -> int:
        """Storage footprint of this tensor (fp32 by default)."""
        if bytes_per_param <= 0:
            raise ValueError("bytes_per_param must be positive")
        return self.params * bytes_per_param


@dataclass(frozen=True)
class ResNetSpec:
    """Architecture hyper-parameters of one ResNet variant."""

    name: str
    stage_blocks: Tuple[int, int, int, int]
    bottleneck: bool
    feature_dim: int

    @property
    def expansion(self) -> int:
        """Output-channel expansion of a residual block (4 for bottleneck)."""
        return 4 if self.bottleneck else 1


RESNET18 = ResNetSpec("resnet18", (2, 2, 2, 2), bottleneck=False, feature_dim=512)
RESNET34 = ResNetSpec("resnet34", (3, 4, 6, 3), bottleneck=False, feature_dim=512)
RESNET50 = ResNetSpec("resnet50", (3, 4, 6, 3), bottleneck=True, feature_dim=2048)

#: Channel width of each of the four residual stages (pre-expansion).
_STAGE_WIDTHS = (64, 128, 256, 512)


def _conv(name: str, in_ch: int, out_ch: int, kernel: int) -> LayerSpec:
    return LayerSpec(name, kernel * kernel * in_ch * out_ch)


def _bn(name: str, channels: int) -> LayerSpec:
    return LayerSpec(name, 2 * channels)


def _basic_block(
    prefix: str, in_ch: int, out_ch: int, downsample: bool
) -> List[LayerSpec]:
    layers = [
        _conv(f"{prefix}.conv1", in_ch, out_ch, 3),
        _bn(f"{prefix}.bn1", out_ch),
        _conv(f"{prefix}.conv2", out_ch, out_ch, 3),
        _bn(f"{prefix}.bn2", out_ch),
    ]
    if downsample:
        layers.append(_conv(f"{prefix}.downsample.conv", in_ch, out_ch, 1))
        layers.append(_bn(f"{prefix}.downsample.bn", out_ch))
    return layers


def _bottleneck_block(
    prefix: str, in_ch: int, mid_ch: int, downsample: bool
) -> List[LayerSpec]:
    out_ch = mid_ch * 4
    layers = [
        _conv(f"{prefix}.conv1", in_ch, mid_ch, 1),
        _bn(f"{prefix}.bn1", mid_ch),
        _conv(f"{prefix}.conv2", mid_ch, mid_ch, 3),
        _bn(f"{prefix}.bn2", mid_ch),
        _conv(f"{prefix}.conv3", mid_ch, out_ch, 1),
        _bn(f"{prefix}.bn3", out_ch),
    ]
    if downsample:
        layers.append(_conv(f"{prefix}.downsample.conv", in_ch, out_ch, 1))
        layers.append(_bn(f"{prefix}.downsample.bn", out_ch))
    return layers


def resnet_layer_table(spec: ResNetSpec, num_classes: int = 100) -> List[LayerSpec]:
    """Enumerate every weight tensor of ``spec`` in forward order.

    The final entry is the classifier head (weight and bias folded into a
    single tensor entry), which is what a downstream fine-tune always
    replaces.

    Parameters
    ----------
    spec:
        One of :data:`RESNET18`, :data:`RESNET34`, :data:`RESNET50` (or a
        custom :class:`ResNetSpec`).
    num_classes:
        Output dimension of the classifier head (CIFAR-100 default).
    """
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    layers: List[LayerSpec] = [
        _conv("conv1", 3, 64, 7),
        _bn("bn1", 64),
    ]
    in_ch = 64
    for stage_index, (width, n_blocks) in enumerate(
        zip(_STAGE_WIDTHS, spec.stage_blocks), start=1
    ):
        for block_index in range(n_blocks):
            prefix = f"layer{stage_index}.{block_index}"
            out_ch = width * spec.expansion
            downsample = block_index == 0 and in_ch != out_ch
            if spec.bottleneck:
                layers.extend(_bottleneck_block(prefix, in_ch, width, downsample))
            else:
                layers.extend(_basic_block(prefix, in_ch, width, downsample))
            in_ch = out_ch
    layers.append(
        LayerSpec("fc", spec.feature_dim * num_classes + num_classes)
    )
    return layers
