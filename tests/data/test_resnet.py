"""Tests for the ResNet layer tables.

The paper's frozen-layer ranges pin down the exact weight-tensor counts:
41 for ResNet-18, 73 for ResNet-34, 107 for ResNet-50. Parameter totals
must match the well-known architecture sizes.
"""

import pytest

from repro.data.resnet import (
    RESNET18,
    RESNET34,
    RESNET50,
    LayerSpec,
    resnet_layer_table,
)


def total_params(spec, num_classes=100):
    """Total scalar parameter count over the layer table."""
    return sum(layer.params for layer in resnet_layer_table(spec, num_classes))


class TestTensorCounts:
    """Counts implied by the paper's frozen ranges (§VII-A)."""

    def test_resnet18_has_41_tensors(self):
        assert len(resnet_layer_table(RESNET18)) == 41

    def test_resnet34_has_73_tensors(self):
        assert len(resnet_layer_table(RESNET34)) == 73

    def test_resnet50_has_107_tensors(self):
        assert len(resnet_layer_table(RESNET50)) == 107

    def test_paper_frozen_ranges_fit(self):
        # The paper freezes up to 40/72/106 layers: always leaves the head.
        for spec, high in ((RESNET18, 40), (RESNET34, 72), (RESNET50, 106)):
            assert high < len(resnet_layer_table(spec))


class TestParameterCounts:
    def test_resnet18_total(self):
        # Torchvision ResNet-18 backbone is ~11.18M params + CIFAR head.
        total = total_params(RESNET18, num_classes=100)
        assert total == pytest.approx(11.23e6, rel=0.02)

    def test_resnet50_total(self):
        # ResNet-50 backbone is ~23.5M params + CIFAR head.
        total = total_params(RESNET50, num_classes=100)
        assert total == pytest.approx(23.7e6, rel=0.02)

    def test_resnet34_between_18_and_50(self):
        assert (
            total_params(RESNET18)
            < total_params(RESNET34)
            < total_params(RESNET50)
        )

    def test_first_layer_is_conv1(self):
        table = resnet_layer_table(RESNET18)
        assert table[0].name == "conv1"
        assert table[0].params == 7 * 7 * 3 * 64

    def test_head_scales_with_classes(self):
        small = resnet_layer_table(RESNET18, num_classes=2)[-1]
        large = resnet_layer_table(RESNET18, num_classes=100)[-1]
        assert small.name == "fc" and large.name == "fc"
        assert small.params == 512 * 2 + 2
        assert large.params == 512 * 100 + 100

    def test_invalid_classes_rejected(self):
        with pytest.raises(ValueError):
            resnet_layer_table(RESNET18, num_classes=0)


class TestLayerSpec:
    def test_size_bytes_fp32(self):
        layer = LayerSpec("x", 100)
        assert layer.size_bytes() == 400
        assert layer.size_bytes(bytes_per_param=2) == 200

    def test_invalid_bytes_per_param(self):
        with pytest.raises(ValueError):
            LayerSpec("x", 100).size_bytes(0)

    def test_bn_layers_are_small(self):
        table = resnet_layer_table(RESNET18)
        bn_params = [layer.params for layer in table if ".bn" in layer.name or layer.name == "bn1"]
        conv_params = [layer.params for layer in table if "conv" in layer.name]
        assert max(bn_params) < min(p for p in conv_params if p > 0)
