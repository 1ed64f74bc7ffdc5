"""Parameter-sharing AI model library substrate.

This package models what the paper calls the *model library* ``I``: a set
of AI models decomposed into *parameter blocks* ``J``, where a block shared
by several models is stored once per edge server. It also contains the
simulated fine-tuning operations that create sharing, the synthetic library
generators matching the paper's §VII-A construction, Zipf request
popularity, and the accuracy-vs-frozen-layers curve behind Fig. 1.
"""

from repro.models.accuracy import AccuracyCurve
from repro.models.blocks import ParameterBlock
from repro.models.finetune import (
    FineTuner,
    PretrainedRoot,
    make_resnet_root,
    make_transformer_root,
)
from repro.models.generators import (
    GeneralCaseConfig,
    SpecialCaseConfig,
    build_general_case_library,
    build_special_case_library,
)
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.models.popularity import ZipfPopularity

__all__ = [
    "ParameterBlock",
    "Model",
    "ModelLibrary",
    "FineTuner",
    "PretrainedRoot",
    "make_resnet_root",
    "make_transformer_root",
    "SpecialCaseConfig",
    "GeneralCaseConfig",
    "build_special_case_library",
    "build_general_case_library",
    "ZipfPopularity",
    "AccuracyCurve",
]
