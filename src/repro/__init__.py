"""TrimCaching: parameter-sharing AI model caching in wireless edge networks.

A full reproduction of Qu et al., *TrimCaching: Parameter-sharing AI Model
Caching in Wireless Edge Networks* (ICDCS 2024): the placement problem
P1.1, the TrimCaching Spec and Gen algorithms with their baselines, the
wireless-edge simulation substrate, and one entry point per paper figure.

Quickstart
----------
>>> from repro import ScenarioConfig, TrimCachingGen, build_scenario
>>> scenario = build_scenario(ScenarioConfig(num_models=12, num_users=8))
>>> result = TrimCachingGen().solve(scenario.instance)
>>> 0.0 <= result.hit_ratio <= 1.0
True
"""

from repro.core import (
    ExhaustiveSearch,
    IndependentCaching,
    Placement,
    PlacementInstance,
    RandomPlacement,
    TopPopularityPlacement,
    TrimCachingGen,
    TrimCachingSpec,
    hit_ratio,
    placement_is_feasible,
    storage_used,
)
from repro.core.result import SolverResult
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    LibraryError,
    PlacementError,
    ReproError,
    SolverError,
    TopologyError,
)
from repro.models import (
    FineTuner,
    GeneralCaseConfig,
    Model,
    ModelLibrary,
    ParameterBlock,
    PretrainedRoot,
    SpecialCaseConfig,
    ZipfPopularity,
    build_general_case_library,
    build_special_case_library,
    make_resnet_root,
    make_transformer_root,
)
from repro.network import (
    Backhaul,
    ChannelModel,
    EdgeServer,
    LatencyModel,
    MobilityModel,
    NetworkTopology,
    User,
)
from repro.sim import (
    MobilityStudy,
    PlacementEvaluator,
    Scenario,
    ScenarioConfig,
    build_scenario,
)
from repro.api import (
    SOLVERS,
    ExperimentPlan,
    MobilitySpec,
    ReplacementSpec,
    ResultSet,
    SolverRegistry,
    SolverSpec,
    SweepSpec,
    run_plan,
)
from repro.core import (
    ExhaustiveConfig,
    GenConfig,
    IndependentConfig,
    SpecConfig,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "LibraryError",
    "TopologyError",
    "PlacementError",
    "InfeasibleError",
    "SolverError",
    # library substrate
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
    # network substrate
    "ChannelModel",
    "EdgeServer",
    "User",
    "Backhaul",
    "NetworkTopology",
    "LatencyModel",
    "MobilityModel",
    # core problem + solvers
    "PlacementInstance",
    "Placement",
    "SolverResult",
    "hit_ratio",
    "storage_used",
    "placement_is_feasible",
    "TrimCachingSpec",
    "TrimCachingGen",
    "IndependentCaching",
    "ExhaustiveSearch",
    "RandomPlacement",
    "TopPopularityPlacement",
    # simulation harness
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "PlacementEvaluator",
    "MobilityStudy",
    # declarative experiment API
    "SOLVERS",
    "SolverRegistry",
    "SolverSpec",
    "SweepSpec",
    "MobilitySpec",
    "ReplacementSpec",
    "ExperimentPlan",
    "ResultSet",
    "run_plan",
    "SpecConfig",
    "GenConfig",
    "IndependentConfig",
    "ExhaustiveConfig",
    "__version__",
]
