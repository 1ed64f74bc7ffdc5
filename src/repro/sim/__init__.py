"""Simulation harness: scenario assembly, evaluation, experiments.

Builds §VII-A scenarios (topology + library + demand + QoS), evaluates
placements under expected rates and Rayleigh-fading Monte Carlo, holds
the sweep task function and result types, and declares one plan per
paper figure/table.
"""

from repro.sim.config import ScenarioConfig
from repro.sim.evaluator import PlacementEvaluator
from repro.sim.latency_report import LatencyAnalyzer, LatencyReport
from repro.sim.mobility_eval import MobilityStudy
from repro.sim.replacement import ReplacementPolicy, ReplacementTrace
from repro.sim.request_sim import RequestLog, RequestSimulator
from repro.sim.runner import (
    AlgorithmComparison,
    ExperimentResult,
    Fig7Result,
    ReplacementAblation,
)
from repro.sim.scenario import Scenario, build_scenario

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "PlacementEvaluator",
    "MobilityStudy",
    "ExperimentResult",
    "AlgorithmComparison",
    "Fig7Result",
    "ReplacementAblation",
    "ReplacementPolicy",
    "ReplacementTrace",
    "LatencyAnalyzer",
    "LatencyReport",
    "RequestSimulator",
    "RequestLog",
]
