"""Wireless edge network substrate.

Everything the paper's system model (§III-A) needs: node geometry in the
simulation area, the Shannon-rate channel model (eq. 1) with Rayleigh
fading, edge servers with per-user bandwidth/power allocation, the constant
edge-to-edge backhaul, end-to-end latency (eqs. 4-5) and the feasibility
indicator ``I1[m,k,i]``, plus the §VII-E user mobility model.
"""

from repro.network.backhaul import Backhaul
from repro.network.channel import ChannelModel
from repro.network.geometry import Point, coverage_sets, pairwise_distances, uniform_points
from repro.network.latency import LatencyModel
from repro.network.mobility import MobilityClass, MobilityModel
from repro.network.servers import EdgeServer
from repro.network.topology import NetworkTopology
from repro.network.users import User

__all__ = [
    "Point",
    "uniform_points",
    "pairwise_distances",
    "coverage_sets",
    "ChannelModel",
    "EdgeServer",
    "User",
    "Backhaul",
    "NetworkTopology",
    "LatencyModel",
    "MobilityClass",
    "MobilityModel",
]
