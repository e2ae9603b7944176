"""Deterministic simulator for class-aware bandwidth allocation in a
video-on-demand system built from a ring of proxy servers and a central
multimedia server."""

from .allocation import Allocation, Link
from .config import ConfigError, SimConfig, load_config
from .metrics import Counters, MetricsBundle, emit_reports, time_avg_utilization
from .model import VideoMeta
from .sim import Simulation, baseline_no_psg, draw_arrivals, run
from .topology import ProxyServer, RouteDecision, RouteSource, World

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ConfigError",
    "Counters",
    "Link",
    "MetricsBundle",
    "ProxyServer",
    "RouteDecision",
    "RouteSource",
    "SimConfig",
    "Simulation",
    "VideoMeta",
    "World",
    "baseline_no_psg",
    "draw_arrivals",
    "emit_reports",
    "load_config",
    "run",
    "time_avg_utilization",
    "__version__",
]
