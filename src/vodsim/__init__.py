"""Deterministic simulator for class-aware bandwidth allocation in a
video-on-demand system built from a ring of proxy servers and a central
multimedia server."""

from .config import ConfigError, SimConfig, load_config
from .metrics import emit_reports
from .model import VideoMeta
from .sim import Simulation, baseline_no_psg, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "SimConfig",
    "Simulation",
    "VideoMeta",
    "baseline_no_psg",
    "emit_reports",
    "load_config",
    "run",
    "__version__",
]
