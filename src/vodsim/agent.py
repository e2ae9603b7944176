"""Roving profile agent: collects demand and rebuilds the global weights.

The merged demand profile is kept running: every request is recorded in
the world's one demand table as well as at its proxy.  A tour is
instantaneous, so each tour snapshots that table into the integer weight
table and pushes it to every proxy, where it orders reclaim victims.
The catalog's popularity tiers stay fixed: initial placement is dealt from
them before the first tour, and a tour never changes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError
from .model import WeightProfile
from .topology import World


@dataclass
class AgentTourReport:
    """What one tour saw."""

    time: float
    total_requests: int

    def audit_row(self) -> str:
        return f"{self.time:.6f},{self.total_requests}"


def agent_tour(time: float, world: World, profits) -> AgentTourReport:
    """Run one full tour: re-weight the running demand table, push."""
    table = WeightProfile.derive(world.demand, profits)
    for proxy in world.proxies:
        proxy.global_weights = table
    return AgentTourReport(time, world.demand.total)


def schedule_next_tour(now: float, period: float) -> float:
    if period <= 0:
        raise ConfigError(f"agent period must be positive, got {period}")
    return now + period


def append_tour_log(reports: list[AgentTourReport]) -> str:
    """CSV audit trail of tours, one row per visit."""
    lines = ["time,total_requests"]
    lines.extend(report.audit_row() for report in reports)
    return "\n".join(lines) + "\n"
