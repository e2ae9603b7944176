"""Roving profile agent: collects demand and rebuilds the global weights.

On each tour the agent visits every proxy, sums their cumulative request
counters cell by cell, derives the integer weight table from the merged
profile and pushes it to every proxy, where it orders reclaim victims.
The catalog's popularity tiers stay fixed: initial placement is dealt from
them before the first tour, and a tour never changes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError
from .model import Catalog, DemandProfile, WeightProfile
from .topology import World, push_weights


@dataclass
class AgentTourReport:
    """What one tour saw."""

    time: float
    total_requests: int

    def audit_row(self) -> str:
        return f"{self.time:.6f},{self.total_requests}"


def merge_profiles(world: World, num_videos: int) -> DemandProfile:
    """Cell-wise sum of every proxy's cumulative counters."""
    merged = DemandProfile(num_videos)
    for proxy in world.proxies:
        merged.accumulate(proxy.local_counts)
    return merged


def agent_tour(time: float, world: World, catalog: Catalog, profits) -> AgentTourReport:
    """Run one full tour: merge, re-weight, push."""
    merged = merge_profiles(world, catalog.nov)
    push_weights(world, WeightProfile.derive(merged, profits))
    return AgentTourReport(time, merged.total)


def schedule_next_tour(now: float, period: float) -> float:
    if period <= 0:
        raise ConfigError(f"agent period must be positive, got {period}")
    return now + period


def append_tour_log(reports: list[AgentTourReport]) -> str:
    """CSV audit trail of tours, one row per visit."""
    lines = ["time,total_requests"]
    lines.extend(report.audit_row() for report in reports)
    return "\n".join(lines) + "\n"
