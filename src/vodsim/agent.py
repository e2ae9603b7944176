"""Roving profile agent: collects demand and refreshes the global weights.

The merged demand profile is kept running: every request is recorded in
the world's one demand table as well as at its proxy, and its cell is
marked dirty.  A tour is instantaneous: it rewrites only the dirty cells
of the one weight table every proxy holds, where it orders reclaim
victims.  No other count changed since its cell was last written, so
after each tour the table equals a full rebuild from the demand table.
The catalog's popularity tiers stay fixed: initial placement is dealt from
them before the first tour, and a tour never changes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError
from .topology import World


@dataclass
class AgentTourReport:
    """What one tour saw."""

    time: float
    total_requests: int

    def audit_row(self) -> str:
        return f"{self.time:.6f},{self.total_requests}"


def agent_tour(time: float, world: World, profits) -> AgentTourReport:
    """Run one full tour: re-weight the cells requested since the last one."""
    world.weights.refresh(world.demand, profits, world.dirty)
    world.dirty.clear()
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
