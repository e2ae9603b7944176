"""Roving profile agent: turns merged demand into the global video weights.

The merged demand is kept running: every request is counted in the world's
one demand table as well as at its proxy, and its cell is marked dirty.  A
tour is instantaneous: it copies only the dirty cells into the one weight
table every proxy holds, where it orders reclaim victims.  No other count
changed since its cell was last written, so after each tour every cell of
the table equals its request count.  The popularity tiers are fixed id
ranges; a tour never changes them.
"""

from __future__ import annotations

from .topology import World


def agent_tour(time: float, world: World) -> None:
    """Run one full tour: copy the counts of the cells requested since the last one.

    The tour reads no clock; ``time`` is passed so a wrapper can record
    when each tour ran.
    """
    counts, weights = world.demand, world.weights
    for cell in world.dirty:
        weights[cell] = counts[cell]
    world.dirty.clear()
