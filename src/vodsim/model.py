"""Video catalog, user classes, popularity tiers and demand accounting.

Everything that drives an allocation decision lives here as plain data with
pure derivation functions: per-video sizes and class rate windows, the
static id-range popularity tiers that placement deals from,
per-(video, class) request counters and the integer video weights derived
from them.  Weights are exact integers (request count times integer class
profit) so comparisons used for victim ordering are never perturbed by
float rounding.

Both tables are flat: ``cell_index`` puts (video, class) at cell
``3 * video + class - 1`` of one ``list[int]``, so cell ``i`` is of class
``i % 3 + 1``.  A video id of -1 or a class of 0 would wrap to another
video's cells, so ``topology.handle_request`` checks both before it
touches any cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence


class UserClass(IntEnum):
    """Request service class; class 1 is the highest."""

    CLASS1 = 1
    CLASS2 = 2
    CLASS3 = 3


CLASSES: tuple[UserClass, ...] = (UserClass.CLASS1, UserClass.CLASS2, UserClass.CLASS3)

#: Per-class (min_lo, min_hi, max_lo, max_hi) stream-rate ranges in MB/s.
#: A video's min/max rate for each class is drawn once from these at
#: catalog construction and never re-drawn.
BW_RANGES: dict[UserClass, tuple[int, int, int, int]] = {
    UserClass.CLASS1: (8, 11, 24, 29),
    UserClass.CLASS2: (6, 8, 18, 23),
    UserClass.CLASS3: (4, 6, 12, 17),
}


class Tier(Enum):
    """Popularity bucket; census fixed at 1/4, 1/4, 1/2 of the catalog."""

    MOST = "most"
    SECONDARY = "secondary"
    LEAST = "least"


TIERS: tuple[Tier, ...] = (Tier.MOST, Tier.SECONDARY, Tier.LEAST)


def tier_census(num_videos: int) -> dict[Tier, int]:
    """How many videos belong to each tier for a catalog of this size."""
    if num_videos <= 0 or num_videos % 4:
        raise ValueError(f"catalog size must be a positive multiple of 4, got {num_videos}")
    quarter = num_videos // 4
    return {Tier.MOST: quarter, Tier.SECONDARY: quarter, Tier.LEAST: num_videos - 2 * quarter}


@dataclass
class VideoMeta:
    """One catalog entry.

    ``min_bw``/``max_bw`` are indexed by ``UserClass - 1`` and fixed for the
    life of the catalog.
    """

    video_id: int
    size_mb: int
    tier: Tier
    min_bw: tuple[int, int, int]
    max_bw: tuple[int, int, int]

    def min_rate(self, user_class: UserClass) -> int:
        return self.min_bw[user_class - 1]

    def max_rate(self, user_class: UserClass) -> int:
        return self.max_bw[user_class - 1]


class Catalog:
    """Immutable-by-convention list of videos plus tier membership lists."""

    def __init__(self, videos: list[VideoMeta]):
        self.videos = videos
        self.tier_members: dict[Tier, list[int]] = {tier: [] for tier in TIERS}
        for video in videos:
            self.tier_members[video.tier].append(video.video_id)

    @property
    def nov(self) -> int:
        return len(self.videos)


def initial_tier_table(num_videos: int) -> list[Tier]:
    """Tier assignment by ascending id: the ranges the workload draws from."""
    census = tier_census(num_videos)
    quarter = census[Tier.MOST]
    table = [Tier.LEAST] * num_videos
    for vid in range(quarter):
        table[vid] = Tier.MOST
    for vid in range(quarter, 2 * quarter):
        table[vid] = Tier.SECONDARY
    return table


def build_catalog(num_videos: int, size_min: int, size_max: int, rng: random.Random) -> Catalog:
    """Draw a catalog: sizes and per-class min/max rates come from ``rng``."""
    tiers = initial_tier_table(num_videos)
    videos = []
    for vid in range(num_videos):
        size = rng.randint(size_min, size_max)
        mins = []
        maxs = []
        for user_class in CLASSES:
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            mins.append(rng.randint(min_lo, min_hi))
            maxs.append(rng.randint(max_lo, max_hi))
        videos.append(VideoMeta(vid, size, tiers[vid], tuple(mins), tuple(maxs)))
    return Catalog(videos)


def cell_index(video: int, user_class: UserClass) -> int:
    """Flat index of the (video, class) cell in every demand and weight table."""
    return 3 * video + user_class - 1


class DemandProfile:
    """Cumulative per-(video, class) request counters; counters only grow."""

    __slots__ = ("counts", "total")

    def __init__(self, num_videos: int):
        self.counts = [0] * (3 * num_videos)
        self.total = 0


class WeightProfile:
    """Integer weight table, one flat cell per (video, class)."""

    __slots__ = ("weights",)

    def __init__(self, weights: list[int]):
        self.weights = weights

    def refresh(self, demand: DemandProfile, profits: Sequence[int], cells) -> None:
        """Rewrite ``cells`` as request count times class profit."""
        counts, weights = demand.counts, self.weights
        for cell in cells:
            weights[cell] = counts[cell] * profits[cell % 3]
