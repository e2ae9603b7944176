"""Video catalog, user classes, popularity tiers and demand accounting.

Everything that drives an allocation decision lives here as plain data with
pure derivation functions: per-video sizes and class rate windows, the
static id-range popularity tiers that placement deals from,
per-(video, class) request counters and the integer video weights derived
from them.  Weights are exact integers (request count times integer class
profit) so comparisons used for victim ordering are never perturbed by
float rounding.
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

    def video(self, video_id: int) -> VideoMeta:
        if not 0 <= video_id < len(self.videos):
            raise ValueError(f"unknown video {video_id}")
        return self.videos[video_id]


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


class DemandProfile:
    """Cumulative per-(video, class) request counters; counters only grow."""

    __slots__ = ("counts", "total")

    def __init__(self, num_videos: int):
        self.counts: list[list[int]] = [[0, 0, 0] for _ in range(num_videos)]
        self.total = 0

    def _check(self, video: int) -> None:
        if not 0 <= video < len(self.counts):
            raise ValueError(f"unknown video {video}")

    def record(self, video: int, user_class: UserClass) -> None:
        """Count one request: bumps exactly the (video, class) cell."""
        self._check(video)
        self.counts[video][user_class - 1] += 1
        self.total += 1

    def count(self, video: int, user_class: UserClass) -> int:
        self._check(video)
        return self.counts[video][user_class - 1]


class WeightProfile:
    """Integer weight table, one cell per (video, class)."""

    __slots__ = ("weights",)

    def __init__(self, weights: list[list[int]]):
        self.weights = weights

    @classmethod
    def zeros(cls, num_videos: int) -> "WeightProfile":
        return cls([[0, 0, 0] for _ in range(num_videos)])

    @classmethod
    def derive(cls, counts: DemandProfile, profits: Sequence[int]) -> "WeightProfile":
        p1, p2, p3 = profits
        return cls([[row[0] * p1, row[1] * p2, row[2] * p3] for row in counts.counts])

    def weight(self, video: int, user_class: UserClass) -> int:
        return self.weights[video][user_class - 1]
