"""Video catalog, user classes, popularity tiers and the demand table layout.

Everything that drives an allocation decision lives here as plain data with
pure derivation functions: per-video sizes and class rate windows, and the
static id-range popularity tiers that the workload draws from and that
placement deals from.  Demand counts and video weights are flat
``list[int]`` tables: ``cell_index`` puts (video, class) at cell
``3 * video + class - 1``, so cell ``i`` is of class ``i % 3 + 1``.
Weights are exact integers (request count times integer class profit) so
comparisons used for victim ordering are never perturbed by float
rounding.  A video id of -1 or a class of 0 would wrap to another video's
cells, so ``topology.handle_request`` checks both before it touches any
cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum


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


def tier_ranges(num_videos: int) -> tuple[tuple[int, int], ...]:
    """(first id, size) of the most, secondary and least popular tiers.

    The tiers are ascending id ranges of a quarter, a quarter and the rest
    of ``num_videos``; ``SimConfig.validate()`` keeps every range non-empty.
    """
    quarter = num_videos // 4
    return ((0, quarter), (quarter, quarter), (2 * quarter, num_videos - 2 * quarter))


@dataclass
class VideoMeta:
    """One catalog entry; a catalog is a ``list[VideoMeta]`` indexed by video id.

    ``min_bw``/``max_bw`` are indexed by ``UserClass - 1`` and fixed for the
    life of the catalog.
    """

    size_mb: int
    min_bw: tuple[int, int, int]
    max_bw: tuple[int, int, int]


def build_catalog(num_videos: int, size_min: int, size_max: int,
                  rng: random.Random) -> list[VideoMeta]:
    """Draw a catalog: sizes and per-class min/max rates come from ``rng``."""
    videos = []
    for _ in range(num_videos):
        size = rng.randint(size_min, size_max)
        mins = []
        maxs = []
        for user_class in CLASSES:
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            mins.append(rng.randint(min_lo, min_hi))
            maxs.append(rng.randint(max_lo, max_hi))
        videos.append(VideoMeta(size, tuple(mins), tuple(maxs)))
    return videos


def cell_index(video: int, user_class: UserClass) -> int:
    """Flat index of the (video, class) cell in every demand and weight table."""
    return 3 * video + user_class - 1
