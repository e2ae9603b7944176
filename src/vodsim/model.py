"""Video catalog, user classes, popularity tiers and the demand table layout.

Everything that drives an allocation decision lives here as plain data with
pure derivation functions: per-video sizes and class rate windows, and the
static id-range popularity tiers that the workload draws from and that
placement deals from.  Demand counts and video weights are flat
``list[int]`` tables: ``cell_index`` puts (video, class) at cell
``3 * video + class - 1``, so cell ``i`` is of class ``i % 3 + 1``.
A weight is its cell's request count, an exact integer, so comparisons
used for victim ordering are never perturbed by float rounding.  Victims
are only ever compared within one class.  A video id of -1 or a class of
0 would wrap to another video's cells, so ``topology.handle_request``
checks both before it touches any cell.  A class is the int 1, 2 or 3,
class 1 the highest.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

CLASSES: tuple[int, ...] = (1, 2, 3)

#: Per-class (min_lo, min_hi, max_lo, max_hi) stream-rate ranges in MB/s.
#: A video's min/max rate for each class is drawn once from these at
#: catalog construction and never re-drawn.
BW_RANGES: dict[int, tuple[int, int, int, int]] = {
    1: (8, 11, 24, 29),
    2: (6, 8, 18, 23),
    3: (4, 6, 12, 17),
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

    ``min_bw``/``max_bw`` are indexed by the class minus 1 and fixed for the
    life of the catalog.
    """

    size_mb: int
    min_bw: tuple[int, int, int]
    max_bw: tuple[int, int, int]


def draw_spec(ranges: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """``(low, width, bits)`` for each ``(low, width)`` range, in order.

    The contract of every bounded draw: a value uniform on
    ``[low, low + width)`` is ``low + r``, where ``r`` is the first
    ``rng.getrandbits(bits)`` below ``width`` and ``bits`` is
    ``width.bit_length()``.  This is what CPython's
    ``rng.randrange(low, low + width)`` does, call for call, so the value
    and the generator's state afterwards are the same.  Callers write the
    ``while`` loop inline, because a call per draw doubles its cost.  A
    width below 1 would never end that loop and raises ValueError.
    """
    spec = []
    for low, width in ranges:
        if width < 1:
            raise ValueError(f"cannot draw from the empty range [{low}, {low + width})")
        spec.append((low, width, width.bit_length()))
    return spec


def build_catalog(num_videos: int, size_min: int, size_max: int,
                  rng: random.Random) -> list[VideoMeta]:
    """Draw a catalog: sizes and per-class min/max rates come from ``rng``.

    Per video, seven draws under ``draw_spec``'s contract, in this order:
    the size from ``size_min..size_max``, then the minimum and the maximum
    rate of class 1, 2 and 3 from their ``BW_RANGES``.  Each makes the
    calls ``rng.randint`` over the same bounds would, so a seed gives the
    catalog it gave when this drew through ``randint``.
    """
    bounds = [(size_min, size_max)]
    for user_class in CLASSES:
        min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
        bounds += [(min_lo, min_hi), (max_lo, max_hi)]
    spec = draw_spec((lo, hi - lo + 1) for lo, hi in bounds)
    getrandbits = rng.getrandbits
    videos = []
    for _ in range(num_videos):
        drawn = []
        for low, width, bits in spec:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            drawn.append(low + r)
        size, min1, max1, min2, max2, min3, max3 = drawn
        videos.append(VideoMeta(size, (min1, min2, min3), (max1, max2, max3)))
    return videos


def cell_index(video: int, user_class: int) -> int:
    """Flat index of the (video, class) cell in every demand and weight table."""
    return 3 * video + user_class - 1
