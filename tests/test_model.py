"""The catalog, tier ranges, and the flat demand and weight table layout."""

from __future__ import annotations

import random

import pytest

from vodsim.config import ConfigError, SimConfig
from vodsim.model import (
    BW_RANGES,
    CLASSES,
    VideoMeta,
    build_catalog,
    cell_index,
    draw_spec,
    tier_ranges,
)
from vodsim.topology import World, agent_tour


def make_catalog(num_videos=48, seed=7):
    return build_catalog(num_videos, 700, 2100, random.Random(seed))


@pytest.mark.parametrize("n", [4, 8, 480, 4800])
def test_tier_ranges_are_quarter_quarter_half(n):
    ranges = tier_ranges(n)
    ids = [vid for first, size in ranges for vid in range(first, first + size)]
    assert ids == list(range(n))  # contiguous, in order, covering every id
    assert [size for _first, size in ranges] == [n // 4, n // 4, n // 2]


@pytest.mark.parametrize("bad", [0, -4, 30, 481])
def test_tier_census_rejects_bad_sizes(bad):
    # tier_ranges needs a positive multiple of 4; validate() turns other sizes away
    with pytest.raises(ConfigError):
        SimConfig(num_videos=bad).validate()


def test_build_catalog_respects_ranges():
    catalog = make_catalog()
    assert len(catalog) == 48
    for video in catalog:
        assert 700 <= video.size_mb <= 2100
        for user_class in CLASSES:
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            min_rate, max_rate = video.min_bw[user_class - 1], video.max_bw[user_class - 1]
            assert min_lo <= min_rate <= min_hi
            assert max_lo <= max_rate <= max_hi
            assert min_rate < max_rate


def test_build_catalog_is_deterministic():
    a = make_catalog(seed=11)
    b = make_catalog(seed=11)
    assert a == b


def randint_catalog(num_videos, size_min, size_max, rng):
    """The catalog drawn with ``rng.randint`` itself, in build_catalog's
    order: the size, then the minimum and maximum rate of each class."""
    videos = []
    for _ in range(num_videos):
        size = rng.randint(size_min, size_max)
        mins, maxs = [], []
        for user_class in CLASSES:
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            mins.append(rng.randint(min_lo, min_hi))
            maxs.append(rng.randint(max_lo, max_hi))
        videos.append(VideoMeta(size, tuple(mins), tuple(maxs)))
    return videos


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("size_min, size_max", [(2400, 4800), (7, 8), (1, 1), (1, 2**40)])
def test_build_catalog_draws_as_randint(seed, size_min, size_max):
    # (1, 1) has width 1 and still spends one getrandbits(1) per draw;
    # (1, 2**40) takes the multi-word getrandbits path
    rng, reference_rng = random.Random(seed), random.Random(seed)
    catalog = build_catalog(200, size_min, size_max, rng)
    assert catalog == randint_catalog(200, size_min, size_max, reference_rng)
    assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("width", [0, -3])
def test_draw_spec_refuses_an_empty_range(width):
    # the redraw loop would never end on an empty range
    with pytest.raises(ValueError, match="empty range"):
        draw_spec([(5, 2), (10, width)])
    with pytest.raises(ValueError, match="empty range"):
        build_catalog(4, 10, 10 + width - 1, random.Random(0))


def test_demand_profile_counts():
    # one flat cell per (video, class), all zero at the start; a cell's
    # class is its index mod 3, plus one
    world = World(3, [VideoMeta(100, (4, 4, 4), (8, 8, 8))] * 8, 4, 100, True)
    assert world.demand == [0] * 24
    assert all(proxy.local_counts == [0] * 24 for proxy in world.proxies)
    cells = [cell_index(vid, user_class) for vid in range(8) for user_class in CLASSES]
    assert cells == list(range(24))
    for vid in range(8):
        for user_class in CLASSES:
            assert cell_index(vid, user_class) % 3 + 1 == user_class


def test_weights_are_request_counts():
    rng = random.Random(17)
    world = World(3, [VideoMeta(100, (4, 4, 4), (8, 8, 8))] * 12, 4, 100, True)
    for _ in range(500):
        world.demand[cell_index(rng.randrange(12), rng.choice(CLASSES))] += 1
    world.dirty.update(range(len(world.demand)))
    agent_tour(world)
    for vid in range(12):
        for user_class in CLASSES:
            cell = cell_index(vid, user_class)
            assert world.weights[cell] == world.demand[cell]
