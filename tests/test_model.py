"""Catalog, demand counters, weights and tier ranges."""

from __future__ import annotations

import random

import pytest

from vodsim.model import (
    BW_RANGES,
    CLASSES,
    DemandProfile,
    Tier,
    UserClass,
    WeightProfile,
    build_catalog,
    cell_index,
    initial_tier_table,
    tier_census,
)


def make_catalog(num_videos=48, seed=7):
    return build_catalog(num_videos, 700, 2100, random.Random(seed))


def test_tier_census_splits_quarters():
    census = tier_census(480)
    assert census[Tier.MOST] == 120
    assert census[Tier.SECONDARY] == 120
    assert census[Tier.LEAST] == 240
    assert sum(census.values()) == 480


@pytest.mark.parametrize("bad", [0, -4, 30, 481])
def test_tier_census_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        tier_census(bad)


def test_initial_tiers_are_contiguous_ranges():
    table = initial_tier_table(16)
    assert table[:4] == [Tier.MOST] * 4
    assert table[4:8] == [Tier.SECONDARY] * 4
    assert table[8:] == [Tier.LEAST] * 8


def test_build_catalog_respects_ranges():
    catalog = make_catalog()
    assert catalog.nov == 48
    for video in catalog.videos:
        assert 700 <= video.size_mb <= 2100
        for user_class in CLASSES:
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            assert min_lo <= video.min_rate(user_class) <= min_hi
            assert max_lo <= video.max_rate(user_class) <= max_hi
            assert video.min_rate(user_class) < video.max_rate(user_class)


def test_build_catalog_is_deterministic():
    a = make_catalog(seed=11)
    b = make_catalog(seed=11)
    assert a.videos == b.videos
    assert a.tier_members == b.tier_members


def test_demand_profile_counts():
    # one flat cell per (video, class), all zero at the start; a cell's
    # class is its index mod 3, plus one
    profile = DemandProfile(8)
    assert profile.counts == [0] * 24
    assert profile.total == 0
    cells = [cell_index(vid, user_class) for vid in range(8) for user_class in CLASSES]
    assert cells == list(range(24))
    for vid in range(8):
        for user_class in CLASSES:
            assert cell_index(vid, user_class) % 3 + 1 == user_class


def test_weights_are_count_times_profit():
    rng = random.Random(17)
    profile = DemandProfile(12)
    for _ in range(500):
        profile.counts[cell_index(rng.randrange(12), rng.choice(CLASSES))] += 1
    profits = (3, 2, 1)
    table = WeightProfile([0] * 36)
    table.refresh(profile, profits, range(len(profile.counts)))
    for vid in range(12):
        for user_class in CLASSES:
            cell = cell_index(vid, user_class)
            assert table.weights[cell] == profile.counts[cell] * profits[user_class - 1]
