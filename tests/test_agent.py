"""Profile agent tours: merging and weight pushing."""

from __future__ import annotations

import random

import pytest

from vodsim.config import ConfigError
from vodsim.model import CLASSES, UserClass, build_catalog
from vodsim.agent import agent_tour, append_tour_log, merge_profiles, schedule_next_tour
from vodsim.topology import build_world

PROFITS = (3, 2, 1)


def setup(num_videos=32, seed=4):
    world = build_world(4, num_videos, 8, 100)
    catalog = build_catalog(num_videos, 700, 2100, random.Random(seed))
    return world, catalog


def test_merge_sums_cell_wise():
    world, _catalog = setup()
    world.proxies[0].local_counts.record(3, UserClass.CLASS1)
    world.proxies[1].local_counts.record(3, UserClass.CLASS1)
    world.proxies[2].local_counts.record(3, UserClass.CLASS2)
    world.proxies[3].local_counts.record(9, UserClass.CLASS3)
    merged = merge_profiles(world, 32)
    assert merged.count(3, UserClass.CLASS1) == 2
    assert merged.count(3, UserClass.CLASS2) == 1
    assert merged.count(9, UserClass.CLASS3) == 1
    assert merged.total == 4


def test_tour_pushes_weights_everywhere():
    world, catalog = setup()
    for _ in range(5):
        world.proxies[1].local_counts.record(7, UserClass.CLASS1)
    agent_tour(10.0, world, catalog, PROFITS)
    table = world.proxies[0].global_weights
    assert table.weight(7, UserClass.CLASS1) == 15
    for proxy in world.proxies:
        assert proxy.global_weights is table


def test_tour_leaves_catalog_untouched():
    world, catalog = setup()
    tiers = [video.tier for video in catalog.videos]
    members = {tier: ids[:] for tier, ids in catalog.tier_members.items()}
    hot = 30  # in the least-popular id range
    for _ in range(50):
        world.proxies[0].local_counts.record(hot, UserClass.CLASS2)
    agent_tour(10.0, world, catalog, PROFITS)
    assert [video.tier for video in catalog.videos] == tiers
    assert catalog.tier_members == members


def test_tour_does_not_reset_counters():
    world, catalog = setup()
    world.proxies[0].local_counts.record(1, UserClass.CLASS1)
    agent_tour(10.0, world, catalog, PROFITS)
    assert world.proxies[0].local_counts.count(1, UserClass.CLASS1) == 1
    world.proxies[0].local_counts.record(1, UserClass.CLASS1)
    report = agent_tour(20.0, world, catalog, PROFITS)
    assert report.total_requests == 2
    assert world.proxies[0].global_weights.weight(1, UserClass.CLASS1) == 6


def test_second_tour_without_new_demand_changes_nothing():
    world, catalog = setup()
    rng = random.Random(6)
    for _ in range(400):
        world.proxies[rng.randrange(4)].local_counts.record(
            rng.randrange(32), rng.choice(CLASSES))
    first = agent_tour(10.0, world, catalog, PROFITS)
    weights = world.proxies[0].global_weights.weights
    second = agent_tour(20.0, world, catalog, PROFITS)
    assert second.total_requests == first.total_requests == 400
    for proxy in world.proxies:
        assert proxy.global_weights.weights == weights


def test_schedule_next_tour():
    assert schedule_next_tour(40.0, 100.0) == 140.0
    with pytest.raises(ConfigError):
        schedule_next_tour(40.0, 0.0)


def test_tour_log_format():
    world, catalog = setup()
    reports = [agent_tour(t, world, catalog, PROFITS) for t in (10.0, 20.0)]
    text = append_tour_log(reports)
    lines = text.splitlines()
    assert lines[0] == "time,total_requests"
    assert lines[1] == "10.000000,0"
    assert len(lines) == 3
