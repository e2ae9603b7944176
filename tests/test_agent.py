"""Profile agent tours: weights from the running demand table, in one table all proxies share."""

from __future__ import annotations

import random

from vodsim import sim
from vodsim.config import SimConfig
from vodsim.model import CLASSES, build_catalog, cell_index
from vodsim.topology import World, agent_tour, handle_request

C1, C2, C3 = CLASSES


def setup(num_videos=32, seed=4):
    return World(4, build_catalog(num_videos, 700, 2100, random.Random(seed)), 8, 100, True)


def request(world, proxy_id, video_id, user_class, times=1):
    for _ in range(times):
        handle_request(world, 1.0, proxy_id, video_id, user_class)


def test_tour_weights_sum_demand_over_proxies():
    world = setup()
    request(world, 0, 3, C1)
    request(world, 1, 3, C1)
    request(world, 2, 3, C2)
    request(world, 3, 9, C3)
    agent_tour(world)
    assert sum(world.demand) == 4
    assert world.weights[cell_index(3, C1)] == 2
    assert world.weights[cell_index(3, C2)] == 1
    assert world.weights[cell_index(9, C3)] == 1
    assert world.weights[cell_index(9, C1)] == 0
    assert world.proxies[0].local_counts[cell_index(3, C1)] == 1


def test_tour_pushes_weights_everywhere():
    world = setup()
    request(world, 1, 7, C1, times=5)
    agent_tour(world)
    assert world.weights[cell_index(7, C1)] == 5
    # the table the tour wrote is the one every proxy's admission reads
    for proxy_id in (0, 2, 3):
        decision = handle_request(world, 11.0, proxy_id, 7, C1)
        assert decision.allocation.weight == 5


def test_tour_leaves_catalog_untouched():
    world = setup()
    catalog = world.catalog
    videos = [(video.size_mb, video.min_bw, video.max_bw) for video in catalog]
    hot = 30  # in the least-popular id range
    request(world, 0, hot, C2, times=50)
    agent_tour(world)
    assert [(video.size_mb, video.min_bw, video.max_bw) for video in catalog] == videos


def test_tour_does_not_reset_counters():
    world = setup()
    request(world, 0, 1, C1)
    agent_tour(world)
    assert world.proxies[0].local_counts[cell_index(1, C1)] == 1
    assert world.demand[cell_index(1, C1)] == 1
    request(world, 0, 1, C1)
    agent_tour(world)
    assert sum(world.demand) == 2
    assert world.weights[cell_index(1, C1)] == 2


def test_second_tour_without_new_demand_changes_nothing():
    world = setup()
    rng = random.Random(6)
    for _ in range(400):
        request(world, rng.randrange(4), rng.randrange(32), rng.choice(CLASSES))
    agent_tour(world)
    demand, weights = world.demand[:], world.weights[:]
    agent_tour(world)
    assert sum(demand) == 400
    assert world.demand == demand
    assert world.weights == weights


def test_incremental_tours_equal_full_rebuild(monkeypatch):
    # a tour rewrites only the cells marked since the last one; after every
    # tour the shared table must still equal the request count in every cell
    config = SimConfig(num_proxies=5, total_arrival_rate=2.0, horizon=2500.0, seed=3)
    real_tour = sim.agent_tour
    previous = [0] * (3 * config.num_videos)
    changed_per_tour = []

    def checked_tour(world):
        counts = world.demand
        changed = {cell for cell, count in enumerate(counts) if count != previous[cell]}
        assert world.dirty == changed
        real_tour(world)
        assert not world.dirty
        for vid in range(config.num_videos):
            for user_class in CLASSES:
                cell = cell_index(vid, user_class)
                assert world.weights[cell] == world.demand[cell]
        changed_per_tour.append(len(changed))
        previous[:] = world.demand

    monkeypatch.setattr(sim, "agent_tour", checked_tour)
    sim.run(config)
    assert len(changed_per_tour) == 25
    assert min(changed_per_tour) > 0
