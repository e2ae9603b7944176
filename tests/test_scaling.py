"""Exact relations between runs: a run scaled by a power of two scales to
the bit, and a run on a rotated ring rotates only its links.

Rates, capacities and sizes are ints, and times are floats built from them
by +, -, *, / and log, so scaling by a power of two is exact in binary
floating point.  Records are compared as parsed values, not report bytes:
six-decimal formatting of a doubled time is not a doubled string.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim.allocation import LEDGER_RECORD
from vodsim.config import SimConfig
from vodsim.metrics import Replay
from vodsim.model import VideoMeta, build_catalog
from vodsim.sim import Simulation, run

K = 2
BASE = SimConfig(seed=3, horizon=1000.0)
CATALOG = build_catalog(BASE.num_videos, BASE.video_size_min, BASE.video_size_max,
                        random.Random(3))
LOADS = [(scale, psg_enabled) for scale in (1, 4, 16) for psg_enabled in (True, False)]


@pytest.fixture(scope="module", params=LOADS,
                ids=[f"x{scale}-{'psg' if psg else 'nopsg'}" for scale, psg in LOADS])
def base(request):
    """The unscaled run at one load, with sharing on or off."""
    scale, psg_enabled = request.param
    config = dataclasses.replace(BASE, total_arrival_rate=BASE.total_arrival_rate * scale,
                                 psg_enabled=psg_enabled)
    return run(config, CATALOG)


def records(result):
    return [list(LEDGER_RECORD.iter_unpack(link.ledger)) for link in result.ledgers]


def counters_with_bytes_scaled(result, k=K):
    """The run's counters as a dict, with both byte totals times ``k``."""
    counters = result.counters
    return {**dataclasses.asdict(counters), "bytes_completed": k * counters.bytes_completed,
            "bytes_drained": k * counters.bytes_drained}


def utilization(result):
    return Replay(result.ledgers, result.config.horizon).utilization()


def check_rate_relation(base, catalog, k=K):
    """Rates, sizes and link capacity times ``k``: only the rates scale."""
    scaled_catalog = [VideoMeta(k * video.size_mb, tuple(k * rate for rate in video.min_bw),
                                tuple(k * rate for rate in video.max_bw)) for video in catalog]
    config = dataclasses.replace(base.config, link_capacity=k * base.config.link_capacity)
    scaled = run(config, scaled_catalog)
    assert records(scaled) == [
        [(time, op, alloc_id, video_id, user_class, k * amount, k * low, k * high)
         for time, op, alloc_id, video_id, user_class, amount, low, high in ledger]
        for ledger in records(base)
    ]
    assert dataclasses.asdict(scaled.counters) == counters_with_bytes_scaled(base, k)
    assert utilization(scaled) == utilization(base)


def check_time_relation(base, catalog, k=K):
    """Times and sizes times ``k``, the arrival rate over ``k``: only the times scale."""
    scaled_catalog = [dataclasses.replace(video, size_mb=k * video.size_mb) for video in catalog]
    config = dataclasses.replace(
        base.config, horizon=k * base.config.horizon, agent_period=k * base.config.agent_period,
        sample_period=k * base.config.sample_period,
        total_arrival_rate=base.config.total_arrival_rate / k,
    )
    scaled = run(config, scaled_catalog)
    assert records(scaled) == [[(k * time, *fields) for time, *fields in ledger]
                               for ledger in records(base)]
    assert scaled.metrics.ticks == [k * tick for tick in base.metrics.ticks]
    assert dataclasses.asdict(scaled.counters) == counters_with_bytes_scaled(base, k)
    assert utilization(scaled) == utilization(base)


def test_scaling_rates_sizes_and_capacity_scales_only_the_rates(base):
    assert base.counters.requested > base.counters.local_hits > 0
    check_rate_relation(base, CATALOG)


def test_scaling_times_and_sizes_scales_only_the_times(base):
    check_time_relation(base, CATALOG)


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def tiny_runs(draw):
    """A tiny valid config, its catalog and a factor ``k``.  Caches of 4 or
    8 entries and long streams push caches past capacity."""
    num_videos = 4 * draw(st.integers(3, 8))
    size_min = draw(st.integers(1, 1500))
    config = SimConfig(
        num_proxies=draw(st.integers(3, 5)),
        num_videos=num_videos,
        link_capacity=draw(st.integers(1, 150)),
        cache_capacity=4 * draw(st.integers(1, 2)),
        video_size_min=size_min,
        video_size_max=draw(st.integers(size_min, 3000)),
        total_arrival_rate=draw(floats(0.2, 4.0)),
        tier_mix=draw(st.sampled_from([(0.5, 0.35, 0.15), (0.1, 0.3, 0.6)])),
        class_mix=draw(st.sampled_from([(0.2, 0.3, 0.5), (0.6, 0.3, 0.1)])),
        horizon=draw(floats(20.0, 250.0)),
        agent_period=draw(floats(0.5, 150.0)),
        sample_period=draw(floats(0.5, 150.0)),
        seed=draw(st.integers(0, 2**64)),
        psg_enabled=draw(st.booleans()),
    ).validate()
    catalog = build_catalog(num_videos, config.video_size_min, config.video_size_max,
                            random.Random(config.seed))
    return config, catalog, draw(st.sampled_from((2, 4, 8)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          report_multiple_bugs=False)
@given(tiny=tiny_runs())
def test_scaling_relations_hold_on_tiny_runs(tiny):
    config, catalog, k = tiny
    base = run(config, catalog)
    check_rate_relation(base, catalog, k)
    check_time_relation(base, catalog, k)


def rotated_run(config, r):
    """``run(config)`` on the ring turned by ``r``: each proxy k's initial
    cache moves to proxy (k + r) mod n, and every request lands r proxies on."""
    sim = Simulation(config)
    proxies, n = sim.world.proxies, config.num_proxies
    for k, cache in enumerate([proxy.cache for proxy in proxies]):
        proxies[(k + r) % n].cache = cache
    sim.requests = ((dt, (proxy_id + r) % n, video_id, user_class)
                    for dt, proxy_id, video_id, user_class in sim.requests)
    return sim.run()


@pytest.mark.parametrize("scale", (1, 4, 16))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_rotating_the_ring_rotates_only_the_links(seed, scale):
    # the ring's index arithmetic is the same at every proxy, so proxy
    # (k + r) mod n of the rotated run must do exactly what proxy k did
    config = SimConfig(seed=seed, horizon=500.0, total_arrival_rate=float(scale))
    plain = run(config)
    n = config.num_proxies
    assert plain.counters.served_lps and plain.counters.served_rps
    ledgers = [bytes(link.ledger) for link in plain.ledgers]
    for r in (1, 2, 5):
        rotated = rotated_run(config, r)
        assert dataclasses.asdict(rotated.counters) == dataclasses.asdict(plain.counters)
        proxies = rotated.world.proxies
        assert [bytes(link.ledger) for k in range(n)
                for link in proxies[(k + r) % n].links.values()] == ledgers
