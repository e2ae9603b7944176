"""Exact scaling relations: a run scaled by a power of two scales to the bit.

Rates, capacities and sizes are ints, and times are floats built from them
by +, -, *, / and log, so scaling by a power of two is exact in binary
floating point.  Records are compared as parsed values, not report bytes:
six-decimal formatting of a doubled time is not a doubled string.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from vodsim.allocation import LEDGER_RECORD
from vodsim.config import SimConfig
from vodsim.metrics import Replay
from vodsim.model import VideoMeta, build_catalog
from vodsim.sim import run

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


def counters_with_bytes_scaled(result):
    """The run's counters as a dict, with both byte totals times ``K``."""
    counters = result.counters
    return {**dataclasses.asdict(counters), "bytes_completed": K * counters.bytes_completed,
            "bytes_drained": K * counters.bytes_drained}


def utilization(result):
    return Replay(result.ledgers, result.config.horizon).utilization()


def test_scaling_rates_sizes_and_capacity_scales_only_the_rates(base):
    catalog = [VideoMeta(K * video.size_mb, tuple(K * rate for rate in video.min_bw),
                         tuple(K * rate for rate in video.max_bw)) for video in CATALOG]
    config = dataclasses.replace(base.config, link_capacity=K * base.config.link_capacity)
    scaled = run(config, catalog)
    assert base.counters.requested > base.counters.local_hits > 0
    assert records(scaled) == [
        [(time, op, alloc_id, video_id, user_class, K * amount, K * low, K * high)
         for time, op, alloc_id, video_id, user_class, amount, low, high in ledger]
        for ledger in records(base)
    ]
    assert dataclasses.asdict(scaled.counters) == counters_with_bytes_scaled(base)
    assert utilization(scaled) == utilization(base)


def test_scaling_times_and_sizes_scales_only_the_times(base):
    catalog = [dataclasses.replace(video, size_mb=K * video.size_mb) for video in CATALOG]
    config = dataclasses.replace(
        base.config, horizon=K * base.config.horizon, agent_period=K * base.config.agent_period,
        sample_period=K * base.config.sample_period,
        total_arrival_rate=base.config.total_arrival_rate / K,
    )
    scaled = run(config, catalog)
    assert records(scaled) == [[(K * time, *fields) for time, *fields in ledger]
                               for ledger in records(base)]
    assert scaled.metrics.ticks == [K * tick for tick in base.metrics.ticks]
    assert dataclasses.asdict(scaled.counters) == counters_with_bytes_scaled(base)
    assert utilization(scaled) == utilization(base)
