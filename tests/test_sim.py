"""Event loop behavior: arrivals, completions, reclaim reschedules, drain."""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import math
import random
import struct
import weakref

import pytest

from arrival_tap import with_arrivals
from oracle import admit_cuts
from vodsim.allocation import (ALLOCATE, FIELD_MAX, LEDGER_RECORD, LINK_KINDS, PS_CMS, PS_LPS,
                               PS_RPS, InvariantViolation, Link)
from vodsim.config import ConfigError, SimConfig
from vodsim.metrics import _COUNT, _MAX, _MIN, _RATE, _STATE_LEN, Replay, emit_reports
from vodsim import allocation, sim
from vodsim.model import BW_RANGES, CLASSES, VideoMeta, build_catalog
from vodsim.sim import Simulation, baseline_no_psg, draw_arrivals, run
from vodsim.topology import ProxyServer

C1, C2, C3 = CLASSES
SMALL = SimConfig(horizon=600.0, seed=9)


def test_draw_arrivals_is_deterministic():
    config = SimConfig()
    first, second = (draw_arrivals(random.Random(5), config) for _ in range(2))
    assert list(itertools.islice(first, 50)) == list(itertools.islice(second, 50))


def test_draw_arrivals_fields_in_range():
    config = SimConfig()
    arrivals = draw_arrivals(random.Random(12), config)
    for dt, proxy_id, video_id, user_class in itertools.islice(arrivals, 2000):
        assert dt >= 0.0
        assert 0 <= proxy_id < config.num_proxies
        assert 0 <= video_id < config.num_videos
        # the exact int: CPython specializes only exact-int arithmetic,
        # comparisons and subscripts
        assert type(user_class) is int
        assert 1 <= user_class <= 3


def test_draw_arrivals_mean_interarrival():
    config = dataclasses.replace(SimConfig(), total_arrival_rate=4.0)
    arrivals = draw_arrivals(random.Random(31), config)
    draws = [arrival[0] for arrival in itertools.islice(arrivals, 20000)]
    assert sum(draws) / len(draws) == pytest.approx(0.25, rel=0.05)


def test_draw_arrivals_rejects_unvalidated_config():
    # an empty proxy or tier range would never end its redraw loop
    with pytest.raises(ConfigError, match="3 proxies"):
        next(draw_arrivals(random.Random(1), SimConfig(num_proxies=2)))


@pytest.mark.parametrize("changes", [
    {"num_proxies": 0}, {"num_videos": 0}, {"num_videos": 2},
    *(pytest.param({"total_arrival_rate": rate}, id=f"rate-{rate}")
      for rate in (0.0, math.nan, math.inf, -1.0)),
])
def test_draw_arrivals_refuses_an_empty_range(changes):
    # unvalidated: with no proxies, or a tier of 0 videos, a redraw loop
    # would never end; a rate of 0 divides by zero, and NaN, infinite or
    # negative rates give gaps that never carry a clock past a horizon
    # or run it backwards
    if "total_arrival_rate" in changes:
        match = "total_arrival_rate must be"
    else:
        match = "3 proxies" if "num_proxies" in changes else "num_videos must be"
    with pytest.raises(ConfigError, match=match):
        next(draw_arrivals(random.Random(1), dataclasses.replace(SimConfig(), **changes)))


@pytest.mark.parametrize("changes", [
    # unvalidated, each drew: every request from the top tier, every
    # request of class 3, from a tier range that is not a quarter, and
    # raised AttributeError from a float proxy count
    {"tier_mix": (1.5, -0.25, -0.25)}, {"class_mix": (0, 0, 0)}, {"num_videos": 5},
    {"num_proxies": 4.5},
], ids=["tier_mix", "class_mix", "num_videos", "num_proxies"])
def test_draw_arrivals_refuses_what_validate_refuses(changes):
    arrivals = draw_arrivals(random.Random(1), dataclasses.replace(SimConfig(), **changes))
    with pytest.raises(ConfigError) as drawn:
        next(arrivals)
    with pytest.raises(ConfigError) as validated:
        dataclasses.replace(SimConfig(), **changes).validate()
    assert str(drawn.value) == str(validated.value)


def test_run_validates_its_config_a_fixed_number_of_times(monkeypatch):
    # once in Simulation and once at the first draw, however many draws follow
    calls = []
    validate = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate", lambda self: calls.append(self) or validate(self))
    for scale in (1, 4):
        config = dataclasses.replace(SMALL, horizon=scale * SMALL.horizon)
        calls.clear()
        result = run(config)
        assert result.counters.requested > scale * 500  # many draws from one generator
        assert calls == [config, config]


def generate_arrival(rng, config):
    """One request drawn with the ``random.Random`` methods themselves.

    The draw ``draw_arrivals`` writes out, kept as its reference: it must
    yield exactly these requests and leave the generator in the same state.
    """
    dt = rng.expovariate(config.total_arrival_rate)
    proxy_id = rng.randrange(config.num_proxies)
    num_videos = config.num_videos
    quarter = num_videos // 4
    most, secondary, _least = config.tier_mix
    draw = rng.random()
    if draw < most:
        video_id = rng.randrange(quarter)
    elif draw < most + secondary:
        video_id = quarter + rng.randrange(quarter)
    else:
        video_id = 2 * quarter + rng.randrange(num_videos - 2 * quarter)
    class1, class2, _class3 = config.class_mix
    draw = rng.random()
    if draw < class1:
        user_class = C1
    elif draw < class1 + class2:
        user_class = C2
    else:
        user_class = C3
    return dt, proxy_id, video_id, user_class


# The benchmark workloads (perfbench/harness.py), then tier sizes of 1, a
# power of two and neither; ring sizes 3, 4 and 7 cover a proxy draw that
# never, often and sometimes redraws.
EXACT_CONFIGS = {
    "default": SimConfig(),
    "saturated_x4": SimConfig(total_arrival_rate=4.0, horizon=10000.0),
    "overload_x16": SimConfig(total_arrival_rate=16.0, horizon=5000.0),
    "large_catalog": SimConfig(num_proxies=12, num_videos=4800, cache_capacity=1600,
                               agent_period=50.0, total_arrival_rate=1.0, horizon=5000.0),
    "tier_size_1": SimConfig(num_proxies=3, num_videos=4, cache_capacity=4),
    "tier_size_8": SimConfig(num_proxies=4, num_videos=32, cache_capacity=8),
    "tier_size_12": SimConfig(num_proxies=7, num_videos=48, cache_capacity=8,
                              total_arrival_rate=2.5, tier_mix=(0.2, 0.3, 0.5)),
}


@pytest.mark.parametrize("name", sorted(EXACT_CONFIGS))
def test_draw_arrivals_makes_the_reference_draws(name):
    # fails if the interpreter's expovariate or randrange draw differently
    config = EXACT_CONFIGS[name].validate()
    for seed in (0, 1, 7, 31):
        rng, reference = random.Random(seed), random.Random(seed)
        assert list(itertools.islice(draw_arrivals(rng, config), 1500)) == [
            generate_arrival(reference, config) for _ in range(1500)
        ]
        assert rng.getstate() == reference.getstate()


def test_run_draws_one_request_past_the_last_it_handles():
    # the request that lands past the horizon is drawn, and none after it
    config = dataclasses.replace(SMALL, total_arrival_rate=4.0, horizon=300.0)
    simulation = Simulation(config)
    reference = Simulation(config).workload_rng
    result = simulation.run()
    assert result.counters.requested > 1000
    for _ in range(result.counters.requested + 1):
        generate_arrival(reference, config)
    assert simulation.workload_rng.getstate() == reference.getstate()


def test_finished_simulation_is_freed_without_the_cycle_collector():
    # a finished run holds no event: the heap is cleared, and the next
    # arrival lived in run()'s locals
    simulation = Simulation(dataclasses.replace(SMALL, horizon=100.0))
    simulation.run()
    assert simulation.heap == []
    freed = weakref.ref(simulation)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del simulation
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_stopped_simulation_is_freed_without_the_cycle_collector(monkeypatch):
    # a run stopped at its first tour keeps its events; an event holding a
    # bound method would tie the simulation into a reference cycle
    class Stop(Exception):
        pass

    def stop(world):
        raise Stop

    monkeypatch.setattr(sim, "agent_tour", stop)
    simulation = Simulation(dataclasses.replace(SMALL, horizon=300.0))
    try:
        simulation.run()
    except Stop:
        pass
    assert simulation.now == SMALL.agent_period
    handlers = {event[2] for event in simulation.heap}
    assert handlers == {Simulation._on_completion, Simulation._on_sample}
    freed = weakref.ref(simulation)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del simulation
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_link_capacity_below_every_class_minimum(tmp_path):
    # a legal degenerate config: 3 MB/s is below every class minimum (4 MB/s
    # or more), so every link rejects every stream
    config = dataclasses.replace(SMALL, link_capacity=3, horizon=300.0).validate()
    result = run(config)
    counters = result.counters
    assert counters.remote_requests > 0
    assert counters.rejected == counters.remote_requests
    assert counters.served_remote == counters.drained == 0
    assert counters.identity_holds()
    assert all(ledger.rows == () for ledger in result.ledgers)
    emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in summary if line.startswith("CHECK:")] == [
        "CHECK:conservation=PASS", "CHECK:ledger_bounds=PASS",
    ]
    util = [line.split("=") for line in summary if line.startswith("util_avg_")]
    assert [name for name, _ in util] == [f"util_avg_{kind}" for kind in LINK_KINDS]
    assert all(float(value) == 0.0 for _, value in util)


def make_stream(capacity=300):
    """A 10 MB/s stream of a 100 MB video admitted at t=0 on a hand link, and
    a simulation whose catalog makes every video 100 MB with a 5..10 MB/s
    window."""
    catalog = [VideoMeta(100, (5, 5, 5), (10, 10, 10))] * SMALL.num_videos
    simulation = Simulation(SMALL, catalog)
    link = Link(PS_CMS, capacity, "t")
    alloc = link.admit(0.0, 1, C1, 5, 10, weight=0)
    return simulation, link, alloc


def completion(simulation, alloc, link):
    """The one event on the heap, checked to be the completion of ``alloc``
    carrying its current rate."""
    [event] = simulation.heap
    assert event[2] is Simulation._on_completion
    assert event[3:] == (alloc, link, 0, link.rate(alloc))
    return event


def test_allocation_integrates_bytes():
    simulation, link, alloc = make_stream()
    assert (link.rate(alloc), alloc.sent, alloc.since) == (10, 0.0, 0.0)
    simulation._push_completion(alloc, link, 0)
    assert completion(simulation, alloc, link)[0] == 10.0
    # the same stream twice: one released early at t=4, one at completion
    early = link.admit(0.0, 1, C1, 5, 10, weight=0)
    assert link.release(4.0, early) is early
    assert (early.sent, early.since) == (40.0, 4.0)
    assert link.release(10.0, alloc) is alloc
    assert (alloc.sent, alloc.since) == (100.0, 10.0)


def test_reclaim_banks_bytes_and_reschedules():
    simulation, link, alloc = make_stream(capacity=12)
    simulation._push_completion(alloc, link, 0)
    stale = completion(simulation, alloc, link)
    simulation.heap.clear()
    start = len(link.ledger)
    link.admit(4.0, 2, C1, 7, 7, weight=1)
    assert admit_cuts(link, start) == [(alloc.alloc_id, 5)] and link.rate(alloc) == 5
    assert (alloc.sent, alloc.since) == (40.0, 4.0)
    # the cut scheduled nothing; the event scheduled at the old rate fires
    # at t=10, closes nothing, and is pushed again once: the 60 MB banked at
    # the cut, at the new 5 MB/s, finish at 16 (22 if counted from t=10)
    assert simulation.heap == []
    simulation.now = 10.0
    simulation._on_completion(stale)
    assert alloc in link.minimums and link.rows[-1].op == "allocate"
    rescheduled = completion(simulation, alloc, link)
    assert rescheduled[0] == 4.0 + 60.0 / 5 == 16.0
    assert rescheduled[6] == 5 != stale[6] == 10
    link.release(rescheduled[0], alloc)
    assert alloc.sent == 100.0


def test_each_live_stream_has_one_completion_event(monkeypatch):
    # a reclaim-heavy ring: a reclaim schedules nothing, and the old event
    # of a cut stream is pushed again when it fires, so at every sample the
    # heap holds one completion per live allocation and no other
    handled, samples = [], []
    reschedules = 0
    on_completion, on_sample = Simulation._on_completion, Simulation._on_sample

    def logged_completion(self, event):
        nonlocal reschedules
        handled.append(self.now)
        on_completion(self, event)
        _, _, _, alloc, link, _proxy_id, _rate = event
        reschedules += alloc in link.minimums

    def checked_sample(self, event):
        handled.append(self.now)
        pending = sorted(e[3].alloc_id for e in self.heap if e[2] is logged_completion)
        live = sorted(alloc.alloc_id for link in self.ledgers for alloc in link.minimums)
        samples.append(len(live))
        assert pending == live, f"t={self.now}"
        on_sample(self, event)

    def logged_request(world, time, *rest):
        handled.append(time)
        arrivals.append(time)
        return handle_request(world, time, *rest)

    def logged_tour(self, event):
        handled.append(self.now)
        on_tour(self, event)

    arrivals = []
    handle_request, on_tour = sim.handle_request, Simulation._on_tour
    monkeypatch.setattr(sim, "handle_request", logged_request)
    monkeypatch.setattr(Simulation, "_on_completion", logged_completion)
    monkeypatch.setattr(Simulation, "_on_sample", checked_sample)
    monkeypatch.setattr(Simulation, "_on_tour", logged_tour)
    config = dataclasses.replace(SimConfig(), link_capacity=60, total_arrival_rate=8.0,
                                 horizon=1500.0)
    result = run(config)
    assert len(samples) == 150 and max(samples) > 0
    assert len(arrivals) == result.counters.requested > 0
    assert handled == sorted(handled)
    assert reschedules > 0


def test_a_run_carries_classes_as_exact_ints(monkeypatch):
    # the live allocations of every link at every sample: each stream's
    # class came from draw_arrivals, through handle_request and admit
    seen = set()
    on_sample = Simulation._on_sample

    def checked_sample(self, event):
        seen.update(type(alloc.user_class) for link in self.ledgers for alloc in link.minimums)
        on_sample(self, event)

    monkeypatch.setattr(Simulation, "_on_sample", checked_sample)
    run(SMALL)
    assert seen == {int}


def test_every_class_handed_out_is_an_exact_int():
    result = run(SMALL)
    walked = Replay(result.ledgers, SMALL.horizon)
    by_class = walked.mean_alloc_by_class()
    per_class = walked.mean_alloc_per_class()
    assert by_class and per_class  # each holds a class of a live stream
    handed_out = [
        *CLASSES,
        *BW_RANGES,
        *result.counters.requested_by_class,
        *(c for _, c in by_class),
        *per_class,
    ]
    assert {type(c) for c in handed_out} == {int}


def test_every_kind_handed_out_is_an_exact_link_kind_string():
    result = run(SMALL)
    walked = Replay(result.ledgers, SMALL.horizon)
    handed_out = [
        *(link.kind for link in result.ledgers),
        *(kind for proxy in result.world.proxies for kind in proxy.links),
        *walked.utilization(),
        *(kind for kind, _ in walked.mean_alloc_by_class()),
    ]
    assert {type(kind) for kind in handed_out} == {str}
    assert set(handed_out) == set(LINK_KINDS)
    with pytest.raises(ValueError, match="ps_cm"):
        Link("ps_cm", 30)


def fixed_rate_catalog(num_videos):
    """A catalog whose every rate window is a single rate: min == max."""
    return [VideoMeta(600, (9, 7, 5), (9, 7, 5)) for _ in range(num_videos)]


# name: (config changes to a 300 s run of SMALL, catalog maker or None)
TINY = {
    "3-proxies-4-videos": ({"num_proxies": 3, "num_videos": 4, "cache_capacity": 4}, None),
    "link-capacity-3": ({"link_capacity": 3}, None),
    "min-equals-max": ({"total_arrival_rate": 4.0}, fixed_rate_catalog),
    "horizon-below-periods": ({"horizon": 5.0}, None),
    "cache-holds-catalog": ({"num_videos": 16, "cache_capacity": 16}, None),
}


@pytest.mark.parametrize("name", TINY)
def test_tiny_config_keeps_identity_checks_and_bytes(name, tmp_path):
    changes, make_catalog = TINY[name]
    config = dataclasses.replace(SMALL, **{"horizon": 300.0, **changes}).validate()
    catalog = make_catalog(config.num_videos) if make_catalog else None
    result, arrivals = with_arrivals(run, config, catalog)
    counters = result.counters
    assert counters.identity_holds()
    # each completed stream carried its size, and the ledgers carried every MB
    assert counters.max_byte_rel_error < 1e-9
    walked = Replay(result.ledgers, config.horizon)
    ledger_side = sum(i[0] for i in walked.integral.values())
    assert ledger_side == pytest.approx(counters.bytes_completed + counters.bytes_drained,
                                        rel=1e-9)
    paths = emit_reports(result, tmp_path / "a")
    summary = (tmp_path / "a" / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in summary if line.startswith("CHECK:")] == [
        "CHECK:conservation=PASS", "CHECK:ledger_bounds=PASS",
    ]
    emit_reports(run(config, catalog), tmp_path / "b")
    for path in paths:
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    without, without_arrivals = with_arrivals(
        run, dataclasses.replace(config, psg_enabled=False), catalog)
    assert without_arrivals == arrivals
    # the sharing-off run of the same config and catalog is a valid baseline
    emit_reports(result, tmp_path / "c", baseline=without)
    rejections = (tmp_path / "c" / "rejections.csv").read_text(encoding="utf-8")
    assert rejections.startswith("metric,with_psg,without_psg\n")


def test_short_run_identities():
    result = run(SMALL)
    counters = result.counters
    assert counters.requested > 0
    assert counters.identity_holds()
    assert counters.rejected >= 0
    assert Replay(result.ledgers, SMALL.horizon).live == [{} for _ in result.ledgers]
    for link in result.world.all_links():
        assert link.used == 0
        assert not link.minimums and not any(link.class_excess)
    for proxy in result.world.proxies:
        assert not any(proxy.cache.values())
        assert len(proxy.cache) <= proxy.cache_capacity


def test_byte_conservation_short_run():
    result = run(SMALL)
    stream_side = result.counters.bytes_completed + result.counters.bytes_drained
    walked = Replay(result.ledgers, SMALL.horizon)
    ledger_side = sum(i[0] for i in walked.integral.values())
    assert ledger_side == pytest.approx(stream_side, rel=1e-9)
    assert result.counters.max_byte_rel_error < 1e-9


def test_ledger_holds_one_record_per_row():
    result = run(SMALL)
    assert any(link.ledger for link in result.ledgers)
    for link in result.ledgers:
        assert len(link.ledger) == LEDGER_RECORD.size * len(link.rows)


def test_run_and_reports_build_no_ledger_rows(tmp_path, monkeypatch):
    def no_rows(*fields):
        raise AssertionError("a LedgerRow was built")

    monkeypatch.setattr(allocation, "LedgerRow", no_rows)
    result = Simulation(SMALL).run()
    emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in summary if line.startswith("CHECK:")] == [
        "CHECK:conservation=PASS", "CHECK:ledger_bounds=PASS",
    ]
    # the stub is the one the decoded view would call
    with pytest.raises(AssertionError, match="LedgerRow"):
        next(link for link in result.ledgers if link.ledger).rows


# SHA-256 of the ledgers of `vodsim run --seed 1 --horizon 500`
LEDGER_GOLDEN = "6bcdc4eb184b1dabf5e8546e66e15288e8232a8e5e7c764afd3b2a04361259df"


def test_ledger_digest_is_pinned():
    result = run(SimConfig(seed=1, horizon=500.0))
    assert result.ledger_digest() == LEDGER_GOLDEN
    # it sees a time one ulp off, which six-decimal reports round away
    link = next(link for link in result.ledgers if link.ledger)
    (time,) = struct.unpack_from("<d", link.ledger)
    struct.pack_into("<d", link.ledger, 0, math.nextafter(time, math.inf))
    assert result.ledger_digest() != LEDGER_GOLDEN


def test_same_seed_reproduces_run():
    a, arrivals_a = with_arrivals(run, SMALL)
    b, arrivals_b = with_arrivals(run, SMALL)
    assert a.counters == b.counters
    assert arrivals_a == arrivals_b
    rows_a = [(r.time, r.op, r.alloc_id, r.amount) for lg in a.ledgers for r in lg.rows]
    rows_b = [(r.time, r.op, r.alloc_id, r.amount) for lg in b.ledgers for r in lg.rows]
    assert rows_a == rows_b


def test_run_leaves_passed_catalog_untouched(tmp_path):
    config = SimConfig(horizon=2000.0)
    catalog = Simulation(config).world.catalog
    videos = [(video.size_mb, video.min_bw, video.max_bw) for video in catalog]
    first = run(config, catalog)
    second = run(config, catalog)
    assert first.world.catalog is catalog and not hasattr(first, "catalog")  # the ring's
    assert first.counters == second.counters
    assert [(video.size_mb, video.min_bw, video.max_bw) for video in catalog] == videos
    emit_reports(first, tmp_path / "a")
    emit_reports(second, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_a_passed_catalog_is_kept_object_for_object():
    config = SimConfig(horizon=500.0)
    catalog = build_catalog(config.num_videos, 2400, 4800, random.Random(2))
    held = [(video, video.min_bw, video.max_bw) for video in catalog]
    result = run(config, catalog)
    assert result.world.catalog is catalog
    assert len(catalog) == len(held)
    for video, (before, min_bw, max_bw) in zip(catalog, held):
        assert video is before and video.min_bw is min_bw and video.max_bw is max_bw


def test_catalog_draw_shifts_no_other_stream(tmp_path):
    # the catalog has its own generator: drawing it or passing the same
    # catalog in gives the same placement, arrivals and reports
    passed, passed_arrivals = with_arrivals(run, SMALL, Simulation(SMALL).world.catalog)
    drawn, drawn_arrivals = with_arrivals(run, SMALL)
    assert passed_arrivals == drawn_arrivals
    assert passed.counters == drawn.counters
    emit_reports(passed, tmp_path / "passed")
    paths = emit_reports(drawn, tmp_path / "drawn")
    for path in paths:
        assert path.read_bytes() == (tmp_path / "passed" / path.name).read_bytes()


@pytest.mark.parametrize("num_videos", [240, 960])
def test_mismatched_catalog_rejected_up_front(num_videos):
    catalog = build_catalog(num_videos, 2400, 4800, random.Random(2))
    with pytest.raises(ConfigError, match="num_videos"):
        Simulation(SimConfig(horizon=2000.0), catalog)


@pytest.mark.parametrize("changes", [
    {"size_mb": 0},
    {"size_mb": -5},
    {"size_mb": 3000.0},
    {"size_mb": True},
    {"min_bw": (0, 6, 4)},
    {"min_bw": (8, 30, 4)},  # class 2 minimum above any class 2 maximum
    {"max_bw": (24.5, 18, 12)},
    {"min_bw": (8, 6)},
    {"min_bw": 8},
    "plain_tuple",
], ids=["size_zero", "size_negative", "size_float", "size_bool", "min_zero",
        "min_above_max", "max_float", "two_windows", "int_window", "plain_tuple"])
def test_bad_catalog_entry_rejected_up_front(changes):
    config = SimConfig(horizon=300.0, total_arrival_rate=4.0)
    catalog = [(video.size_mb, video.min_bw, video.max_bw) if changes == "plain_tuple"
               else dataclasses.replace(video, **changes)
               for video in Simulation(config).world.catalog]
    with pytest.raises(ConfigError, match="catalog video 0"):
        Simulation(config, catalog)


def test_catalog_rates_fit_the_ledger_fields():
    config = SimConfig(horizon=300.0, total_arrival_rate=4.0)
    drawn = Simulation(config).world.catalog

    def widest_class3_max(rate):
        return [dataclasses.replace(video, max_bw=(*video.max_bw[:2], rate)) for video in drawn]

    result = run(config, widest_class3_max(FIELD_MAX))
    assert max(row.max_rate for link in result.ledgers for row in link.rows) == FIELD_MAX
    with pytest.raises(ConfigError, match="catalog video 0"):
        Simulation(config, widest_class3_max(FIELD_MAX + 1))


@pytest.mark.parametrize("config", [
    SimConfig(horizon=2000.0),
    SimConfig(total_arrival_rate=4.0, horizon=1000.0),
])
def test_served_counters_equal_release_rows_per_link_kind(config):
    result = run(config)
    horizon, counters = config.horizon, result.counters
    released = {kind: 0 for kind in LINK_KINDS}
    drained = 0
    for link in result.ledgers:
        for row in link.rows:
            if row.op == "release":
                if row.time < horizon:
                    released[link.kind] += 1
                else:
                    drained += 1
    assert [counters.served_lps, counters.served_rps, counters.served_cms] == [
        released[kind] for kind in LINK_KINDS
    ]
    assert counters.drained == drained > 0
    assert min(released.values()) > 0


def test_demand_table_is_sum_of_proxy_counts():
    result = run(SMALL)
    proxies = result.world.proxies
    expected = [
        sum(proxy.local_counts[cell] for proxy in proxies)
        for cell in range(3 * SMALL.num_videos)
    ]
    assert result.world.demand == expected
    assert sum(result.world.demand) == result.counters.requested


def test_request_totals_count_the_arrivals_handled():
    # the tap counts what the loop handed to routing, apart from the
    # demand table the totals are summed from
    result, arrivals = with_arrivals(run, SMALL)
    counters = result.counters
    assert counters.requested == len(arrivals) > 0
    assert counters.requested_by_class == {
        c: sum(1 for *_, user_class in arrivals if user_class == c) for c in CLASSES
    }
    assert list(counters.requested_by_class) == list(CLASSES)
    assert min(counters.requested_by_class.values()) > 0


def test_different_seed_changes_run():
    _, arrivals_a = with_arrivals(run, SMALL)
    _, arrivals_b = with_arrivals(run, dataclasses.replace(SMALL, seed=10))
    assert arrivals_a != arrivals_b


def test_paired_runs_share_arrivals():
    with_psg, arrivals = with_arrivals(run, SMALL)
    without, without_arrivals = with_arrivals(baseline_no_psg, SMALL)
    assert without_arrivals == arrivals
    assert without.counters.served_lps == 0
    assert without.counters.served_rps == 0
    assert with_psg.counters.requested == without.counters.requested


def logged_run(monkeypatch, config, kinds, catalog=None):
    """Run ``config`` and return what the loop handled, each a (time, kind)
    in handling order; each pushed event's sequence number mapped to its
    (time, kind); and the arrivals' sequence numbers, in drawing order.

    ``kinds`` maps Simulation handler names to the kind they are logged as;
    other handlers are not logged, and their events have kind None.
    Arrivals are logged through ``vodsim.sim.handle_request``.  A logging
    wrapper on the simulation's ``seq`` records each number as it is drawn:
    the n-th number drawn is n, and a number no ``_push`` drew is an
    arrival's."""
    handled, drawn, pushed = [], [], {}  # pushed: seq -> (time, kind)
    logged_kinds = {}  # logged handler -> kind
    push, handle_request = Simulation._push, sim.handle_request

    def logged_push(self, time, handler, *fields):
        push(self, time, handler, *fields)
        pushed[drawn[-1]] = (time, logged_kinds.get(handler))

    def logged_request(world, time, *rest):
        handled.append((time, "arrival"))
        return handle_request(world, time, *rest)

    monkeypatch.setattr(Simulation, "_push", logged_push)
    monkeypatch.setattr(sim, "handle_request", logged_request)
    for name, kind in kinds.items():
        def logged(self, event, _handler=getattr(Simulation, name), _kind=kind):
            handled.append((self.now, _kind))
            return _handler(self, event)
        monkeypatch.setattr(Simulation, name, logged)
        logged_kinds[logged] = kind

    def logged_seq(numbers):
        for number in numbers:
            drawn.append(number)
            yield number

    simulation = Simulation(config, catalog)
    simulation.seq = logged_seq(simulation.seq)
    simulation.run()
    assert drawn == list(range(len(drawn)))
    arrivals = [number for number in drawn if number not in pushed]
    return handled, pushed, arrivals


@pytest.mark.parametrize("dt", [2.5, 10.0])
def test_pending_arrival_keeps_all_heap_order(dt, monkeypatch):
    # arrivals land exactly on sample and tour ticks; ties must go to the
    # earlier-scheduled event, as one heap of all events would order them
    real_draw = sim.draw_arrivals
    monkeypatch.setattr(
        sim, "draw_arrivals",
        lambda rng, config: ((dt,) + arrival[1:] for arrival in real_draw(rng, config)),
    )
    config = dataclasses.replace(SMALL, horizon=400.0)
    handled, pushed, arrivals = logged_run(
        monkeypatch, config,
        {"_on_completion": "completion", "_on_tour": "tour", "_on_sample": "sample"})
    # the k-th arrival drawn lands at (k + 1) * dt, exactly; the run draws
    # one past the horizon
    assert len(arrivals) == config.horizon / dt + 1
    scheduled = [(time, seq, kind) for seq, (time, kind) in pushed.items()]
    scheduled += [((k + 1) * dt, seq, "arrival") for k, seq in enumerate(arrivals)]
    expected = [(time, kind) for time, _seq, kind in sorted(scheduled) if time <= config.horizon]
    assert handled == expected
    ties = [
        (a, b) for a, b in zip(handled, handled[1:]) if a[0] == b[0] and "arrival" in (a[1], b[1])
    ]
    assert len(ties) >= 40  # an arrival lands on each of the 40 sample ticks


def test_completions_pushed_by_an_arrival_run_before_the_next_arrival(monkeypatch):
    # every request arrives 10 s after the last and every stream lasts
    # exactly 10 s, so each completion ties the arrival scheduled with it;
    # that arrival's sequence number is drawn after its completions are pushed
    real_draw = sim.draw_arrivals
    monkeypatch.setattr(
        sim, "draw_arrivals",
        lambda rng, config: ((10.0,) + arrival[1:] for arrival in real_draw(rng, config)),
    )
    config = dataclasses.replace(SMALL, horizon=400.0)
    handled, pushed, arrivals = logged_run(
        monkeypatch, config, {"_on_completion": "completion"},
        [VideoMeta(100, (10, 10, 10), (10, 10, 10))] * config.num_videos)
    ties = [(a[1], b[1]) for a, b in zip(handled, handled[1:]) if a[0] == b[0]]
    assert len(ties) >= 10
    assert set(ties) == {("completion", "arrival")}
    # each completion is pushed by the arrival 10 s before it, after that
    # arrival's number is drawn and before the next arrival's
    times = {number: (k + 1) * 10.0 for k, number in enumerate(arrivals)}
    completions = [(seq, time) for seq, (time, kind) in pushed.items() if kind == "completion"]
    assert len(completions) >= 10
    for seq, time in completions:
        before = max(number for number in arrivals if number < seq)
        after = min(number for number in arrivals if number > seq)
        assert (times[before], times[after]) == (time - 10.0, time)


def test_no_psg_never_touches_neighbor_links():
    result = baseline_no_psg(SMALL)
    for ledger in result.ledgers:
        if ledger.kind in (PS_LPS, PS_RPS):
            assert ledger.rows == ()


def test_reclaims_happen_under_pressure():
    config = dataclasses.replace(SMALL, total_arrival_rate=6.0, horizon=400.0)
    result = run(config)
    reclaim_rows = sum(
        1 for ledger in result.ledgers for row in ledger.rows if row.op == "reclaim"
    )
    assert reclaim_rows > 0
    assert result.counters.identity_holds()
    assert result.counters.max_byte_rel_error < 1e-9


def test_drain_accounts_for_live_streams():
    config = dataclasses.replace(SMALL, horizon=50.0)
    result = run(config)
    counters = result.counters
    assert counters.drained > 0
    at_horizon = sum(
        1 for ledger in result.ledgers for row in ledger.rows
        if row.op == "release" and row.time == config.horizon
    )
    assert at_horizon == counters.drained


def test_drain_closes_in_admission_order(monkeypatch):
    released = []  # (time, link, alloc_id) per release
    release = Link.release

    def logged_release(self, time, alloc):
        released.append((time, self, alloc.alloc_id))
        return release(self, time, alloc)

    monkeypatch.setattr(Link, "release", logged_release)
    config = dataclasses.replace(SMALL, horizon=50.0)
    result = run(config)
    drained = [(link, alloc_id) for time, link, alloc_id in released if time == config.horizon]
    assert len(drained) == result.counters.drained
    assert len({link for link, _ in drained}) > 1
    ids = [alloc_id for _, alloc_id in drained]
    assert ids == sorted(ids)


def test_allocation_ids_are_unique_across_the_ring():
    # the drain orders streams by id, so ids must not repeat across links
    result = run(SMALL)
    ids = sorted(alloc_id for link in result.ledgers
                 for _, op, alloc_id, *_ in LEDGER_RECORD.iter_unpack(link.ledger)
                 if op == ALLOCATE)
    assert sum(1 for link in result.ledgers if link.ledger) > 1
    assert ids == list(range(1, len(ids) + 1))


SHORT = dataclasses.replace(SimConfig(), horizon=200.0)  # tours at 100 and 200


def tamper_after_first_tour(monkeypatch, tamper):
    """Call ``tamper(links)`` once, right after the first agent tour, to
    change a link's tables or counters without a ledger record."""
    real_tour = sim.agent_tour
    tours = 0

    def tampering_tour(world):
        nonlocal tours
        real_tour(world)
        tours += 1
        if tours == 1:
            tamper(world.all_links())

    monkeypatch.setattr(sim, "agent_tour", tampering_tour)


def records(link):
    """(time, op code) of each of the link's ledger records."""
    return [(time, op) for time, op, *_ in LEDGER_RECORD.iter_unpack(link.ledger)]


def live_at(link, time):
    """How many of the link's streams are live at ``time``, by its ledger."""
    return sum((op == allocation.ALLOCATE) - (op == allocation.RELEASE)
               for at, op in records(link) if at <= time)


def raised_at_a_sample(raised):
    return any(entry.name == "_on_sample" for entry in raised.traceback)


def test_a_run_with_no_sample_tick_is_still_audited(monkeypatch):
    # a sample_period past the horizon is valid, and then no sample runs:
    # the audit before the drain is the only one
    config = dataclasses.replace(SHORT, sample_period=1000.0)

    def add_one(links):
        next(link for link in links if link.minimums).used += 1

    tamper_after_first_tour(monkeypatch, add_one)
    with pytest.raises(InvariantViolation, match="allocations sum to"):
        run(config)


@pytest.mark.parametrize("delta", [1, -1])
def test_a_tamper_on_a_changing_link_is_caught_at_a_sample(delta, monkeypatch):
    # the link with live streams that records most after the tour: its
    # ledger grows, so a later sample recounts it
    tour = SHORT.agent_period
    clean = run(SHORT).ledgers
    index = max((i for i, link in enumerate(clean) if live_at(link, tour)),
                key=lambda i: sum(time > tour for time, _ in records(clean[i])))

    def shift_excess(links):
        link = links[index]
        # a stream above its minimum, the only kind with an excess entry
        alloc = next(a for a in link.minimums if a in link.class_excess[a.user_class])
        link.class_excess[alloc.user_class][alloc] += delta

    tamper_after_first_tour(monkeypatch, shift_excess)
    with pytest.raises(InvariantViolation, match="allocations sum to") as raised:
        run(SHORT)
    assert raised_at_a_sample(raised)


@pytest.mark.parametrize("delta", [1, -1])
def test_a_tamper_on_a_quiet_link_is_caught_before_the_drain(delta, monkeypatch):
    # a link with live streams and no record from the last sample before
    # the tour to the drain: no sample after the tamper recounts it
    tour, horizon = SHORT.agent_period, SHORT.horizon
    clean = run(SHORT).ledgers
    index = next(i for i, link in enumerate(clean) if live_at(link, tour) and not any(
        tour - SHORT.sample_period < time < horizon for time, _ in records(link)))

    def shift_used(links):
        links[index].used += delta

    tamper_after_first_tour(monkeypatch, shift_used)
    with pytest.raises(InvariantViolation, match="allocations sum to") as raised:
        run(SHORT)
    assert not raised_at_a_sample(raised)


def test_a_link_run_over_capacity_is_caught_at_a_sample(monkeypatch):
    # a planner that leaves 1 MB/s of each shortfall uncovered: the admit
    # that follows fills its link to capacity + 1, which admit itself does
    # not check, and the next sample's audit finds it
    plan = Link.plan_reclaim

    def short_plan(self, user_class, shortfall):
        *victims, (last, take) = plan(self, user_class, shortfall)
        return [*victims, (last, take - 1)]

    monkeypatch.setattr(Link, "plan_reclaim", short_plan)
    config = dataclasses.replace(SimConfig(), total_arrival_rate=4.0, horizon=2000.0, seed=1)
    with pytest.raises(InvariantViolation, match="out of bounds") as raised:
        run(config)
    assert raised_at_a_sample(raised)


def test_a_misfiled_excess_entry_passes_the_audit_and_fails_the_replay(monkeypatch, tmp_path):
    # a class-1 stream's excess entry moved into class 2's table: used still
    # equals the sum of the tables, so every audit passes, but the stream now
    # reads at its minimum and releases at it, not at the rate its ledger
    # replays.  The ledger replay is this fault's judge, not the audit.
    misfiled = []

    def misfile(links):
        link = next(link for link in links if link.class_excess[1])
        alloc = next(iter(link.class_excess[1]))
        link.class_excess[2][alloc] = link.class_excess[1].pop(alloc)
        misfiled.append((alloc.alloc_id, link.label))

    tamper_after_first_tour(monkeypatch, misfile)
    result = run(SHORT)
    [(alloc_id, label)] = misfiled
    with pytest.raises(ValueError, match=f"bad 'release' of {alloc_id} on {label}"):
        Replay(result.ledgers, SHORT.horizon)
    emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "CHECK:conservation=PASS" in summary
    assert "CHECK:ledger_bounds=FAIL" in summary


def test_a_sample_recounts_exactly_the_links_whose_ledger_grew(monkeypatch):
    log = []  # each check_conservation call's link, between the markers below
    check, on_sample, drain = Link.check_conservation, Simulation._on_sample, Simulation._drain

    def counted_check(self):
        log.append(self)
        check(self)

    def marked_sample(self, event):
        log.append(("sample", [(link, len(link.ledger), bool(link.minimums))
                               for link in self.ledgers]))
        on_sample(self, event)
        log.append(("sampled",))

    def marked_drain(self):
        log.append(("drain",))
        drain(self)

    monkeypatch.setattr(Link, "check_conservation", counted_check)
    monkeypatch.setattr(Simulation, "_on_sample", marked_sample)
    monkeypatch.setattr(Simulation, "_drain", marked_drain)
    simulation = Simulation(SHORT)
    simulation.run()
    links = simulation.ledgers
    markers, audits = [("start",)], [[]]  # the links audited after each marker
    for entry in log:
        if isinstance(entry, Link):
            audits[-1].append(entry)
        else:
            markers.append(entry)
            audits.append([])
    assert [marker[0] for marker in markers[-2:]] == ["sampled", "drain"]
    # every link once after the loop, before the first release of the drain
    assert audits[-2] == links and audits[-1] == []
    last = dict.fromkeys(links, 0)  # each ledger's length at its last audit
    recounted = skipped_live = 0
    for marker, audited in zip(markers[:-2], audits[:-2]):
        if marker[0] != "sample":
            assert audited == []
            continue
        grew = [link for link, length, _ in marker[1] if length != last[link]]
        assert audited == grew
        last.update((link, length) for link, length, _ in marker[1])
        recounted += len(grew)
        skipped_live += sum(live for link, _, live in marker[1] if link not in grew)
    assert recounted > 0 and skipped_live > 0


def test_tours_run_on_schedule(monkeypatch):
    tours = []  # (time, requests counted so far) per tour
    real_tour = sim.agent_tour
    simulation = Simulation(SMALL)

    def recording_tour(world):
        tours.append((simulation.now, sum(world.demand)))
        real_tour(world)

    monkeypatch.setattr(sim, "agent_tour", recording_tour)
    result = simulation.run()
    assert [time for time, _ in tours] == [pytest.approx(100.0 * k) for k in range(1, 7)]
    totals = [total for _, total in tours]
    assert totals == sorted(totals)
    assert totals[-1] <= result.counters.requested


def test_samples_cover_run():
    result = run(SMALL)
    ticks = result.metrics.ticks
    assert len(ticks) == 60
    assert ticks[0] == pytest.approx(10.0)
    assert ticks[-1] == pytest.approx(600.0)
    walked = Replay(result.ledgers, SMALL.horizon, ticks)
    for kind in LINK_KINDS:
        assert len(walked.at_ticks[kind]) == 60


def live_snapshot(links):
    """Each link kind's state vector summed over the live links: used MB/s,
    then per class the live stream count and the rate, minimum-rate and
    maximum-rate sums.

    A reference read from the live links rather than the ledgers: the
    ledger walk's state at each tick must equal what this records there.
    """
    state = {kind: [0] * _STATE_LEN for kind in LINK_KINDS}
    for link in links:
        kind_state = state[link.kind]
        kind_state[0] += link.used
        for alloc, min_rate in link.minimums.items():
            c = alloc.user_class
            kind_state[_COUNT + c] += 1
            kind_state[_RATE + c] += link.rate(alloc)
            kind_state[_MIN + c] += min_rate
            kind_state[_MAX + c] += alloc.max_rate
    return state


@pytest.mark.parametrize("config", [
    SimConfig(horizon=2000.0),
    SimConfig(total_arrival_rate=4.0, horizon=1000.0),
])
def test_ledger_series_equal_live_aggregation(config, monkeypatch):
    times, live = [], {kind: [] for kind in LINK_KINDS}
    on_sample = Simulation._on_sample

    def sample_live(self, event):
        times.append(self.now)
        for kind, state in live_snapshot(self.world.all_links()).items():
            live[kind].append(state)
        on_sample(self, event)

    monkeypatch.setattr(Simulation, "_on_sample", sample_live)
    result = run(config)
    assert times == result.metrics.ticks and len(times) > 0
    walked = Replay(result.ledgers, config.horizon, result.metrics.ticks)
    assert walked.at_ticks == live
    assert any(state[_COUNT + c] for states in live.values() for state in states for c in CLASSES)


def test_second_run_raises_and_leaves_result_unchanged():
    # a second run would push a tour and a sample behind the clock, and the
    # ticks it added would no longer ascend
    config = SimConfig(horizon=300.0, seed=3)
    simulation = Simulation(config)
    result = simulation.run()
    ticks, counters = result.metrics.ticks[:], copy.deepcopy(result.counters)
    heap, draws, now = simulation.heap[:], simulation.workload_rng.getstate(), simulation.now
    with pytest.raises(RuntimeError, match="already called"):
        simulation.run()
    assert len(ticks) == 30
    assert result.metrics.ticks == ticks
    assert result.counters == counters
    # and it draws no request
    after = (simulation.heap, simulation.workload_rng.getstate(), simulation.now)
    assert after == (heap, draws, now)


@pytest.mark.parametrize("config", [
    SimConfig(total_arrival_rate=16.0, horizon=500.0),  # overload_x16, shortened
    SimConfig(num_proxies=3, num_videos=8, cache_capacity=4, total_arrival_rate=8.0,
              horizon=500.0),
], ids=["overload_x16", "crowded_ring"])
def test_cache_runs_over_capacity_only_when_every_entry_is_live(config, monkeypatch):
    # ProxyServer.stream_closed evicts the closing video whenever its cache
    # is over capacity; that is the LRU choice only if nothing else is idle
    real_insert, real_closed = ProxyServer.insert, ProxyServer.stream_closed
    over_capacity_closes = []

    def check(proxy):
        assert (len(proxy.cache) <= proxy.cache_capacity
                or all(proxy.cache.values())), proxy.proxy_id

    def insert(proxy, video_id):
        real_insert(proxy, video_id)
        check(proxy)

    def stream_closed(proxy, video_id):
        if len(proxy.cache) > proxy.cache_capacity:
            over_capacity_closes.append(video_id)
        real_closed(proxy, video_id)
        check(proxy)

    monkeypatch.setattr(ProxyServer, "insert", insert)
    monkeypatch.setattr(ProxyServer, "stream_closed", stream_closed)
    result = run(config)
    assert result.counters.identity_holds()
    assert over_capacity_closes
