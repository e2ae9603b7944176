"""Discrete-event simulation driving the ring, the agent and the metrics.

Events are keyed by (time, sequence number), the number drawn when the
event is scheduled, so ties break in scheduling order and every run is a
pure function of its seed and configuration.  Four event kinds exist:
request arrivals, stream completions, agent tours and metric samples.
Each heap event carries its handler: it is one flat tuple ``(time, seq,
handler, *fields)``, and the loop runs ``handler(sim, event)``.  A handler
is a plain ``Simulation`` function, never a bound method, so no event
refers back to its simulation.
A live stream is its link's ``Allocation``, whose rate only ``Link.rate``
reads; its one completion event carries the rate it was timed at.  A cut
(a reclaim) only lowers a rate and schedules nothing: a popped event at a
stale rate is rescheduled from the bytes banked at the cut.
A metric sample records its tick and audits each link whose ledger grew
past its ``Link.audited`` mark (every change appends a record); every
link is audited once before the drain.  ``run`` replays no ledger: the
sampled series exist only once ``metrics.emit_reports`` walks them.

The one scheduled arrival (each arrival schedules the next) is not on the
binary heap that holds every other event: ``run`` keeps its key and request
in locals and handles it in place while its key is below the heap's
smallest.  Keys are unique, so events run in exactly the order of one heap
of all events.  An arrival draws the next only after pushing its
completion, as a handler would.  Local hits and rejections are counted in
locals; requests only in the demand table, which ``run`` sums at the end.

Arrivals come one at a time from ``draw_arrivals``, a generator over the
workload stream, which nothing else reads.  A run draws exactly one
request more than it handles: the one that lands past the horizon.

Stream progress is integrated exactly: the link banks a stream's bytes
wherever its rate changes (at each reclaim, at the old rate, and at
release), so the sum of per-stream bytes matches an independent replay
of the link ledgers.  A ledger is packed bytes, one record per mutation;
``Simulation.ledger_digest`` hashes them on demand and pins exact event
times that the six-decimal reports round away.
A caller's catalog is checked up front: sizes and rate windows must be
positive integers, or bytes and link capacity would not add up exactly,
and no rate may exceed what a ledger record holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import random
from collections.abc import Iterator, Sequence
from math import log

from .allocation import FIELD_MAX, PS_LPS, PS_RPS, Allocation, Link
from .config import ConfigError, SimConfig
from .metrics import Counters, MetricsBundle
from .model import CLASSES, VideoMeta, build_catalog, cell_index, draw_spec, tier_ranges
from .topology import (LOCAL, REJECTED, World, agent_tour, handle_request,
                       seed_initial_placement)


def draw_arrivals(
    rng: random.Random, config: SimConfig
) -> Iterator[tuple[float, int, int, int]]:
    """Yield requests one at a time, each (interarrival, proxy, video, class).

    A generator: each ``next()`` draws one request, and the first runs
    ``config.validate()``.  The class is the int 1, 2 or 3.

    Videos are drawn tier-first against the configured popularity mix,
    then uniformly inside the tier.  The tiers are the static id ranges of
    ``tier_ranges``, which placement also deals from, so the offered
    workload does not drift mid-run.

    Per request this makes the calls ``rng.expovariate(rate)``,
    ``rng.randrange(num_proxies)``, ``rng.random()``,
    ``rng.randrange(tier size)`` and ``rng.random()`` make, in that order,
    written out as CPython writes them: ``-log(1.0 - random()) / rate``,
    and each ``randrange`` under ``model.draw_spec``'s contract.
    """
    config.validate()  # else an empty range would make a redraw loop below spin forever
    rate = config.total_arrival_rate
    random_, getrandbits = rng.random, rng.getrandbits
    # (first id, size, bits per draw) of the proxy ids and of each tier
    [(_, num_proxies, proxy_bits)] = draw_spec([(0, config.num_proxies)])
    most_tier, secondary_tier, least_tier = draw_spec(tier_ranges(config.num_videos))
    most, secondary, _least = config.tier_mix
    most_or_secondary = most + secondary
    class1, class2, _class3 = config.class_mix
    class1_or_2 = class1 + class2
    while True:
        dt = -log(1.0 - random_()) / rate
        proxy_id = getrandbits(proxy_bits)
        while proxy_id >= num_proxies:
            proxy_id = getrandbits(proxy_bits)
        draw = random_()
        first, size, bits = (most_tier if draw < most else
                             secondary_tier if draw < most_or_secondary else least_tier)
        video_id = getrandbits(bits)
        while video_id >= size:
            video_id = getrandbits(bits)
        draw = random_()
        user_class = 1 if draw < class1 else 2 if draw < class1_or_2 else 3
        yield dt, proxy_id, first + video_id, user_class


class Simulation:
    """One configured run.  Build it and call run() once; run() returns the
    finished simulation, whose ``config``, ``counters``, ``metrics`` (the sample
    ticks), ``ledgers`` (every link, in ``world.all_links()`` order) and
    ``world`` are the result."""

    def __init__(self, config: SimConfig, catalog: list[VideoMeta] | None = None):
        config.validate()
        if catalog is not None:
            _check_catalog(catalog, config.num_videos)
        self.config = config
        root = random.Random(config.seed)
        catalog_rng = random.Random(root.getrandbits(64))
        placement_rng = random.Random(root.getrandbits(64))
        self.workload_rng = random.Random(root.getrandbits(64))
        catalog = catalog or build_catalog(
            config.num_videos, config.video_size_min, config.video_size_max, catalog_rng,
        )
        self.world = World(
            config.num_proxies, catalog, config.cache_capacity, config.link_capacity,
            config.psg_enabled,
        )
        seed_initial_placement(self.world, placement_rng)
        self.ledgers = self.world.all_links()
        self.now = 0.0
        self.heap: list[tuple] = []  # every event but the next arrival
        self.requests = draw_arrivals(self.workload_rng, config)
        self.seq = itertools.count()
        self.counters = Counters()
        self.metrics = MetricsBundle()

    def _push(self, time: float, handler, *fields) -> None:
        heapq.heappush(self.heap, (time, next(self.seq), handler, *fields))

    def _push_completion(self, alloc: Allocation, link: Link, proxy_id: int) -> None:
        size_mb = self.world.catalog[alloc.video_id].size_mb
        rate = link.rate(alloc)
        self._push(alloc.since + (size_mb - alloc.sent) / rate, Simulation._on_completion,
                   alloc, link, proxy_id, rate)

    def ledger_digest(self) -> str:
        """SHA-256 over every ledger's bytes, in link order, each preceded by
        its length as 8 little-endian bytes, so no record can shift from
        one link to the next unnoticed."""
        digest = hashlib.sha256()
        for link in self.ledgers:
            digest.update(len(link.ledger).to_bytes(8, "little"))
            digest.update(link.ledger)
        return digest.hexdigest()

    def run(self) -> Simulation:
        # the clock and the heap are both empty only before the first run; a
        # second run would push a tour and a sample behind the clock
        if self.now or self.heap:
            raise RuntimeError("Simulation.run() was already called; build a new Simulation")
        config, world, heap = self.config, self.world, self.heap
        horizon, requests, seq = config.horizon, self.requests, self.seq
        dt, proxy_id, video_id, user_class = next(requests)
        at, at_seq = self.now + dt, next(seq)  # the next arrival's key
        self._push(config.agent_period, Simulation._on_tour)
        self._push(config.sample_period, Simulation._on_sample)
        local_hits = rejected = 0
        while True:
            # the heap always holds the next tour and the next sample
            top = heap[0]
            if at < top[0] or at == top[0] and at_seq < top[1]:
                if at > horizon:
                    break
                decision = handle_request(world, at, proxy_id, video_id, user_class)
                source = decision.source
                if source is LOCAL:
                    local_hits += 1
                elif source is REJECTED:
                    rejected += 1
                else:
                    self._push_completion(decision.allocation, decision.link, proxy_id)
                dt, proxy_id, video_id, user_class = next(requests)
                at, at_seq = at + dt, next(seq)
            else:
                if top[0] > horizon:
                    break
                heapq.heappop(heap)
                self.now = top[0]
                top[2](self, top)
        self.counters.local_hits += local_hits
        self.counters.rejected += rejected
        self.now = horizon
        # the events past the horizon never run, and the returned simulation
        # holds the heap: their completions would keep drained streams alive
        heap.clear()
        for link in self.ledgers:
            link.check_conservation()
        self._drain()
        demand = self.world.demand
        self.counters.requested = sum(demand)
        self.counters.requested_by_class = {c: sum(demand[cell_index(0, c)::3]) for c in CLASSES}
        return self

    def _on_completion(self, event: tuple) -> None:
        _, _, _, alloc, link, proxy_id, rate = event
        # Every reclaim lowers the rate (a take is always positive) and
        # nothing raises it, so an event timed before a cut never carries
        # the current rate.  Only this event closes its stream: it is live.
        if link.rate(alloc) != rate:
            self._push_completion(alloc, link, proxy_id)
            return
        self._close(alloc, link, proxy_id)
        counters = self.counters
        kind = link.kind
        if kind == PS_LPS:
            counters.served_lps += 1
        elif kind == PS_RPS:
            counters.served_rps += 1
        else:
            counters.served_cms += 1
        counters.bytes_completed += alloc.sent
        size_mb = self.world.catalog[alloc.video_id].size_mb
        rel_error = abs(alloc.sent - size_mb) / size_mb
        if rel_error > counters.max_byte_rel_error:
            counters.max_byte_rel_error = rel_error

    def _close(self, alloc: Allocation, link: Link, proxy_id: int) -> None:
        link.release(self.now, alloc)
        self.world.proxies[proxy_id].stream_closed(alloc.video_id)

    def _on_tour(self, event: tuple) -> None:
        agent_tour(self.world)
        self._push(self.now + self.config.agent_period, Simulation._on_tour)

    def _on_sample(self, event: tuple) -> None:
        self.metrics.take_snapshot(self.now)
        for link in self.ledgers:
            if len(link.ledger) != link.audited:
                link.check_conservation()
        self._push(self.now + self.config.sample_period, Simulation._on_sample)

    def _drain(self) -> None:
        """Close out streams still live at the horizon, in admission order
        (ascending allocation id) across all links, which fixes the order of
        the ``bytes_drained`` float sum and of the release records."""
        counters = self.counters
        live = sorted(
            ((alloc, link, proxy.proxy_id) for proxy in self.world.proxies
             for link in proxy.links.values() for alloc in link.minimums),
            key=lambda entry: entry[0].alloc_id,
        )
        for alloc, link, proxy_id in live:
            self._close(alloc, link, proxy_id)
            counters.drained += 1
            counters.bytes_drained += alloc.sent


def _check_catalog(catalog: list[VideoMeta], num_videos: int) -> None:
    """Raise ConfigError unless ``catalog`` holds ``num_videos`` entries, each
    a ``VideoMeta`` of a positive int size and two rate windows that are
    sequences of three ints with ``0 < min <= max <= FIELD_MAX``."""
    if len(catalog) != num_videos:
        raise ConfigError(f"catalog has {len(catalog)} videos but num_videos is {num_videos}")
    for video_id, video in enumerate(catalog):
        if not (isinstance(video, VideoMeta)
                and type(video.size_mb) is int and video.size_mb > 0
                and all(isinstance(window, Sequence) and len(window) == 3
                        and all(type(rate) is int for rate in window)
                        for window in (video.min_bw, video.max_bw))
                and all(0 < lo <= hi <= FIELD_MAX for lo, hi in zip(video.min_bw, video.max_bw))):
            raise ConfigError(f"catalog video {video_id}: {video!r} is not a VideoMeta of a "
                              f"positive int size and three int rate windows with "
                              f"0 < min <= max <= {FIELD_MAX}")


def run(config: SimConfig, catalog: list[VideoMeta] | None = None) -> Simulation:
    return Simulation(config, catalog).run()


def baseline_no_psg(config: SimConfig) -> Simulation:
    """Same seed and workload, but every cache miss goes to the central
    server."""
    return run(dataclasses.replace(config, psg_enabled=False))
