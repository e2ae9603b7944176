"""Discrete-event simulation driving the ring, the agent and the metrics.

Events are keyed by (time, sequence number), the number drawn when the
event is scheduled, so ties break in scheduling order and every run is a
pure function of its seed and configuration.  Four event kinds exist:
request arrivals, stream completions, agent tours and metric samples.
Each event carries its handler: it is one flat tuple ``(time, seq,
handler, *fields)``, and the loop runs ``handler(sim, event)``.  A handler
is a plain ``Simulation`` function, never a bound method, so no event
refers back to its simulation.
A live stream is its link's ``Allocation``, whose rate lives only in the
link's tables.  Completions are cancelled lazily: a completion event
carries the excess (rate above minimum) it was scheduled at, and a popped
event whose class-table entry differs or is gone is stale and dropped.
A metric sample records its tick and audits every link's capacity
conservation; ``run`` replays no ledger, so the sampled series exist only
once ``metrics.emit_reports`` walks the ledgers at those ticks.

The one scheduled arrival (each arrival schedules the next) waits in the
``pending`` slot with the key it would have had in the binary heap that
holds every other event.  The loop takes the slot when its key is below
the heap's smallest and pops the heap otherwise; keys are unique, so
events are handled in exactly the order of one heap of all events.
An arrival is counted only in the demand table; ``run`` sums it at the end.

Arrivals come one at a time from ``draw_arrivals``, a generator over the
workload stream, which nothing else reads.  A run draws exactly one
request more than it handles: the one that lands past the horizon.

Stream progress is integrated exactly: the link banks a stream's bytes
wherever its rate changes (at each reclaim, at the old rate, and at
release), so the sum of per-stream bytes matches an independent replay
of the link ledgers.  A ledger is packed bytes, one record per mutation;
``SimResult.ledger_digest`` hashes them on demand and pins exact event
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
from dataclasses import dataclass, field
from math import log

from .agent import agent_tour
from .allocation import FIELD_MAX, Allocation, Link, LinkKind
from .config import ConfigError, SimConfig
from .metrics import Counters, MetricsBundle
from .model import CLASSES, UserClass, VideoMeta, build_catalog, cell_index, draw_spec, tier_ranges
from .topology import (
    LOCAL,
    REJECTED,
    World,
    build_world,
    handle_request,
    seed_initial_placement,
)

CLASS1, CLASS2, CLASS3 = UserClass
PS_LPS, PS_RPS = LinkKind.PS_LPS, LinkKind.PS_RPS


def draw_arrivals(
    rng: random.Random, config: SimConfig
) -> Iterator[tuple[float, int, int, UserClass]]:
    """Yield requests one at a time, each (interarrival, proxy, video, class).

    A generator: each ``next()`` draws one request, and the config check
    below runs at the first.

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
    # Simulation validates the whole config once; an empty proxy or tier
    # range would make a redraw loop below spin forever, so it is refused here
    if config.num_proxies < 3 or config.num_videos < 4:
        raise ConfigError(f"cannot draw requests for {config.num_proxies} proxies and "
                          f"{config.num_videos} videos: need at least 3 proxies and 4 videos")
    random_, getrandbits = rng.random, rng.getrandbits
    rate = config.total_arrival_rate
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
        user_class = CLASS1 if draw < class1 else CLASS2 if draw < class1_or_2 else CLASS3
        yield dt, proxy_id, first + video_id, user_class


@dataclass
class SimResult:
    """Everything a finished run leaves behind."""

    config: SimConfig
    counters: Counters
    metrics: MetricsBundle  # the sample ticks
    ledgers: list[Link]  # every link, in world.all_links() order
    world: World | None = field(repr=False, default=None)

    def ledger_digest(self) -> str:
        """SHA-256 over every ledger's bytes, in link order, each preceded by
        its length as 8 little-endian bytes, so no record can shift from
        one link to the next unnoticed."""
        digest = hashlib.sha256()
        for link in self.ledgers:
            digest.update(len(link.ledger).to_bytes(8, "little"))
            digest.update(link.ledger)
        return digest.hexdigest()


class Simulation:
    """One configured run.  Build it, call run() once, read the result."""

    def __init__(self, config: SimConfig, catalog: list[VideoMeta] | None = None):
        config.validate()
        if catalog is not None:
            _check_catalog(catalog, config.num_videos)
        self.config = config
        root = random.Random(config.seed)
        catalog_rng = random.Random(root.getrandbits(64))
        placement_rng = random.Random(root.getrandbits(64))
        self.workload_rng = random.Random(root.getrandbits(64))
        self.catalog = catalog or build_catalog(
            config.num_videos, config.video_size_min, config.video_size_max, catalog_rng,
        )
        self.world = build_world(
            config.num_proxies, config.num_videos, config.cache_capacity,
            config.link_capacity,
        )
        seed_initial_placement(self.world, placement_rng)
        self.links = self.world.all_links()
        self.now = 0.0
        self.heap: list[tuple] = []  # every event but the pending arrival
        self.pending: tuple | None = None
        self.requests = draw_arrivals(self.workload_rng, config)
        self.seq = itertools.count()
        self.counters = Counters()
        self.metrics = MetricsBundle()

    def _push(self, time: float, handler, *fields) -> None:
        heapq.heappush(self.heap, (time, next(self.seq), handler, *fields))

    def _schedule_arrival(self) -> None:
        dt, proxy_id, video_id, user_class = next(self.requests)
        self.pending = (self.now + dt, next(self.seq), Simulation._on_arrival,
                        proxy_id, video_id, user_class)

    def _push_completion(self, alloc: Allocation, link: Link, proxy_id: int) -> None:
        size_mb = self.catalog[alloc.video_id].size_mb
        excess = link.class_excess[alloc.user_class][alloc]
        rate = link.minimums[alloc] + excess
        self._push(self.now + (size_mb - alloc.sent) / rate, Simulation._on_completion,
                   alloc, link, proxy_id, excess)

    def run(self) -> SimResult:
        # pending holds an arrival from the first run on; a second run would
        # push a tour and a sample behind the clock
        if self.pending is not None:
            raise RuntimeError("Simulation.run() was already called; build a new Simulation")
        self._schedule_arrival()
        self._push(self.config.agent_period, Simulation._on_tour)
        self._push(self.config.sample_period, Simulation._on_sample)
        horizon = self.config.horizon
        heap = self.heap
        while True:
            # the heap always holds the next tour and the next sample
            event = self.pending if self.pending < heap[0] else heapq.heappop(heap)
            if event[0] > horizon:
                break
            self.now = event[0]
            event[2](self, event)
        self.now = horizon
        # the events past the horizon never run, and their completion
        # fields would keep the drained allocations alive through reporting
        heap.clear()
        self._drain()
        demand = self.world.demand
        self.counters.requested = sum(demand)
        self.counters.requested_by_class = {c: sum(demand[cell_index(0, c)::3]) for c in CLASSES}
        return SimResult(
            config=self.config,
            counters=self.counters,
            metrics=self.metrics,
            ledgers=self.links,
            world=self.world,
        )

    def _on_arrival(self, event: tuple) -> None:
        _, _, _, proxy_id, video_id, user_class = event
        decision = handle_request(
            self.world, self.now, proxy_id, video_id, user_class,
            self.catalog, self.config.psg_enabled,
        )
        if decision.source is LOCAL:
            self.counters.local_hits += 1
        elif decision.source is REJECTED:
            self.counters.rejected += 1
        else:
            # a link belongs to one proxy, so its victims stream to this proxy too
            link = decision.link
            for victim, _take in decision.victims:
                self._push_completion(victim, link, proxy_id)
            self._push_completion(decision.allocation, link, proxy_id)
        self._schedule_arrival()

    def _on_completion(self, event: tuple) -> None:
        _, _, _, alloc, link, proxy_id, excess = event
        # Every reclaim lowers the excess (a take is always positive) and
        # nothing raises it, so an event scheduled before a cut never
        # carries the current excess, and after a release there is no entry.
        if link.class_excess[alloc.user_class].get(alloc) != excess:
            return
        self._close(alloc, link, proxy_id)
        counters = self.counters
        kind = link.kind
        if kind is PS_LPS:
            counters.served_lps += 1
        elif kind is PS_RPS:
            counters.served_rps += 1
        else:
            counters.served_cms += 1
        counters.bytes_completed += alloc.sent
        size_mb = self.catalog[alloc.video_id].size_mb
        rel_error = abs(alloc.sent - size_mb) / size_mb
        if rel_error > counters.max_byte_rel_error:
            counters.max_byte_rel_error = rel_error

    def _close(self, alloc: Allocation, link: Link, proxy_id: int) -> None:
        link.release(self.now, alloc)
        self.world.proxies[proxy_id].stream_closed(alloc.video_id)

    def _on_tour(self, event: tuple) -> None:
        agent_tour(self.now, self.world)
        self._push(self.now + self.config.agent_period, Simulation._on_tour)

    def _on_sample(self, event: tuple) -> None:
        self.metrics.take_snapshot(self.now)
        for link in self.links:
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


def run(config: SimConfig, catalog: list[VideoMeta] | None = None) -> SimResult:
    return Simulation(config, catalog).run()


def baseline_no_psg(config: SimConfig) -> SimResult:
    """Same seed and workload, but every cache miss goes to the central
    server."""
    return run(dataclasses.replace(config, psg_enabled=False))
