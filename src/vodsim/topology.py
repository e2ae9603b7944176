"""Proxy ring topology, request routing and proxy cache management.

Proxies sit on a ring; each proxy owns three inbound links it serves
streams over: from its left neighbor, from its right neighbor, and from
the central server.  A request lands at a proxy and is served locally when
the video is cached there.  On a miss the router reads the two neighbors'
caches and tries at most one neighbor link: the one neighbor holding the
video, or, when both do, the one whose link has strictly more free
bandwidth (ties go right).  If that link rejects, or no neighbor holds the
video, the central server is the only other source.

Caches are LRU, kept in recency order, and a video with a live inbound
stream is never evicted.  A cache maps each video to its live flag: true
while its inbound stream is open, false when idle.  A cached video is
always a local hit, so a proxy holds at most one live stream per video:
``insert`` caches a video and marks it live in one step.  At capacity
``insert`` evicts the least recently used idle entry; when every cached
video is live the cache grows past capacity instead.  ``stream_closed``
evicts a video whose stream closes while the cache is over capacity, so
an over-capacity cache holds only live entries, and only ``insert`` into
a cache exactly at capacity scans for an idle one.

The roving profile agent turns merged demand into the global video
weights.  Every request is counted in the world's one demand table as
well as at its proxy, and its cell is marked dirty.  A tour is
instantaneous: it copies only the dirty cells into the one weight table
every proxy holds, where it orders reclaim victims; no other count
changed since its cell was last written, so after a tour every cell
equals its request count.  The popularity tiers are fixed id ranges.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum

from .allocation import LINK_KINDS, Link
from .model import VideoMeta, tier_ranges


class RouteSource(Enum):
    """Where a request ends up being served from."""

    LOCAL = "local"
    REMOTE = "remote"  # streamed over the decision's link
    REJECTED = "rejected"


# Read through the class, an Enum member costs ~0.1 us on Python 3.11.
LOCAL, REMOTE, REJECTED = RouteSource


@dataclass(slots=True)
class RouteDecision:
    """Outcome of one request at one proxy."""

    source: RouteSource
    allocation: object = None
    link: Link | None = None


# Shared by every local hit and every rejection; never mutated.
LOCAL_HIT = RouteDecision(LOCAL)
REJECTION = RouteDecision(REJECTED)


class ProxyServer:
    """One ring node: an LRU cache plus three inbound links it streams over."""

    def __init__(self, proxy_id: int, cache_capacity: int, link_capacity: int,
                 num_videos: int, id_source):
        self.proxy_id = proxy_id
        self.cache_capacity = cache_capacity
        self.cache: dict[int, bool] = {}  # live flags, least recently used first
        self.local_counts = [0] * (3 * num_videos)  # by cell_index
        label = f"p{proxy_id}"
        self.links: dict[str, Link] = {
            kind: Link(kind, link_capacity, f"{label}-{kind}", id_source)
            for kind in LINK_KINDS
        }

    def stream_closed(self, video_id: int) -> None:
        """End the live stream of a video; over capacity, evict the video."""
        if not self.cache.get(video_id):
            raise ValueError(f"proxy {self.proxy_id}: no live stream for video {video_id}")
        if len(self.cache) > self.cache_capacity:
            del self.cache[video_id]  # the only idle entry
        else:
            self.cache[video_id] = False

    def insert(self, video_id: int) -> None:
        """Cache an uncached video and mark it live: its stream is opening.

        At capacity the least recently used idle entry goes: the one with
        the smallest (last use, id), as placed entries share time 0 in
        ascending id order and every later use is at a later arrival.
        When every cached video is live the cache grows past capacity.
        """
        cache = self.cache
        if video_id in cache:
            raise ValueError(f"proxy {self.proxy_id}: video {video_id} is already cached")
        if len(cache) == self.cache_capacity:
            for victim, live in cache.items():
                if not live:
                    del cache[victim]
                    break
        cache[video_id] = True


class World:
    """The proxy ring, which builds its own proxies and links; the central
    server is each proxy's ``PS_CMS`` link.  Every link of the ring shares
    one allocation id counter, so ids are unique across the ring.

    The ring's ``catalog`` and its sharing switch ``psg_enabled`` are fixed;
    ``weights`` is the one weight table the agent rewrites and admission
    reads, and ``dirty`` holds the cells requested since the last tour.
    """

    def __init__(self, num_proxies: int, catalog: list[VideoMeta], cache_capacity: int,
                 link_capacity: int, psg_enabled: bool):
        id_source = itertools.count(1)
        num_videos = len(catalog)
        self.proxies = [ProxyServer(pid, cache_capacity, link_capacity, num_videos, id_source)
                        for pid in range(num_proxies)]
        self.catalog = catalog
        self.psg_enabled = psg_enabled
        self.demand = [0] * (3 * num_videos)  # sum of all local_counts
        self.weights = [0] * (3 * num_videos)
        self.dirty: set[int] = set()

    def all_links(self) -> list[Link]:
        return [link for proxy in self.proxies for link in proxy.links.values()]


def agent_tour(world: World) -> None:
    """Run one full tour: copy the counts of the cells requested since the last one."""
    counts, weights = world.demand, world.weights
    for cell in world.dirty:
        weights[cell] = counts[cell]
    world.dirty.clear()


def handle_request(
    world: World,
    time: float,
    proxy_id: int,
    video_id: int,
    user_class: int,
) -> RouteDecision:
    """Process one arrival end to end at its landing proxy.

    The proxy, video and class are checked before any counter moves.  The
    request is then counted, at the proxy and in ``world.demand`` (weights
    must include it), and its cell is marked for the next tour.  It is
    served from the local cache when present.  A miss is routed as the
    module docstring says (with sharing off, straight to the central
    link) and weighed by the larger of the agent's last table and this
    proxy's own count, since the table can lag local traffic.  An
    admitted video is cached here and marked live.  The class is the int
    1, 2 or 3.
    """
    proxies, catalog = world.proxies, world.catalog
    if not (0 <= proxy_id < len(proxies) and 0 <= video_id < len(catalog)
            and 1 <= user_class <= 3):
        raise ValueError(f"unknown request: proxy {proxy_id}, video {video_id}, "
                         f"class {user_class}")
    cell = 3 * video_id + user_class - 1  # cell_index, inline
    proxy = proxies[proxy_id]
    local_counts = proxy.local_counts
    local_counts[cell] += 1
    world.demand[cell] += 1
    world.dirty.add(cell)
    cache = proxy.cache
    if video_id in cache:
        cache[video_id] = cache.pop(video_id)  # to the most recently used end
        return LOCAL_HIT
    weight = world.weights[cell]
    if local_counts[cell] > weight:
        weight = local_counts[cell]
    video = catalog[video_id]
    min_rate, max_rate = video.min_bw[user_class - 1], video.max_bw[user_class - 1]
    # proxy.links is built in LINK_KINDS order: PS_LPS, PS_RPS, PS_CMS
    lps_link, rps_link, cms_link = proxy.links.values()
    if world.psg_enabled:
        at_lps = video_id in proxies[proxy_id - 1].cache  # proxy 0's left is the last
        at_rps = video_id in proxies[(proxy_id + 1) % len(proxies)].cache
        if at_lps and at_rps:
            at_lps = lps_link.capacity - lps_link.used > rps_link.capacity - rps_link.used
        if at_lps or at_rps:
            link = lps_link if at_lps else rps_link
            alloc = link.admit(time, video_id, user_class, min_rate, max_rate, weight)
            if alloc is not None:
                proxy.insert(video_id)
                return RouteDecision(REMOTE, alloc, link)
    alloc = cms_link.admit(time, video_id, user_class, min_rate, max_rate, weight)
    if alloc is None:
        return REJECTION
    proxy.insert(video_id)
    return RouteDecision(REMOTE, alloc, cms_link)


def shuffle(pool: list, rng: random.Random) -> None:
    """``rng.shuffle(pool)``, call for call: from the last position down to
    1, swap position ``i`` with one drawn below ``i + 1`` under
    ``model.draw_spec``'s contract.  Written out, it makes no call per
    element, and placement does not rest on CPython's ``shuffle``."""
    getrandbits = rng.getrandbits
    for i in range(len(pool) - 1, 0, -1):
        bits = (i + 1).bit_length()
        while (j := getrandbits(bits)) > i: pass
        pool[i], pool[j] = pool[j], pool[i]


def seed_initial_placement(world: World, rng: random.Random) -> None:
    """Deal videos across proxy caches before the run starts.

    Each proxy gets a quarter of its cache from each of the two popular
    tiers and the remainder from the least popular tier: the sizes
    ``tier_ranges`` gives for the cache capacity.  Each tier's ids are
    put through ``shuffle`` once and dealt round-robin so replicas spread
    as evenly as the counts allow; a proxy marks its deal in a mask over
    the ids, so its cache is stored in ascending id order with no sort.

    Proxy ``k`` takes the ``quota`` entries of the cyclic pool that start
    at ``k * quota``.  They are always distinct and new to its cache:
    tiers are disjoint id ranges, so no tier deals an id another tier
    already dealt, and a quota is at most its tier's size, so no slice
    wraps onto its own start.  ``SimConfig.validate()`` ensures that for
    every run; a direct caller with a larger quota gets ``ValueError``.
    """
    capacity, num_videos = world.proxies[0].cache_capacity, len(world.catalog)
    masks = [bytearray(num_videos) for _ in world.proxies]
    for (first, size), (_, per_proxy) in zip(tier_ranges(num_videos), tier_ranges(capacity)):
        pool = list(range(first, first + size))
        shuffle(pool, rng)
        if per_proxy > size:
            raise ValueError(f"cache quota {per_proxy} exceeds tier size {size}")
        ring = pool + pool
        for k, mask in enumerate(masks):
            start = k * per_proxy % size
            for video_id in ring[start:start + per_proxy]:
                mask[video_id] = 1
    video_ids = list(range(num_videos))  # a range would make each int anew per proxy
    for proxy, mask in zip(world.proxies, masks):
        proxy.cache = dict.fromkeys(itertools.compress(video_ids, mask), False)
