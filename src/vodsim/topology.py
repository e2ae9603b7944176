"""Proxy ring topology, request routing and proxy cache management.

Proxies sit on a ring; each proxy owns three inbound links it serves
streams over: from its left neighbor, from its right neighbor, and from
the central server.  A request lands at a proxy and is served locally when
the video is cached there.  On a miss the router reads the two neighbors'
caches and tries at most one neighbor link: the one neighbor holding the
video, or, when both do, the one whose link has strictly more free
bandwidth (ties go right).  If that link rejects, or no neighbor holds the
video, the central server is the only other source.

Caches are LRU, kept in recency order, but a video with a live inbound
stream is never evicted; when everything cached is live the cache may
temporarily exceed its capacity and is reconciled as streams complete.
Every live video is cached (``stream_opened`` enforces it), so a cache
holds ``len(cache) - len(live_videos)`` idle entries and an LRU lookup
with none returns at once.  When a close leaves its video the only idle
entry of an over-capacity cache, that video is the least recently used
idle entry and is evicted directly; any other close falls back to
``reconcile_cache``.  In a run an over-capacity cache has no idle entry
between requests, so every close that idles its video there takes the
direct path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum

from .allocation import Link, LinkKind
from .model import UserClass, VideoMeta, cell_index, tier_ranges


class RouteSource(Enum):
    """Where a request ends up being served from."""

    LOCAL = "local"
    LPS = "lps"
    RPS = "rps"
    CMS = "cms"
    REJECTED = "rejected"


# Read through the class, an Enum member costs ~0.1 us on Python 3.11.
LOCAL, LPS, RPS, CMS, REJECTED = RouteSource


@dataclass(slots=True)
class RouteDecision:
    """Outcome of one request at one proxy."""

    source: RouteSource
    allocation: object = None
    link: Link | None = None
    victims: list[tuple[int, int]] | None = None  # (alloc_id, take) reclaimed


# Shared by every local hit and every rejection; never mutated.
LOCAL_HIT = RouteDecision(LOCAL)
REJECTION = RouteDecision(REJECTED)


class ProxyServer:
    """One ring node: an LRU cache plus three inbound links it streams over."""

    def __init__(self, proxy_id: int, cache_capacity: int, link_capacity: int,
                 num_videos: int, global_weights: list[int], id_source=None):
        self.proxy_id = proxy_id
        self.cache_capacity = cache_capacity
        self.cache: dict[int, None] = {}  # least recently used first
        self.live_videos: dict[int, int] = {}
        self.local_counts = [0] * (3 * num_videos)  # by cell_index
        self.global_weights = global_weights  # the world's one table
        label = f"p{proxy_id}"
        self.links: dict[LinkKind, Link] = {
            kind: Link(kind, link_capacity, f"{label}-{kind.value}", id_source)
            for kind in LinkKind
        }

    def touch(self, video_id: int) -> None:
        """Move a cached video to the most recently used end."""
        del self.cache[video_id]
        self.cache[video_id] = None

    def weight_of(self, video_id: int, user_class: UserClass, profits) -> int:
        """Demand weight as this proxy sees it right now.

        The agent's last global table can lag local traffic, so take the
        larger of the global weight and the locally counted one.  The caller
        checks the video and the class.
        """
        cell = cell_index(video_id, user_class)
        local = self.local_counts[cell] * profits[user_class - 1]
        return max(self.global_weights[cell], local)

    def stream_opened(self, video_id: int) -> None:
        if video_id not in self.cache:
            raise ValueError(f"proxy {self.proxy_id}: stream opened for uncached video {video_id}")
        self.live_videos[video_id] = self.live_videos.get(video_id, 0) + 1

    def stream_closed(self, video_id: int) -> None:
        left = self.live_videos.get(video_id, 0) - 1
        if left < 0:
            raise ValueError(f"proxy {self.proxy_id}: no live stream for video {video_id}")
        if left:
            self.live_videos[video_id] = left
        else:
            del self.live_videos[video_id]
            if (len(self.cache) > self.cache_capacity
                    and len(self.cache) - len(self.live_videos) == 1):
                del self.cache[video_id]  # the only idle entry
                return
        self.reconcile_cache()

    def _idle_lru(self) -> int | None:
        """Least recently used cached video with no live inbound stream.

        This is the idle entry with the smallest (last use, id): placed
        entries all share time 0 and are stored in ascending id order, and
        every later use happens at a strictly later arrival time.
        """
        if len(self.cache) == len(self.live_videos):
            return None  # every cached video is live
        for video_id in self.cache:
            if video_id not in self.live_videos:
                return video_id
        return None

    def insert(self, video_id: int) -> None:
        """Cache a video, evicting at most one idle entry to make room.

        When every cached video is live the cache is allowed to run over
        capacity; reconcile_cache() trims it back once streams finish.
        """
        if video_id in self.cache:
            self.touch(video_id)
            return
        if len(self.cache) >= self.cache_capacity:
            victim = self._idle_lru()
            if victim is not None:
                del self.cache[victim]
        self.cache[video_id] = None

    def reconcile_cache(self) -> None:
        while len(self.cache) > self.cache_capacity:
            victim = self._idle_lru()
            if victim is None:
                return
            del self.cache[victim]


class World:
    """The proxy ring; the central server is each proxy's ``PS_CMS`` link.

    Every proxy holds ``weights`` as ``global_weights``; ``dirty`` holds the
    cells requested since the last agent tour.
    """

    def __init__(self, proxies: list[ProxyServer], num_videos: int, weights: list[int]):
        self.proxies = proxies
        self.num_videos = num_videos
        self.demand = [0] * (3 * num_videos)  # sum of all local_counts
        self.weights = weights
        self.dirty: set[int] = set()

    def all_links(self) -> list[Link]:
        return [link for proxy in self.proxies for link in proxy.links.values()]


def build_world(num_proxies: int, num_videos: int, cache_capacity: int,
                link_capacity: int) -> World:
    id_source = itertools.count(1)
    weights = [0] * (3 * num_videos)
    proxies = [
        ProxyServer(pid, cache_capacity, link_capacity, num_videos, weights, id_source)
        for pid in range(num_proxies)
    ]
    return World(proxies, num_videos, weights)


def route_remote(
    world: World,
    time: float,
    proxy_id: int,
    video_id: int,
    user_class: UserClass,
    min_rate: int,
    max_rate: int,
    weight: int,
    psg_enabled: bool = True,
) -> RouteDecision:
    """Pick a source for a cache miss and try to admit the stream.

    With proxy sharing enabled, a neighbor holding the video is tried
    first; when both hold it the one whose link here has strictly more
    free bandwidth wins (ties go right).  If the chosen neighbor's link
    rejects, the central server is the only fallback.  Without sharing
    everything goes straight to the central server.
    """
    proxies = world.proxies
    # proxy.links is built in LinkKind order: PS_LPS, PS_RPS, PS_CMS
    lps_link, rps_link, cms_link = proxies[proxy_id].links.values()
    if psg_enabled:
        at_lps = video_id in proxies[proxy_id - 1].cache  # proxy 0's left is the last
        at_rps = video_id in proxies[(proxy_id + 1) % len(proxies)].cache
        if at_lps and at_rps:
            at_lps = lps_link.free_bandwidth() > rps_link.free_bandwidth()
        if at_lps or at_rps:
            source, link = (LPS, lps_link) if at_lps else (RPS, rps_link)
            admitted = link.admit(time, video_id, user_class, min_rate, max_rate, weight)
            if admitted is not None:
                return RouteDecision(source, admitted[0], link, admitted[1])
    admitted = cms_link.admit(time, video_id, user_class, min_rate, max_rate, weight)
    if admitted is None:
        return REJECTION
    return RouteDecision(CMS, admitted[0], cms_link, admitted[1])


def handle_request(
    world: World,
    time: float,
    proxy_id: int,
    video_id: int,
    user_class: UserClass,
    catalog: list[VideoMeta],
    profits,
    psg_enabled: bool = True,
) -> RouteDecision:
    """Process one arrival end to end at its landing proxy.

    The proxy, video and class are checked before any counter moves.  The
    request is then counted, at the proxy and in ``world.demand`` (weights must include
    it), and its cell is marked for the next tour.  It is served from the
    local cache when present; otherwise it is routed remotely and on
    success the video is cached here and marked live while streaming in.
    """
    if not (0 <= proxy_id < len(world.proxies) and 0 <= video_id < world.num_videos
            and 1 <= user_class <= 3):
        raise ValueError(f"unknown request: proxy {proxy_id}, video {video_id}, "
                         f"class {user_class}")
    cell = cell_index(video_id, user_class)
    proxy = world.proxies[proxy_id]
    proxy.local_counts[cell] += 1
    world.demand[cell] += 1
    world.dirty.add(cell)
    if video_id in proxy.cache:
        proxy.touch(video_id)
        return LOCAL_HIT
    video = catalog[video_id]
    weight = proxy.weight_of(video_id, user_class, profits)
    decision = route_remote(
        world, time, proxy_id, video_id, user_class,
        video.min_bw[user_class - 1], video.max_bw[user_class - 1], weight, psg_enabled,
    )
    if decision.source is not REJECTED:
        proxy.insert(video_id)
        proxy.stream_opened(video_id)
    return decision


def seed_initial_placement(world: World, rng: random.Random) -> None:
    """Deal videos across proxy caches before the run starts.

    Each proxy gets a quarter of its cache from each of the two popular
    tiers and the remainder from the least popular tier: the sizes
    ``tier_ranges`` gives for the cache capacity.  Each tier's ids are
    shuffled once and dealt round-robin so replicas spread as evenly as
    the counts allow; each cache is then stored in ascending id order.

    Proxy ``k`` takes the ``quota`` entries of the cyclic pool that start
    at ``k * quota``.  They are always distinct and new to its cache:
    tiers are disjoint id ranges, so no tier deals an id another tier
    already dealt, and a quota is at most its tier's size, so no slice
    wraps onto its own start.  ``SimConfig.validate()`` ensures that for
    every run; a direct caller with a larger quota gets ``ValueError``.
    """
    capacity = world.proxies[0].cache_capacity
    dealt: list[list[int]] = [[] for _ in world.proxies]
    for (first, size), (_, per_proxy) in zip(tier_ranges(world.num_videos),
                                              tier_ranges(capacity)):
        pool = list(range(first, first + size))
        rng.shuffle(pool)
        if per_proxy > size:
            raise ValueError(f"cache quota {per_proxy} exceeds tier size {size}")
        ring = pool + pool
        for k, videos in enumerate(dealt):
            start = k * per_proxy % size
            videos.extend(ring[start:start + per_proxy])
    for proxy, videos in zip(world.proxies, dealt):
        proxy.cache = dict.fromkeys(sorted(videos))
