"""Ring wiring, routing decisions, LRU caching and initial placement."""

from __future__ import annotations

import random
import struct
from collections import Counter

import pytest

from oracle import admit_cuts
from vodsim.allocation import LEDGER_RECORD, LINK_KINDS, PS_CMS, PS_LPS, PS_RPS, RECLAIM
from vodsim.model import CLASSES, VideoMeta, build_catalog, cell_index, tier_ranges
from vodsim.topology import RouteSource, World, handle_request, seed_initial_placement, shuffle

C1, C2, C3 = CLASSES


# every video streams class 1 at 8..24, class 2 at 6..18 and class 3 at 4..12 MB/s
WINDOW = VideoMeta(1000, (8, 6, 4), (24, 18, 12))


def small_world(num_proxies=6, num_videos=48, cache=8, capacity=60, catalog=None,
                psg_enabled=True):
    """A ring over ``catalog``, by default ``num_videos`` videos of ``WINDOW``."""
    return World(num_proxies, catalog or [WINDOW] * num_videos, cache, capacity, psg_enabled)


def small_catalog(num_videos=48, seed=3):
    return build_catalog(num_videos, 700, 2100, random.Random(seed))


def caches(world):
    return [list(proxy.cache) for proxy in world.proxies]


def live_set(proxy):
    """The cached videos whose inbound stream is open, read from their flags."""
    return {vid for vid, flag in proxy.cache.items() if flag}


def served_over(decision):
    """The kind of link a decision streams over; it must be remote."""
    assert decision.source is RouteSource.REMOTE
    return decision.link.kind


def test_ring_neighbors_wrap():
    for num_proxies in (3, 4):
        last = num_proxies - 1
        # (proxy holding video 7, requesting proxy, expected link)
        cases = [(last, 0, PS_LPS), (0, last, PS_RPS), (1, 0, PS_RPS), (0, 1, PS_LPS)]
        if num_proxies == 4:
            cases += [(2, 0, PS_CMS), (0, 2, PS_CMS)]
        for holder, requester, kind in cases:
            world = small_world(num_proxies=num_proxies)
            world.proxies[holder].cache[7] = False
            decision = handle_request(world, 0.0, requester, 7, C2)
            assert served_over(decision) == kind, (num_proxies, holder, requester)
            assert decision.link is world.proxies[requester].links[kind]


def hold_at_neighbors(world, holders):
    """Cache video 7 at proxy 0's left (the last proxy) and/or right neighbor."""
    if holders in ("both", "lps_only"):
        world.proxies[-1].cache[7] = False
    if holders in ("both", "rps_only"):
        world.proxies[1].cache[7] = False


# Link kind by which neighbors of proxy 0 hold the video, for the left
# link's free bandwidth greater than, equal to and less than the right link's.
FREE_CASES = ("lps_freer", "equal", "rps_freer")
ROUTE_TABLE = {
    "both": (PS_LPS, PS_RPS, PS_RPS),
    "lps_only": (PS_LPS,) * 3,
    "rps_only": (PS_RPS,) * 3,
    "neither": (PS_CMS,) * 3,
}


@pytest.mark.parametrize("free", FREE_CASES)
@pytest.mark.parametrize("holders", sorted(ROUTE_TABLE))
def test_route_remote_table(holders, free):
    world = small_world()
    hold_at_neighbors(world, holders)
    proxy = world.proxies[0]
    loaded = {"lps_freer": [PS_RPS], "equal": [PS_LPS, PS_RPS],
              "rps_freer": [PS_LPS]}[free]
    for kind in loaded:
        assert proxy.links[kind].admit(0.0, 9, C1, 8, 8, 0)
    expected = ROUTE_TABLE[holders][FREE_CASES.index(free)]
    before = {kind: len(link.ledger) for kind, link in proxy.links.items()}
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert served_over(decision) == expected
    assert decision.link is proxy.links[expected]
    assert decision.link.rate(decision.allocation) == 18
    assert admit_cuts(decision.link, before[decision.link.kind]) == []


@pytest.mark.parametrize("holders", ["both", "lps_only", "rps_only"])
def test_full_chosen_neighbor_falls_back_to_central(holders):
    world = small_world(capacity=40)
    hold_at_neighbors(world, holders)
    proxy = world.proxies[0]
    lps, rps = proxy.links[PS_LPS], proxy.links[PS_RPS]
    chosen, other = (rps, lps) if holders == "rps_only" else (lps, rps)
    # the chosen link keeps 4 MB/s free and holds no class-2 excess
    for vid in range(4):
        assert chosen.admit(0.0, 20 + vid, C2, 8, 8, 0)
    assert chosen.admit(0.0, 30, C3, 4, 4, 0)
    if holders == "both":
        # less free than the chosen link, so not chosen, but 34 MB/s of
        # class-2 excess to reclaim from
        assert other.admit(0.0, 31, C2, 6, 40, 0)
    assert other.capacity - other.used + sum(other.class_excess[C2].values()) >= 6  # could admit
    rows = {kind: len(proxy.links[kind].rows) for kind in LINK_KINDS}
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert served_over(decision) == PS_CMS
    assert decision.link is proxy.links[PS_CMS]
    for kind in (PS_LPS, PS_RPS):
        assert len(proxy.links[kind].rows) == rows[kind]


def test_route_prefers_freer_neighbor():
    world = small_world()
    world.proxies[5].cache[7] = False
    world.proxies[1].cache[7] = False
    proxy = world.proxies[0]
    proxy.links[PS_RPS].admit(0.0, 9, C1, 8, 30, 0)
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert served_over(decision) == PS_LPS
    assert decision.link is proxy.links[PS_LPS]
    assert decision.link.rate(decision.allocation) == 18


def test_route_tie_goes_right():
    world = small_world()
    world.proxies[5].cache[7] = False
    world.proxies[1].cache[7] = False
    decision = handle_request(world, 0.0, 0, 7, C2)
    assert served_over(decision) == PS_RPS


def test_route_single_holder_used_even_if_busier():
    world = small_world()
    world.proxies[1].cache[7] = False
    proxy = world.proxies[0]
    proxy.links[PS_RPS].admit(0.0, 9, C1, 8, 29, 0)
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert served_over(decision) == PS_RPS


def test_route_falls_back_to_central_not_other_neighbor():
    world = small_world(capacity=40)
    for vid in (7, 8):
        world.proxies[5].cache[vid] = False
        world.proxies[1].cache[vid] = False
    proxy = world.proxies[0]
    # saturate the right link with class-1 minimums: nothing reclaimable
    for vid in range(5):
        assert proxy.links[PS_RPS].admit(0.0, 20 + vid, C2, 8, 8, 0)
    proxy.links[PS_LPS].admit(0.0, 30, C3, 4, 12, 0)
    # right link freer? no: left has 28 free, right 0 -> left picked, admits
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert served_over(decision) == PS_LPS
    # now fill left too and ask for a class with nothing to reclaim there;
    # video 7 is cached here now, so ask for video 8, held where 7 is
    left = proxy.links[PS_LPS]
    for _ in range(left.capacity // 4 + 1):  # bounded even if admit miscounts
        free = left.capacity - left.used
        if free < 4 or left.admit(1.0, 40 + free, C3, 4, 4, 0) is None:
            break
    assert left.capacity - left.used < 4
    decision = handle_request(world, 2.0, 0, 8, C1)
    assert served_over(decision) == PS_CMS
    assert decision.link is proxy.links[PS_CMS]


def test_route_without_sharing_goes_central():
    world = small_world(psg_enabled=False)
    for vid in (7, 8):
        world.proxies[5].cache[vid] = False
        world.proxies[1].cache[vid] = False
    decision = handle_request(world, 0.0, 0, 7, C1)
    assert served_over(decision) == PS_CMS
    # with the central link full a miss of video 8 (video 7 is cached here
    # now) is rejected, not served by a neighbor
    proxy = world.proxies[0]
    cms = proxy.links[PS_CMS]
    for _ in range(cms.capacity // 6 + 1):  # bounded even if admit miscounts
        if cms.admit(1.0, 9, C2, 6, 6, 0) is None:
            break
    assert cms.capacity - cms.used < 6
    decision = handle_request(world, 2.0, 0, 8, C2)
    assert decision.source is RouteSource.REJECTED
    assert proxy.links[PS_LPS].rows == proxy.links[PS_RPS].rows == ()


def test_route_rejects_when_central_full():
    world = small_world(capacity=8)
    proxy = world.proxies[0]
    assert proxy.links[PS_CMS].admit(0.0, 9, C1, 8, 8, 0)
    decision = handle_request(world, 1.0, 0, 7, C2)
    assert decision.source is RouteSource.REJECTED
    assert decision.allocation is None


def test_handle_request_local_hit_touches_lru():
    world = small_world(catalog=small_catalog())
    proxy = world.proxies[2]
    proxy.insert(5)
    proxy.insert(6)
    decision = handle_request(world, 9.0, 2, 5, C1)
    assert decision.source is RouteSource.LOCAL
    assert list(proxy.cache) == [6, 5]
    assert proxy.local_counts[cell_index(5, C1)] == 1
    assert world.demand[cell_index(5, C1)] == 1


def test_handle_request_nine_requests_reach_every_source():
    # nine class-2 requests on a fresh world: fresh streams, a local hit,
    # reclaims, a neighbor tie-break and rejections
    world = small_world(capacity=40)
    world.proxies[1].insert(30)
    world.proxies[5].insert(30)
    sources = set()
    for time, video_id in enumerate([8, 9, 10, 8, 30, 11, 12, 13, 14]):
        decision = handle_request(world, float(time), 0, video_id, C2)
        sources.add((decision.source, decision.link and decision.link.kind))
        if decision.allocation is not None:
            assert type(decision.allocation.user_class) is int
    assert sources == {(RouteSource.REMOTE, PS_CMS), (RouteSource.LOCAL, None),
                       (RouteSource.REMOTE, PS_RPS), (RouteSource.REJECTED, None)}
    ops = [op for link in world.all_links()
           for _, op, *_ in LEDGER_RECORD.iter_unpack(link.ledger)]
    assert RECLAIM in ops


def test_handle_request_caches_on_success():
    world = small_world(catalog=small_catalog())
    proxy = world.proxies[0]
    assert 7 not in proxy.cache
    decision = handle_request(world, 3.0, 0, 7, C2)
    assert served_over(decision) == PS_CMS
    assert 7 in proxy.cache
    assert live_set(proxy) == {7}


def test_handle_request_rejection_does_not_cache():
    world = small_world(capacity=8, catalog=small_catalog())
    proxy = world.proxies[0]
    proxy.links[PS_CMS].admit(0.0, 9, C1, 8, 8, 0)
    decision = handle_request(world, 1.0, 0, 7, C1)
    assert decision.source is RouteSource.REJECTED
    assert 7 not in proxy.cache
    assert proxy.local_counts[cell_index(7, C1)] == 1


@pytest.mark.parametrize(
    "proxy_id, video_id, user_class",
    [(0, -1, 1), (0, 48, 1), (0, 5, 0), (0, 5, 4), (-1, 5, 1), (6, 5, 1)],
    ids=["video-1", "video48", "class0", "class4", "proxy-1", "proxy6"],
)
def test_unknown_request_raises_before_any_counter_moves(proxy_id, video_id, user_class):
    # the tables are flat, so an unchecked video -1 or class 0 would
    # silently bump a cell of another video, and proxy -1 would count at
    # the last proxy
    world = small_world(catalog=small_catalog(num_videos=48))
    handle_request(world, 1.0, 0, 47, C3)

    def state():
        return (
            [proxy.local_counts[:] for proxy in world.proxies],
            world.demand[:], set(world.dirty),
        )

    before = state()
    with pytest.raises(ValueError, match="unknown request"):
        handle_request(world, 2.0, proxy_id, video_id, user_class)
    assert state() == before


@pytest.mark.parametrize("user_class, min_rate", [(2.0, 6), (C2, 6.5)],
                         ids=["float_class", "float_rate"])
def test_an_unpackable_admit_spends_the_ring_s_next_allocation_id(user_class, min_rate):
    # a float class or rate passes admit's value checks and fails when its
    # record is packed, after its id was drawn from the ring's one counter:
    # the link is untouched, but the next admission anywhere gets id 2
    world = small_world()
    link = world.proxies[0].links[PS_CMS]
    with pytest.raises(struct.error):
        link.admit(0.0, 5, user_class, min_rate=min_rate, max_rate=18, weight=0)
    assert (link.used, link.minimums, link.ledger) == (0, {}, bytearray())
    decision = handle_request(world, 1.0, 3, 9, C2)
    assert served_over(decision) == PS_CMS and decision.allocation.alloc_id == 2
    [(_time, _op, alloc_id, *_fields)] = LEDGER_RECORD.iter_unpack(decision.link.ledger)
    assert alloc_id == 2


def test_handle_request_raises_type_error_for_a_float_class_before_any_counter_moves():
    # the class check is by value, so 2.0 passes it; its float cell index
    # then fails on the first counter, before anything changed
    world = small_world()
    with pytest.raises(TypeError):
        handle_request(world, 1.0, 0, 5, 2.0)
    assert world.demand == [0] * len(world.demand) and not world.dirty
    assert all(not any(proxy.local_counts) and not proxy.cache for proxy in world.proxies)
    assert handle_request(world, 2.0, 0, 5, C2).allocation.alloc_id == 1


def test_handle_request_takes_true_as_class_1():
    world = small_world()
    decision = handle_request(world, 1.0, 0, 5, True)
    assert served_over(decision) == PS_CMS
    assert world.demand[cell_index(5, C1)] == world.proxies[0].local_counts[cell_index(5, C1)] == 1
    assert sum(world.demand) == 1 and world.dirty == {cell_index(5, C1)}
    [(_time, _op, _id, video_id, user_class, amount, _min, _max)] = (
        LEDGER_RECORD.iter_unpack(decision.link.ledger))
    assert (video_id, user_class, amount) == (5, C1, WINDOW.max_bw[0])


def test_lru_evicts_idle_least_recent():
    world = small_world(cache=4)
    proxy = world.proxies[0]
    for vid in (1, 2, 3, 4):
        proxy.insert(vid)
    for vid in (1, 2, 3, 4):
        proxy.stream_closed(vid)
    proxy.insert(9)
    assert 1 not in proxy.cache
    assert sorted(proxy.cache) == [2, 3, 4, 9]


def test_lru_skips_live_entries():
    world = small_world(cache=4)
    proxy = world.proxies[0]
    for vid in (1, 2, 3, 4):
        proxy.insert(vid)
    for vid in (2, 3, 4):
        proxy.stream_closed(vid)
    proxy.insert(9)
    assert 1 in proxy.cache
    assert 2 not in proxy.cache


def test_cache_overshoots_when_all_live_then_reconciles():
    world = small_world(cache=2)
    proxy = world.proxies[0]
    for vid in (1, 2, 3):
        proxy.insert(vid)
    assert len(proxy.cache) == 3
    proxy.stream_closed(1)
    assert len(proxy.cache) == 2
    assert 1 not in proxy.cache


def test_stream_closed_underflow_raises():
    world = small_world()
    with pytest.raises(ValueError):
        world.proxies[0].stream_closed(5)


def test_insert_of_cached_video_raises():
    # a cached video is a local hit, so its stream never opens a second time
    world = small_world(cache=4)
    proxy = world.proxies[0]
    proxy.cache[2] = False  # placed, idle
    proxy.insert(1)
    for vid in (1, 2):
        with pytest.raises(ValueError, match="already cached"):
            proxy.insert(vid)
    assert list(proxy.cache) == [2, 1]
    assert live_set(proxy) == {1}


def test_closing_idle_video_raises():
    world = small_world(cache=4)
    proxy = world.proxies[0]
    proxy.insert(1)
    proxy.stream_closed(1)
    with pytest.raises(ValueError, match="no live stream"):
        proxy.stream_closed(1)
    assert list(proxy.cache) == [1]
    assert live_set(proxy) == set()


def test_local_hit_on_live_video_keeps_it_live():
    # a hit moves the video to the most recently used end with its flag, so
    # a hit on a live video leaves it live: never evicted, and closable
    world = small_world(cache=2)
    proxy = world.proxies[0]
    for vid in (1, 2):
        assert served_over(handle_request(world, 1.0 * vid, 0, vid, C2)) == PS_CMS
    assert handle_request(world, 3.0, 0, 1, C2).source is RouteSource.LOCAL
    assert list(proxy.cache) == [2, 1]
    proxy.insert(3)  # every entry is live: the cache grows past capacity
    assert list(proxy.cache) == [2, 1, 3]
    proxy.stream_closed(1)  # over capacity: the closing video goes
    assert proxy.cache == {2: True, 3: True}


def drive_lru_against_reference(cache, steps, request_share, seed=17):
    """Run-like cache traffic on a placed proxy against a timestamp reference.

    Each step is a request with probability ``request_share`` and otherwise
    ends a random live stream.  A request does what a run does: it moves
    its video to the most recently used end when cached and inserts it
    otherwise, which opens its stream.
    The reference keeps each entry's last use (placed entries at 0.0) and
    evicts the idle entry with the smallest (last use, id), as an explicit
    timestamp LRU would.  Returns the evictions, the evictions that broke a
    tie among equal last uses, and the over-capacity closes by their idle
    entries after the close (2 stands for two or more).
    """
    world = small_world(num_proxies=3, num_videos=96, cache=cache)
    seed_initial_placement(world, random.Random(5))
    proxy = world.proxies[0]
    last_use = dict.fromkeys(proxy.cache, 0.0)
    live = set()
    rng = random.Random(seed)
    evictions = ties = 0
    crowded_closes = Counter()

    def evict_one():
        nonlocal ties
        idle = sorted((last_use[vid], vid) for vid in last_use if vid not in live)
        if not idle:
            return False
        ties += len(idle) > 1 and idle[0][0] == idle[1][0]
        del last_use[idle[0][1]]
        return True

    for step in range(1, steps):
        now = float(step)
        before = set(proxy.cache)
        if rng.random() < request_share or not live:
            vid = rng.randrange(96)
            if vid in proxy.cache:
                proxy.cache[vid] = proxy.cache.pop(vid)
            else:
                proxy.insert(vid)
                if len(last_use) >= proxy.cache_capacity:
                    evict_one()
                live.add(vid)
            last_use[vid] = now
        else:
            vid = rng.choice(sorted(live))
            proxy.stream_closed(vid)
            live.remove(vid)
            if len(last_use) > proxy.cache_capacity:
                idle = sum(v not in live for v in last_use)
                crowded_closes[min(idle, 2)] += 1
            while len(last_use) > proxy.cache_capacity and evict_one():
                pass
        victims = before - set(proxy.cache)
        assert victims == before - set(last_use), f"step {step}"
        assert set(proxy.cache) == set(last_use)
        assert live_set(proxy) == live
        evictions += len(victims)
    return evictions, ties, crowded_closes


def test_lru_victim_is_smallest_idle_last_use_then_id():
    evictions, ties, _ = drive_lru_against_reference(32, 3000, 0.5)
    assert evictions > 100
    assert ties > 15


def test_over_capacity_close_evicts_like_reference():
    # mostly requests, so live streams pile up past the cache's capacity;
    # a cache grows past capacity only when every entry is live, so the
    # closing video is the only idle entry at every over-capacity close
    _, _, crowded_closes = drive_lru_against_reference(8, 6000, 0.6)
    assert crowded_closes[1] > 200
    assert crowded_closes[2] == 0


def test_weight_prefers_fresher_view():
    # the weight admission uses is the larger of the agent's last table and
    # the landing proxy's own count
    world = small_world()
    cell = cell_index(7, C1)
    world.proxies[0].local_counts[cell] = 3  # the request makes it 4
    decision = handle_request(world, 1.0, 0, 7, C1)
    assert served_over(decision) == PS_CMS
    assert decision.allocation.weight == 4
    world.weights[cell] = 30
    decision = handle_request(world, 2.0, 3, 7, C1)
    assert served_over(decision) == PS_CMS
    assert decision.allocation.weight == 30


def test_initial_placement_quota_and_replication():
    world = small_world(num_proxies=6, num_videos=48, cache=16)
    seed_initial_placement(world, random.Random(5))
    copies = {vid: 0 for vid in range(48)}
    for proxy in world.proxies:
        assert len(proxy.cache) == 16
        by_tier = [sum(first <= vid < first + size for vid in proxy.cache)
                   for first, size in tier_ranges(48)]
        assert by_tier == [4, 4, 8]
        for vid in proxy.cache:
            copies[vid] += 1
    assert all(n == 2 for n in copies.values())


def test_initial_placement_deterministic():
    world_a = small_world(cache=16)
    world_b = small_world(cache=16)
    seed_initial_placement(world_a, random.Random(5))
    seed_initial_placement(world_b, random.Random(5))
    assert caches(world_a) == caches(world_b)


def test_request_counting_covers_all_classes():
    world = small_world(catalog=small_catalog())
    rng = random.Random(8)
    for _ in range(300):
        handle_request(world, rng.random() * 100, rng.randrange(6),
                       rng.randrange(48), rng.choice(CLASSES))
    assert sum(sum(proxy.local_counts) for proxy in world.proxies) == 300
    assert sum(world.demand) == 300


def place_with_skip_loop(world, rng):
    """The placement loop ``seed_initial_placement`` replaced, kept as its
    reference: it skipped a pick its proxy already held and raised when a
    whole pool's worth of picks in a row were skipped."""
    quotas = tier_ranges(world.proxies[0].cache_capacity)
    for (first, size), (_, per_proxy) in zip(tier_ranges(len(world.catalog)), quotas):
        pool = list(range(first, first + size))
        rng.shuffle(pool)
        if per_proxy > len(pool):
            raise ValueError(f"cache quota {per_proxy} exceeds tier size {len(pool)}")
        idx = 0
        for proxy in world.proxies:
            placed = 0
            skipped = 0
            while placed < per_proxy:
                video_id = pool[idx % len(pool)]
                idx += 1
                if video_id in proxy.cache:
                    skipped += 1
                    if skipped > len(pool):
                        raise ValueError(f"proxy {proxy.proxy_id} cannot fit its tier quota")
                    continue
                proxy.cache[video_id] = False
                placed += 1
                skipped = 0
    for proxy in world.proxies:
        proxy.cache = dict.fromkeys(sorted(proxy.cache), False)


@pytest.mark.parametrize("seed", range(5))
def test_shuffle_is_random_shuffle(seed):
    # placement's own shuffle: the result and the generator's state after
    # it equal CPython's shuffle, on short pools (every bit length up to
    # 7) and on large_catalog's tier sizes
    for size in [*range(1, 65), 1200, 2400]:
        rng, reference_rng = random.Random(seed), random.Random(seed)
        pool, reference = list(range(size)), list(range(size))
        shuffle(pool, rng)
        reference_rng.shuffle(reference)
        assert pool == reference, size
        assert rng.getstate() == reference_rng.getstate(), size


def test_placement_slices_equal_skip_loop():
    placements = 0
    for num_videos in (4, 8, 12, 20, 32, 48, 100, 480):
        cache_sizes = range(4, num_videos + 1, 4)
        if num_videos == 480:
            cache_sizes = (4, 40, 160, 236, 476, 480)
        for seed in (1, 5, 9):
            for num_proxies in (3, 4, 7):
                for cache in cache_sizes:
                    ours = small_world(num_proxies, num_videos, cache)
                    reference = small_world(num_proxies, num_videos, cache)
                    seed_initial_placement(ours, random.Random(seed))
                    place_with_skip_loop(reference, random.Random(seed))
                    assert caches(ours) == caches(reference), (
                        num_videos, cache, num_proxies, seed)
                    assert list(ours.proxies[0].cache) == sorted(ours.proxies[0].cache)
                    placements += 1
    assert placements > 500
    # a cache quota larger than its tier: 16 slots over a 12-video catalog
    with pytest.raises(ValueError, match="exceeds tier size 3"):
        seed_initial_placement(small_world(3, 12, 16), random.Random(1))
