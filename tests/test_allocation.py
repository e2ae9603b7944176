"""Link admission, weight-ordered reclamation and ledger accounting."""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest

from oracle import AdmitRequest, ExistingStream, force_link, oracle_admit, random_link_state
from vodsim.allocation import (
    ALLOCATE,
    FIELD_MAX,
    LEDGER_RECORD,
    RECLAIM,
    InvariantViolation,
    LedgerRow,
    Link,
    LinkKind,
)
from vodsim.metrics import Replay
from vodsim.model import BW_RANGES, CLASSES, UserClass

C1, C2, C3 = UserClass.CLASS1, UserClass.CLASS2, UserClass.CLASS3


def fresh_link(capacity=100):
    return Link(LinkKind.PS_CMS, capacity, "test")


def live_rates(link):
    """Each live allocation's id mapped to its current rate."""
    return {alloc.alloc_id: link.rate(alloc) for alloc in link.minimums}


def test_admit_prefers_maximum():
    link = fresh_link(100)
    outcome = link.admit(0.0, video_id=1, user_class=C1, min_rate=8, max_rate=24, weight=0)
    assert outcome is not None
    alloc, victims = outcome
    assert link.rate(alloc) == alloc.max_rate == 24
    assert victims == []
    assert link.free_bandwidth() == 76


def test_admit_degrades_to_minimum():
    link = fresh_link(30)
    link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    outcome = link.admit(1.0, 2, C1, min_rate=5, max_rate=20, weight=0)
    assert outcome is not None
    alloc, victims = outcome
    assert link.rate(alloc) == 5
    assert link.rate(alloc) != alloc.max_rate
    assert victims == []
    assert link.used == 29


def test_admit_rejects_and_leaves_link_untouched():
    link = fresh_link(20)
    link.admit(0.0, 1, C1, min_rate=10, max_rate=18, weight=0)
    before_used = link.used
    before_rates = live_rates(link)
    before_rows = len(link.rows)
    outcome = link.admit(1.0, 2, C2, min_rate=5, max_rate=9, weight=0)
    assert outcome is None
    assert link.used == before_used
    assert live_rates(link) == before_rates
    assert len(link.rows) == before_rows


def test_reclaim_takes_from_lowest_weight_first():
    # the requester's own weight plays no part: a weight-0 request reclaims
    # from heavier streams exactly as a weight-99 one does
    for requester_weight in (99, 0):
        link = fresh_link(40)
        heavy = link.admit(0.0, 1, C2, min_rate=6, max_rate=20, weight=50)[0]
        light = link.admit(0.0, 2, C2, min_rate=6, max_rate=20, weight=5)[0]
        assert link.used == 40 and link.free_bandwidth() == 0
        outcome = link.admit(1.0, 3, C2, min_rate=7, max_rate=18, weight=requester_weight)
        assert outcome is not None
        alloc, victims = outcome
        assert link.rate(alloc) == 7
        assert victims[0][0] is light
        assert link.rate(light) == 20 - victims[0][1]
        assert sum(take for _, take in victims) == 7
        cut = [victim for victim, _ in victims]
        assert heavy not in cut or cut.index(heavy) > 0
        assert link.used == 40


def test_reclaim_never_cuts_below_minimum():
    link = fresh_link(24)
    a = link.admit(0.0, 1, C3, min_rate=4, max_rate=12, weight=1)[0]
    b = link.admit(0.0, 2, C3, min_rate=4, max_rate=12, weight=2)[0]
    outcome = link.admit(1.0, 3, C3, min_rate=6, max_rate=14, weight=0)
    assert outcome is not None
    assert link.rate(a) >= link.minimums[a] == 4
    assert link.rate(b) >= link.minimums[b] == 4
    assert link.used <= link.capacity


def test_reclaim_ignores_other_classes():
    link = fresh_link(24)
    link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    outcome = link.admit(1.0, 2, C2, min_rate=6, max_rate=18, weight=9)
    assert outcome is None


def test_reclaim_all_or_nothing():
    link = fresh_link(20)
    victim = link.admit(0.0, 1, C3, min_rate=4, max_rate=17, weight=0)[0]
    assert link.rate(victim) == 17
    outcome = link.admit(1.0, 2, C3, min_rate=17, max_rate=17, weight=9)
    assert outcome is None
    assert link.rate(victim) == 17
    assert link.used == 17


def test_plan_reclaim_empty_when_free_covers():
    link = fresh_link(50)
    link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    assert link.plan_reclaim(C1, 10) == []


def test_apply_reclaim_takes_only_positive_amounts_above_minimum():
    # the simulator drops a completion event as stale when its allocation's
    # excess differs from the excess it was scheduled at, which is right
    # only because every applied take is positive: each cut changes it
    link = fresh_link(40)
    alloc, _victims = link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    for take in (0, -1, 17):
        with pytest.raises(InvariantViolation):
            link._apply_reclaim(1.0, [(alloc, take)])
    assert link.rate(alloc) == 24 and link.rows[-1].op == "allocate"


def test_release_returns_bandwidth():
    link = fresh_link(40)
    alloc, _victims = link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    assert link.free_bandwidth() == 16
    link.release(2.0, alloc)
    assert link.free_bandwidth() == 40
    with pytest.raises(InvariantViolation):
        link.release(3.0, alloc)


def loaded_link():
    """A link holding one stream of each class, every one with some excess,
    audited clean."""
    link = fresh_link(90)
    for video_id, user_class in enumerate(CLASSES):
        min_lo, _min_hi, _max_lo, max_hi = BW_RANGES[user_class]
        link.admit(0.0, video_id, user_class, min_rate=min_lo, max_rate=max_hi, weight=0)
    link.check_conservation()
    assert all(link.excess[c] > 0 for c in CLASSES)
    return link


def test_conservation_check_catches_tampering():
    # an entry of the live tables off by one, with the counters left as
    # they were: one entry of each class's excess table, then one minimum
    link = loaded_link()
    entries = [(link.class_excess[c], next(iter(link.class_excess[c]))) for c in CLASSES]
    entries.append((link.minimums, next(iter(link.minimums))))
    for table, alloc in entries:
        for delta in (1, -1):
            table[alloc] += delta
            with pytest.raises(InvariantViolation):
                link.check_conservation()
            table[alloc] -= delta
            link.check_conservation()
    fresh_link().check_conservation()


def test_ledger_replay_matches_live_state():
    rng = random.Random(99)
    link = fresh_link(120)
    live = []
    for step in range(300):
        if live and rng.random() < 0.4:
            victim = live.pop(rng.randrange(len(live)))
            link.release(float(step), victim)
        else:
            outcome = link.admit(
                float(step), rng.randrange(30), rng.choice((C1, C2, C3)),
                min_rate=rng.randint(4, 8), max_rate=rng.randint(12, 25),
                weight=rng.randrange(10),
            )
            if outcome is not None:
                live.append(outcome[0])
        replayed = Replay([link], float(step)).live[0]
        assert replayed == live_rates(link)
        assert sum(replayed.values()) == link.used
        link.check_conservation()


def test_admit_validates_bounds():
    link = fresh_link(40)
    with pytest.raises(ValueError):
        link.admit(0.0, 1, C1, min_rate=0, max_rate=10, weight=0)
    with pytest.raises(ValueError):
        link.admit(0.0, 1, C1, min_rate=12, max_rate=10, weight=0)
    with pytest.raises(ValueError):
        Link(LinkKind.PS_CMS, 0)


def test_link_capacity_fits_the_amount_field():
    assert Link(LinkKind.PS_CMS, FIELD_MAX).capacity == 2**32 - 1
    with pytest.raises(ValueError, match="capacity"):
        Link(LinkKind.PS_CMS, FIELD_MAX + 1)


def test_ledger_rows_decode_what_was_logged():
    # the widest video id and the last two allocation ids below 2**64
    first_id = 2**64 - 2
    link = Link(LinkKind.PS_CMS, 30, "trip", id_source=itertools.count(first_id))
    past_tick = math.nextafter(10.0, math.inf)
    first, _ = link.admit(0.0, FIELD_MAX, C2, 6, 20, 3)
    second, victims = link.admit(past_tick, 5, C2, 12, 18, 1)
    assert victims == [(first, 2)]
    link.release(20.0, first)
    rows = link.rows
    assert type(rows) is tuple
    assert rows == (
        LedgerRow(0.0, "allocate", first_id, FIELD_MAX, 2, 20, 6, 20),
        LedgerRow(past_tick, "reclaim", first_id, FIELD_MAX, 2, 2, 6, 20),
        LedgerRow(past_tick, "allocate", first_id + 1, 5, 2, 12, 12, 18),
        LedgerRow(20.0, "release", first_id, FIELD_MAX, 2, 18, 6, 20),
    )
    assert rows[1].time != 10.0 and second.alloc_id == 2**64 - 1
    assert len(link.ledger) == 4 * LEDGER_RECORD.size
    # an id past the field raises instead of wrapping; 2**64 allocations
    # are out of any run's reach
    with pytest.raises(struct.error):
        link.admit(21.0, 6, C3, 4, 4, 0)


def test_engine_matches_oracle_on_random_states():
    rng = random.Random(2024)
    for case in range(800):
        capacity, existing, request = random_link_state(rng, base_id=10_000_000 + case * 10)
        link = force_link(capacity, existing)
        expected = oracle_admit(capacity, existing, request)
        outcome = link.admit(5.0, 0, request.user_class,
                             request.min_rate, request.max_rate, weight=3)
        if expected is None:
            assert outcome is None
            assert link.used == sum(s.rate for s in existing)
            assert live_rates(link) == {s.alloc_id: s.rate for s in existing}
        else:
            rate, victims = expected
            assert outcome is not None
            alloc, got = outcome
            assert link.rate(alloc) == rate
            assert sorted((victim.alloc_id, take) for victim, take in got) == sorted(victims)
            link.check_conservation()


def test_plan_reclaim_rejects_exactly_when_excess_is_short():
    # the C3 random link states, each asked for the request's minimum and
    # its maximum; the pool is summed here from the drawn streams
    rng = random.Random(20240814)
    rejected = reclaimed = 0
    for case in range(10000):
        capacity, existing, request = random_link_state(rng, base_id=1_000_000)
        link = force_link(capacity, existing)
        c = request.user_class
        pool = sum(s.rate - s.min_rate for s in existing if s.user_class == c)
        assert link.excess[c] == pool
        for needed in (request.min_rate, request.max_rate):
            short = needed - link.free_bandwidth() > pool
            victims = link.plan_reclaim(c, needed)
            assert (victims is None) == short, f"case {case}, needed {needed}"
            if victims is not None:
                assert sum(take for _, take in victims) == max(0, needed - link.free_bandwidth())
                reclaimed += bool(victims)
            rejected += short
    assert rejected > 1000 and reclaimed > 1000


def test_excess_tracks_admit_reclaim_and_release():
    rng = random.Random(31)
    link = fresh_link(90)
    live = []
    reclaims = 0
    # each live stream's class and excess, rebuilt from the ledger records;
    # seen counts the bytes already decoded
    streams, seen = {}, 0
    for step in range(2500):
        if live and rng.random() < 0.35:
            link.release(float(step), live.pop(rng.randrange(len(live))))
        else:
            user_class = rng.choice(CLASSES)
            min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
            outcome = link.admit(float(step), rng.randrange(40), user_class,
                                 rng.randint(min_lo, min_hi), rng.randint(max_lo, max_hi),
                                 weight=rng.randrange(10))
            if outcome is not None:
                alloc, victims = outcome
                live.append(alloc)
                reclaims += bool(victims)
        for _, op, alloc_id, _, user_class, amount, min_rate, _ in LEDGER_RECORD.iter_unpack(
                link.ledger[seen:]):
            if op == ALLOCATE:
                streams[alloc_id] = [user_class, amount - min_rate]
            elif op == RECLAIM:
                streams[alloc_id][1] -= amount
            else:
                del streams[alloc_id]
        seen = len(link.ledger)
        recount = {c: sum(excess for user_class, excess in streams.values() if user_class == c)
                   for c in CLASSES}
        assert {c: link.excess[c] for c in CLASSES} == recount, f"step {step}"
    assert reclaims > 100


def test_conservation_check_catches_stale_excess():
    # a running counter off by one, with the tables left as they were:
    # each class's excess, then the used bandwidth
    link = loaded_link()
    for c in CLASSES:
        for delta in (1, -1):
            link.excess[c] += delta
            with pytest.raises(InvariantViolation):
                link.check_conservation()
            link.excess[c] -= delta
    for delta in (1, -1):
        link.used += delta
        with pytest.raises(InvariantViolation):
            link.check_conservation()
        link.used -= delta
    link.check_conservation()
    empty = fresh_link()
    empty.check_conservation()
    empty.used += 1
    with pytest.raises(InvariantViolation):
        empty.check_conservation()
    # an excess larger than the streams can give is caught by the planner too
    free, pool = link.free_bandwidth(), link.excess[C3]
    link.excess[C3] += 30
    with pytest.raises(InvariantViolation):
        link.plan_reclaim(C3, free + pool + 1)
