"""Link admission, weight-ordered reclamation and ledger accounting."""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from oracle import (
    AdmitRequest,
    ExistingStream,
    admit_cuts,
    force_link,
    oracle_admit,
    random_link_state,
)
from vodsim.allocation import (
    ALLOCATE,
    FIELD_MAX,
    LEDGER_RECORD,
    PS_CMS,
    RECLAIM,
    RELEASE,
    InvariantViolation,
    LedgerRow,
    Link,
)
from vodsim.metrics import Replay
from vodsim.model import BW_RANGES, CLASSES

C1, C2, C3 = CLASSES


def fresh_link(capacity=100):
    return Link(PS_CMS, capacity, "test")


def live_rates(link):
    """Each live allocation's id mapped to its current rate."""
    return {alloc.alloc_id: link.rate(alloc) for alloc in link.minimums}


def test_admit_prefers_maximum():
    link = fresh_link(100)
    alloc = link.admit(0.0, video_id=1, user_class=C1, min_rate=8, max_rate=24, weight=0)
    assert alloc is not None
    assert link.rate(alloc) == alloc.max_rate == 24
    assert admit_cuts(link) == []
    assert link.capacity - link.used == 76


def test_admit_degrades_to_minimum():
    link = fresh_link(30)
    link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    start = len(link.ledger)
    alloc = link.admit(1.0, 2, C1, min_rate=5, max_rate=20, weight=0)
    assert alloc is not None
    assert link.rate(alloc) == 5
    assert link.rate(alloc) != alloc.max_rate
    assert admit_cuts(link, start) == []
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
        heavy = link.admit(0.0, 1, C2, min_rate=6, max_rate=20, weight=50)
        light = link.admit(0.0, 2, C2, min_rate=6, max_rate=20, weight=5)
        assert link.used == link.capacity == 40
        start = len(link.ledger)
        alloc = link.admit(1.0, 3, C2, min_rate=7, max_rate=18, weight=requester_weight)
        assert alloc is not None
        victims = admit_cuts(link, start)
        assert link.rate(alloc) == 7
        assert victims[0][0] == light.alloc_id
        assert link.rate(light) == 20 - victims[0][1]
        assert sum(take for _, take in victims) == 7
        cut = [victim for victim, _ in victims]
        assert heavy.alloc_id not in cut or cut.index(heavy.alloc_id) > 0
        assert link.used == 40


def test_reclaim_order_is_weight_then_video_then_allocation_id():
    # four streams of 8 MB/s excess each, in an admission order that each
    # key of the order overrides: weight, then video id, then allocation id
    link = fresh_link(48)
    a, b, c, d = (link.admit(0.0, video_id, C3, min_rate=4, max_rate=12, weight=weight)
                  for video_id, weight in ((5, 1), (9, 0), (2, 1), (2, 1)))
    assert link.plan_reclaim(C3, 32) == [(b, 8), (c, 8), (d, 8), (a, 8)]
    assert link.plan_reclaim(C3, 20) == [(b, 8), (c, 8), (d, 4)]


def test_reclaim_never_cuts_below_minimum():
    link = fresh_link(24)
    a = link.admit(0.0, 1, C3, min_rate=4, max_rate=12, weight=1)
    b = link.admit(0.0, 2, C3, min_rate=4, max_rate=12, weight=2)
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
    victim = link.admit(0.0, 1, C3, min_rate=4, max_rate=17, weight=0)
    assert link.rate(victim) == 17
    outcome = link.admit(1.0, 2, C3, min_rate=17, max_rate=17, weight=9)
    assert outcome is None
    assert link.rate(victim) == 17
    assert link.used == 17


def test_apply_reclaim_takes_only_positive_amounts_above_minimum(monkeypatch):
    # the simulator reschedules a completion event when its allocation's
    # excess differs from the excess it was scheduled at, which is right
    # only because every applied take is positive: each cut changes it
    link = fresh_link(40)
    alloc = link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    before = link_state(link)
    for take in (0, -1, 17):  # the victim holds 16 MB/s of excess
        monkeypatch.setattr(link, "plan_reclaim", lambda c, shortfall, take=take: [(alloc, take)])
        with pytest.raises(InvariantViolation, match="below its minimum"):
            link.admit(1.0, 2, C1, min_rate=20, max_rate=20, weight=0)
        assert link_state(link) == before
    assert link.rate(alloc) == 24 and link.rows[-1].op == "allocate"


def test_release_returns_bandwidth():
    link = fresh_link(40)
    alloc = link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    assert link.capacity - link.used == 16
    link.release(2.0, alloc)
    assert link.capacity - link.used == 40
    with pytest.raises(InvariantViolation):
        link.release(3.0, alloc)


def test_an_admit_at_the_minimum_writes_no_excess_entry():
    # a degraded stream, and one whose window is a single rate
    link = fresh_link(20)
    degraded = link.admit(0.0, 1, C1, min_rate=8, max_rate=24, weight=0)
    fixed = link.admit(0.0, 2, C2, min_rate=7, max_rate=7, weight=0)
    assert (link.rate(degraded), link.rate(fixed)) == (8, 7)
    assert link.minimums == {degraded: 8, fixed: 7}
    assert link.class_excess == [None, {}, {}, {}] and link.excess == [0, 0, 0, 0]
    link.check_conservation()


def test_a_reclaim_that_takes_all_of_a_victims_excess_removes_its_entry():
    link = fresh_link(30)
    first = link.admit(0.0, 1, C1, min_rate=6, max_rate=20, weight=0)
    assert link.class_excess[C1] == {first: 14}
    # a take of part of the excess leaves the rest, positive
    second = link.admit(1.0, 2, C1, min_rate=12, max_rate=12, weight=1)
    assert admit_cuts(link, LEDGER_RECORD.size) == [(first.alloc_id, 2)]
    assert link.class_excess[C1] == {first: 12} and link.excess[C1] == 12
    # a take of all of it leaves no entry, and the victim at its minimum
    start = len(link.ledger)
    third = link.admit(2.0, 3, C1, min_rate=12, max_rate=18, weight=2)
    assert admit_cuts(link, start) == [(first.alloc_id, 12)]
    assert link.class_excess[C1] == {} and link.excess[C1] == 0
    assert [link.rate(alloc) for alloc in (first, second, third)] == [6, 12, 12]
    assert link.used == link.capacity
    link.check_conservation()


def test_a_stream_at_its_minimum_releases_cleanly():
    link = fresh_link(20)
    first = link.admit(0.0, 1, C3, min_rate=4, max_rate=17, weight=0)
    alloc = link.admit(1.0, 2, C3, min_rate=5, max_rate=12, weight=0)  # cuts first by 2
    assert alloc not in link.class_excess[C3]
    assert link.release(3.0, alloc) is alloc and alloc.sent == 5 * 2.0
    assert link.minimums == {first: 4} and link.class_excess[C3] == {first: 11}
    assert (link.used, link.excess[C3]) == (15, 11)
    assert LEDGER_RECORD.unpack_from(link.ledger, 3 * LEDGER_RECORD.size)[1::4] == (RELEASE, 5)
    link.check_conservation()


def link_state(link):
    """A copy of every table and counter ``admit`` may change, and the ledger."""
    return (dict(link.minimums), [table and dict(table) for table in link.class_excess],
            link.used, list(link.excess), bytes(link.ledger))


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
    # an entry of +1 for a stream at its minimum, which has none
    at_minimum = link.admit(1.0, 9, C3, min_rate=4, max_rate=30, weight=0)
    assert link.rate(at_minimum) == 4 and at_minimum not in link.class_excess[C3]
    link.class_excess[C3][at_minimum] = 1
    with pytest.raises(InvariantViolation, match="class tables give"):
        link.check_conservation()
    del link.class_excess[C3][at_minimum]
    link.check_conservation()


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
                live.append(outcome)
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
        Link(PS_CMS, 0)


@pytest.mark.parametrize("min_rate, max_rate", [(8.5, 24), (8, 24.0), (8, FIELD_MAX + 1)],
                         ids=["float_min", "float_max", "wide_max"])
def test_admit_refuses_an_unpackable_rate_with_a_struct_error(min_rate, max_rate):
    # no check of its own on the hot path: packing the record refuses it
    link = loaded_link()
    before = link_state(link)
    with pytest.raises(struct.error):
        link.admit(1.0, 9, C1, min_rate=min_rate, max_rate=max_rate, weight=0)
    assert link_state(link) == before


@pytest.mark.parametrize("user_class", [0, 4])
@pytest.mark.parametrize("min_rate, max_rate", [(4, 8), (25, 30)], ids=["free", "reclaim"])
def test_admit_refuses_a_class_outside_one_to_three(user_class, min_rate, max_rate):
    link = loaded_link()  # 21 MB/s free: (4, 8) fits, (25, 30) must reclaim
    before = link_state(link)
    with pytest.raises(ValueError, match=f"bad class {user_class}"):
        link.admit(1.0, 9, user_class, min_rate=min_rate, max_rate=max_rate, weight=0)
    assert link_state(link) == before
    link.check_conservation()


def test_link_capacity_fits_the_amount_field():
    assert Link(PS_CMS, FIELD_MAX).capacity == 2**32 - 1
    with pytest.raises(ValueError, match="capacity"):
        Link(PS_CMS, FIELD_MAX + 1)


@pytest.mark.parametrize("capacity", [10.5, 10.0, True, "10"])
def test_link_capacity_is_an_int(capacity):
    with pytest.raises(ValueError, match="capacity must be an int"):
        Link(PS_CMS, capacity)


def test_ledger_rows_decode_what_was_logged():
    # the widest video id and the last two allocation ids below 2**64
    first_id = 2**64 - 2
    link = Link(PS_CMS, 30, "trip", id_source=itertools.count(first_id))
    past_tick = math.nextafter(10.0, math.inf)
    first = link.admit(0.0, FIELD_MAX, C2, 6, 20, 3)
    second = link.admit(past_tick, 5, C2, 12, 18, 1)
    assert admit_cuts(link, LEDGER_RECORD.size) == [(first.alloc_id, 2)]
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
    # an id past the field raises instead of wrapping, with the link as it
    # was; 2**64 allocations are out of any run's reach
    state = (link.used, list(link.excess), dict(link.minimums),
             [dict(table) for table in link.class_excess[1:]])
    with pytest.raises(struct.error):
        link.admit(21.0, 6, C3, 4, 4, 0)
    assert (link.used, link.excess, link.minimums, link.class_excess[1:]) == state
    assert len(link.ledger) == 4 * LEDGER_RECORD.size


def test_unpackable_admit_leaves_its_victims_uncut():
    # the new record cannot hold a video id of 2**32, and the admit would
    # have reclaimed 2 MB/s from the first stream to make room
    link = Link(PS_CMS, 30, "wide")
    first = link.admit(0.0, 1, C1, 6, 20, 0)
    assert link.plan_reclaim(C1, 2) == [(first, 2)]
    with pytest.raises(struct.error):
        link.admit(5.0, FIELD_MAX + 1, C1, 12, 18, 1)
    assert link.rate(first) == 20 and link.class_excess[C1] == {first: 14}
    assert (link.used, link.excess[C1], first.sent, first.since) == (20, 14, 0.0, 0.0)
    assert len(link.ledger) == LEDGER_RECORD.size
    link.check_conservation()


def test_engine_matches_oracle_on_random_states():
    rng = random.Random(2024)
    for case in range(800):
        capacity, existing, request = random_link_state(rng, base_id=10_000_000 + case * 10)
        link = force_link(capacity, existing)
        expected = oracle_admit(capacity, existing, request)
        alloc = link.admit(5.0, 0, request.user_class,
                           request.min_rate, request.max_rate, weight=3)
        if expected is None:
            assert alloc is None
            assert link.used == sum(s.rate for s in existing)
            assert live_rates(link) == {s.alloc_id: s.rate for s in existing}
            assert not link.ledger
        else:
            rate, victims = expected
            assert alloc is not None
            assert link.rate(alloc) == rate
            got = admit_cuts(link)
            assert got is not None and sorted(got) == sorted(victims)
            link.check_conservation()


def test_plan_reclaim_rejects_exactly_when_excess_is_short():
    # the C3 random link states, each short of the request's minimum and of
    # its maximum by what free bandwidth leaves; the pool is summed here
    # from the drawn streams.  A shortfall outside 1..pool raises, and
    # admit refuses exactly a request whose minimum the pool cannot cover
    rng = random.Random(20240814)
    rejected = reclaimed = 0
    for case in range(10000):
        capacity, existing, request = random_link_state(rng, base_id=1_000_000)
        link = force_link(capacity, existing)
        c = request.user_class
        pool = sum(s.rate - s.min_rate for s in existing if s.user_class == c)
        assert link.excess[c] == pool
        free = link.capacity - link.used
        for shortfall in (request.min_rate - free, request.max_rate - free):
            short = shortfall > pool
            if short or shortfall <= 0:
                with pytest.raises(ValueError, match="shortfall"):
                    link.plan_reclaim(c, shortfall)
            else:
                victims = link.plan_reclaim(c, shortfall)
                assert sum(take for _, take in victims) == shortfall, f"case {case}"
                reclaimed += 1
            rejected += short
        before = link_state(link)
        alloc = link.admit(5.0, 0, c, request.min_rate, request.max_rate, weight=3)
        assert (alloc is None) == (request.min_rate - free > pool), f"case {case}"
        if alloc is None:
            assert link_state(link) == before
    assert rejected > 1000 and reclaimed > 1000


def test_admit_refuses_a_hopeless_request_without_planning(monkeypatch):
    # per class, free bandwidth from 0 up to the request's minimum, and the
    # class's excess one below, at and one above the shortfall; the other
    # class on the link holds plenty of excess, which must not count
    plan_reclaim, calls = Link.plan_reclaim, []

    def counted(self, user_class, shortfall):
        calls.append((user_class, shortfall))
        return plan_reclaim(self, user_class, shortfall)

    monkeypatch.setattr(Link, "plan_reclaim", counted)
    min_rate, max_rate = 10, 15
    rejected = reclaimed = 0
    for c in CLASSES:
        for free in range(min_rate + 1):
            shortfall = min_rate - free
            for excess in range(max(0, shortfall - 1), shortfall + 2):
                link = fresh_link(100)
                link.admit(0.0, 1, c, min_rate=1, max_rate=1 + excess // 2, weight=2)
                link.admit(0.0, 2, c, min_rate=1, max_rate=1 + excess - excess // 2, weight=1)
                link.admit(0.0, 3, c % 3 + 1, min_rate=1, max_rate=98 - excess - free, weight=0)
                assert (link.capacity - link.used, link.excess[c]) == (free, excess)
                short = excess < shortfall
                planned = [] if short or not shortfall else plan_reclaim(link, c, shortfall)
                before = link_state(link)
                calls.clear()
                alloc = link.admit(5.0, 9, c, min_rate=min_rate, max_rate=max_rate, weight=0)
                assert (alloc is None) == short, (c, free, excess)
                if alloc is None:
                    assert link_state(link) == before and calls == []
                    rejected += 1
                else:
                    assert calls == ([(c, shortfall)] if shortfall else [])
                    appended = link.ledger[len(before[-1]):]
                    assert appended == b"".join(
                        [LEDGER_RECORD.pack(5.0, RECLAIM, victim.alloc_id, victim.video_id, c,
                                            take, 1, victim.max_rate)
                         for victim, take in planned]
                        + [LEDGER_RECORD.pack(5.0, ALLOCATE, alloc.alloc_id, 9, c, min_rate,
                                              min_rate, max_rate)])
                    reclaimed += bool(planned)
                link.check_conservation()
    assert rejected == 3 * min_rate and reclaimed > 3 * min_rate


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
            alloc = link.admit(float(step), rng.randrange(40), user_class,
                               rng.randint(min_lo, min_hi), rng.randint(max_lo, max_hi),
                               weight=rng.randrange(10))
            if alloc is not None:
                live.append(alloc)
                reclaims += bool(admit_cuts(link, seen))
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
    pool = link.excess[C3]
    link.excess[C3] += 30
    with pytest.raises(InvariantViolation):
        link.plan_reclaim(C3, pool + 1)


# few video ids and weights, so reclaim order ties often
VIDEO_IDS, WEIGHTS, SPREADS = st.integers(0, 2), st.integers(0, 2), st.integers(0, 8)
# (video id, class, minimum, maximum above the minimum, weight)
REQUESTS = st.tuples(VIDEO_IDS, st.sampled_from(CLASSES), st.integers(1, 8), SPREADS, WEIGHTS)


class LinkMachine(RuleBasedStateMachine):
    """One link driven by admits, releases of live streams and forced
    reclaims.  Every admit must give the rate and cut the victims that
    ``oracle_admit`` gives on the oracle's own record of the live streams,
    and after every step the running counters must equal a recount of the
    tables, which must hold the oracle's streams: each one's minimum, and
    the excess of each one above it."""

    def __init__(self):
        super().__init__()
        self.link = Link(PS_CMS, 40, "machine")
        self.time = 0.0
        self.streams = {}  # each live allocation's (rate, minimum), as the oracle gives them

    def judged_admit(self, video_id, user_class, min_rate, max_rate, weight):
        """Admit on the link, check it against the oracle, return its cuts."""
        link, streams = self.link, self.streams
        existing = [ExistingStream(alloc.alloc_id, alloc.video_id, alloc.user_class,
                                   rate, minimum, alloc.max_rate, alloc.weight)
                    for alloc, (rate, minimum) in streams.items()]
        expected = oracle_admit(link.capacity, existing,
                                AdmitRequest(user_class, min_rate, max_rate))
        start = len(link.ledger)
        self.time += 1.0
        alloc = link.admit(self.time, video_id, user_class, min_rate, max_rate, weight)
        if expected is None:
            assert alloc is None and len(link.ledger) == start
            return None
        rate, victims = expected
        assert alloc is not None and link.rate(alloc) == rate
        cuts = admit_cuts(link, start)
        assert cuts == victims
        by_id = {alloc.alloc_id: alloc for alloc in streams}
        for alloc_id, take in victims:
            victim_rate, minimum = streams[by_id[alloc_id]]
            streams[by_id[alloc_id]] = (victim_rate - take, minimum)
        streams[alloc] = (rate, min_rate)
        return cuts

    @initialize(requests=st.lists(REQUESTS, max_size=8))
    def load(self, requests):
        # start from up to eight streams, so that a forced reclaim often has
        # several streams of its class to choose from
        for request in requests:
            self.admit(request)

    @rule(request=REQUESTS)
    def admit(self, request):
        video_id, user_class, min_rate, spread, weight = request
        self.judged_admit(video_id, user_class, min_rate, min_rate + spread, weight)

    @precondition(lambda self: self.link.used < self.link.capacity)
    @rule(data=st.data(), video_id=VIDEO_IDS, user_class=st.sampled_from(CLASSES),
          spread=SPREADS, weight=WEIGHTS)
    def exact_fit(self, data, video_id, user_class, spread, weight):
        # a maximum, or else a minimum, of exactly the free bandwidth
        free = self.link.capacity - self.link.used
        if data.draw(st.booleans()):
            min_rate, max_rate = max(1, free - spread), free
        else:
            min_rate, max_rate = free, free + spread
        assert self.judged_admit(video_id, user_class, min_rate, max_rate, weight) == []

    @precondition(lambda self: self.streams)
    @rule(data=st.data())
    def release(self, data):
        live = sorted(self.streams, key=lambda alloc: alloc.alloc_id)
        alloc = data.draw(st.sampled_from(live))
        self.time += 1.0
        self.link.release(self.time, alloc)
        del self.streams[alloc]

    @precondition(lambda self: any(self.link.excess[1:]))
    @rule(data=st.data(), video_id=VIDEO_IDS, spread=SPREADS, weight=WEIGHTS)
    def forced_reclaim(self, data, video_id, spread, weight):
        # a minimum above free bandwidth but within free plus the class's excess
        link = self.link
        user_class = data.draw(st.sampled_from([c for c in CLASSES if link.excess[c]]))
        free = link.capacity - link.used
        min_rate = data.draw(st.integers(free + 1, free + link.excess[user_class]))
        assert self.judged_admit(video_id, user_class, min_rate, min_rate + spread, weight)

    @invariant()
    def conserved(self):
        self.link.check_conservation()

    @invariant()
    def only_streams_above_their_minimum_hold_excess(self):
        link, streams = self.link, self.streams
        assert link.minimums == {alloc: minimum for alloc, (_, minimum) in streams.items()}
        for c in CLASSES:
            assert link.class_excess[c] == {
                alloc: rate - minimum for alloc, (rate, minimum) in streams.items()
                if alloc.user_class == c and rate > minimum}
            assert all(excess > 0 for excess in link.class_excess[c].values())


LinkMachine.TestCase.settings = settings(
    derandomize=True, database=None, report_multiple_bugs=False,
    max_examples=25, stateful_step_count=20, deadline=None,
)
TestLinkMachine = LinkMachine.TestCase
