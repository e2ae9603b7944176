"""Per-link bandwidth accounting and class-aware admission.

A link carries integer MB/s allocations, one per live stream.  Admission
is all-or-nothing: try the stream's class maximum, then its minimum, then
try to cover the minimum by reclaiming excess (allocated minus minimum)
from already-admitted streams of the same class, taking from the lowest
demand weight upward.  If even that cannot cover the minimum the request
is rejected and the link is left untouched.

A live stream's rate lives only in its link's integer tables: its minimum,
and per class the excess of each stream above it.  Each class's total runs
next to the used bandwidth, so ``admit`` refuses a request that free
bandwidth plus that excess cannot cover without scanning or calling
``plan_reclaim``, and a reclaim sorts only the streams that can give.  The
audit recounts both counters; a run recounts a link at a sample only if its
ledger grew past its ``audited`` mark, and every link once before the drain.

Every mutation appends one packed ``LEDGER_RECORD`` to the link's
``ledger``, a ``bytearray``, so a link's utilization over time can be
replayed exactly from the link without trusting the live counters.  The
record's fields are fixed-width: ``SimConfig.validate()`` and the catalog
check refuse, up front, any capacity, rate or video id wider than
``FIELD_MAX``, so no value is ever truncated.  ``Link.rows`` decodes the
bytes into ``LedgerRow``s for inspection; nothing in the package reads it.

An allocation is the one record of its live stream.  It banks the bytes
it has carried: a reclaim adds the bytes sent at the old rate before it
cuts the rate, and a release adds the last segment, so a stream's bytes
are exact however often its rate changes.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from operator import attrgetter

from .model import CLASSES

# The kind of a link: which inbound leg of a proxy it models, from its left
# neighbor, its right neighbor or the central server.  Reports name each
# kind by this string.
LINK_KINDS = PS_LPS, PS_RPS, PS_CMS = ("ps_lps", "ps_rps", "ps_cms")


# One ledger record: exact float64 time, op code, allocation id, video id,
# class, amount (MB/s), and the stream's minimum and maximum rate (MB/s).
# Allocation ids are 64-bit, which no run can exhaust; the other int
# fields hold at most FIELD_MAX.
LEDGER_RECORD = struct.Struct("<dBQIBIII")
FIELD_MAX = 2**32 - 1
ALLOCATE, RECLAIM, RELEASE = range(3)
OPS = ("allocate", "reclaim", "release")  # the name of each op code
RECLAIM_ORDER = attrgetter("weight", "video_id", "alloc_id")  # see Link.plan_reclaim


class InvariantViolation(RuntimeError):
    """Raised when link accounting would go out of bounds; indicates a bug."""


@dataclass(slots=True, eq=False)
class Allocation:
    """One admitted stream on a link and the MB it has carried: ``sent``
    counts the bytes up to ``since``, the time of its last rate change.
    Its rate lives in its link's tables, keyed by the allocation itself
    (equality is identity)."""

    alloc_id: int
    video_id: int
    user_class: int
    max_rate: int
    weight: int
    sent: float = 0.0
    since: float = 0.0


@dataclass(slots=True)
class LedgerRow:
    """One ledger record, decoded with its op as a name: allocate, reclaim
    or release.  Only ``Link.rows`` builds these.

    Each record carries its allocation's rate window, so a replay can
    rebuild the per-class minimum and maximum sums as well as the rates.
    """

    time: float
    op: str
    alloc_id: int
    video_id: int
    user_class: int
    amount: int
    min_rate: int
    max_rate: int


class Link:
    """A directed link with fixed integer capacity in MB/s.  Its ``kind``
    is one of ``LINK_KINDS``; any other kind raises ``ValueError``.

    Links meant to coexist (one topology) should share an ``id_source`` so
    allocation ids are unique across them; a lone link defaults to its own
    counter.  Scoping the counter this way keeps ids reproducible run to
    run instead of leaking state between simulations in one process.
    """

    def __init__(self, kind: str, capacity: int, label: str = "", id_source=None):
        if kind not in LINK_KINDS:
            raise ValueError(f"link kind must be one of {LINK_KINDS}, got {kind!r}")
        if type(capacity) is not int or not 0 < capacity <= FIELD_MAX:
            raise ValueError(f"capacity must be an int in 1..{FIELD_MAX}, got {capacity!r}")
        self.kind = kind
        self.capacity = capacity
        self.label = label or kind
        self.id_source = id_source if id_source is not None else itertools.count(1)
        # the live allocations: each one's minimum rate, and per class (a
        # list indexed by the class, 1 to 3, so slot 0 is None) its positive
        # rate above that minimum, for each one that has some
        self.minimums: dict[Allocation, int] = {}
        self.class_excess: list[dict[Allocation, int] | None] = [None, {}, {}, {}]
        self.used = 0
        # excess[c]: the sum of class_excess[c]
        self.excess = [0] * (len(CLASSES) + 1)
        self.ledger = bytearray()  # one LEDGER_RECORD per mutation
        self.audited = 0  # the ledger's length at the last audit that passed

    def rate(self, alloc: Allocation) -> int:
        """The current rate of a live allocation."""
        return self.minimums[alloc] + self.class_excess[alloc.user_class].get(alloc, 0)

    @property
    def rows(self) -> tuple[LedgerRow, ...]:
        """The ledger decoded, one ``LedgerRow`` per record, for tests and
        for the benchmark's traced layer metrics; nothing in the package
        calls it.  It can go once the benchmark no longer reads it."""
        return tuple(LedgerRow(time, OPS[op], *fields)
                     for time, op, *fields in LEDGER_RECORD.iter_unpack(self.ledger))

    def plan_reclaim(self, user_class: int, shortfall: int) -> list[tuple[Allocation, int]]:
        """Pick the streams that give up ``shortfall`` MB/s for a new stream
        of this class: the part of its minimum that free bandwidth leaves
        uncovered.  Same-class allocations give their excess (rate above
        minimum) in ascending weight order (ties: video id, then allocation
        id), and the (allocation, take) victims are returned.  A shortfall
        outside 1..``excess[user_class]`` raises ``ValueError``; ``admit``
        refuses such a request itself.  Only the class's own table is
        sorted, and it holds only streams with excess to give.
        """
        if not 0 < shortfall <= self.excess[user_class]:
            raise ValueError(f"shortfall {shortfall} outside 1..{self.excess[user_class]}")
        table = self.class_excess[user_class]
        victims = []
        for alloc in sorted(table, key=RECLAIM_ORDER):
            take = min(table[alloc], shortfall)
            victims.append((alloc, take))
            shortfall -= take
            if shortfall == 0:
                return victims
        raise InvariantViolation(f"link {self.label}: class {user_class} excess "
                                 f"{self.excess[user_class]} exceeds its allocations")

    def admit(
        self,
        time: float,
        video_id: int,
        user_class: int,
        min_rate: int,
        max_rate: int,
        weight: int,
    ) -> Allocation | None:
        """Admit a stream or reject it, leaving the link untouched on reject.

        Returns the new allocation, or None on rejection.  This is the one
        admission decision: a request whose minimum free bandwidth plus its
        class's excess cannot cover is refused here, and ``plan_reclaim``
        only picks the victims of a shortfall that excess covers.  The
        streams its reclaim cut are the ``RECLAIM`` records it appends, each
        amount a take, before its own ``ALLOCATE`` record.  An int class
        outside 1..3, or bad rate bounds, raise ``ValueError`` first.  The
        record is packed before any table changes but after the allocation
        id is drawn, so a float rate or class, or a field above
        ``FIELD_MAX``, raises ``struct.error`` with the link untouched and
        that id spent.  ``True`` passes as class 1, and a float class that
        must reclaim or is refused raises ``TypeError``.
        """
        if not (0 < min_rate <= max_rate and 1 <= user_class <= 3):
            raise ValueError(f"bad class {user_class} or rate bounds ({min_rate}, {max_rate})")
        free = self.capacity - self.used
        shortfall = min_rate - free
        if free >= max_rate:
            rate, victims = max_rate, ()
        elif shortfall <= 0:
            rate, victims = min_rate, ()
        elif shortfall > self.excess[user_class]:
            return None
        else:
            rate, victims = min_rate, self.plan_reclaim(user_class, shortfall)
        alloc_id = next(self.id_source)
        record = LEDGER_RECORD.pack(time, ALLOCATE, alloc_id, video_id, user_class, rate,
                                    min_rate, max_rate)
        table = self.class_excess[user_class]  # every victim is of this class
        for victim, take in victims:
            excess = table[victim]
            if not 0 < take <= excess:
                raise InvariantViolation("reclaim would push a stream below its minimum")
            minimum = self.minimums[victim]
            victim.sent += (minimum + excess) * (time - victim.since)
            victim.since = time
            if take < excess:
                table[victim] = excess - take
            else:
                del table[victim]
            self.used -= take
            self.excess[user_class] -= take
            self.ledger += LEDGER_RECORD.pack(time, RECLAIM, victim.alloc_id, victim.video_id,
                                              user_class, take, minimum, victim.max_rate)
        alloc = Allocation(alloc_id, video_id, user_class, max_rate, weight, since=time)
        self.minimums[alloc] = min_rate
        if rate > min_rate:
            table[alloc] = rate - min_rate
            self.excess[user_class] += rate - min_rate
        self.used += rate
        if self.used > self.capacity:
            raise InvariantViolation(
                f"link {self.label} over capacity: {self.used} > {self.capacity}"
            )
        self.ledger += record
        return alloc

    def release(self, time: float, alloc: Allocation) -> Allocation:
        """Tear down an allocation and return it with its bytes banked up
        to ``time``; an allocation not live here is a bug."""
        minimum = self.minimums.pop(alloc, None)
        if minimum is None:
            raise InvariantViolation(f"release of unknown allocation {alloc.alloc_id}")
        excess = self.class_excess[alloc.user_class].pop(alloc, 0)
        rate = minimum + excess
        alloc.sent += rate * (time - alloc.since)
        alloc.since = time
        self.used -= rate
        self.excess[alloc.user_class] -= excess
        if self.used < 0:
            raise InvariantViolation(f"link {self.label} used went negative")
        self.ledger += LEDGER_RECORD.pack(time, RELEASE, alloc.alloc_id, alloc.video_id,
                                          alloc.user_class, rate, minimum, alloc.max_rate)
        return alloc

    def check_conservation(self) -> None:
        """Assert the running counters equal a recount of the live tables:
        each ``excess[c]`` the sum of class ``c``'s table, whose streams all
        run above their minimum, and ``used`` the minimums plus all the
        excess.  A passing recount marks the ledger's length as ``audited``.
        A run calls it at a sample on each link whose ledger grew past that
        mark, and on every link once before the drain, hence the unpacking."""
        _, table1, table2, table3 = self.class_excess
        _, excess1, excess2, excess3 = self.excess
        if (sum(table1.values()) != excess1 or sum(table2.values()) != excess2
                or sum(table3.values()) != excess3):
            recount = [sum(table.values()) for table in self.class_excess[1:]]
            raise InvariantViolation(
                f"link {self.label}: excess={self.excess[1:]} but the class tables give {recount}"
            )
        total = sum(self.minimums.values()) + excess1 + excess2 + excess3
        if total != self.used:
            raise InvariantViolation(
                f"link {self.label}: used={self.used} but allocations sum to {total}"
            )
        if not 0 <= self.used <= self.capacity:
            raise InvariantViolation(f"link {self.label}: used={self.used} out of bounds")
        self.audited = len(self.ledger)
