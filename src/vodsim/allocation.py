"""Per-link bandwidth accounting and class-aware admission.

A link carries integer MB/s allocations, one per live stream.  Admission
is all-or-nothing: try the stream's class maximum, then its minimum, then
try to cover the minimum by reclaiming excess (allocated minus minimum)
from already-admitted streams of the same class, taking from the lowest
demand weight upward.  If even that cannot cover the minimum the request
is rejected and the link is left untouched.

A live stream's rate lives only in its link's integer tables: its minimum,
and per class its excess.  Each class's total excess runs next to the used
bandwidth, so a request that free bandwidth plus that excess cannot cover
is rejected without a scan, a reclaim scans only its class's table, and
the audit recounts both counters with builtin sums over the tables.

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
from enum import Enum
from operator import attrgetter

from .model import CLASSES, UserClass


class LinkKind(Enum):
    """Which leg of the topology a link models, from the proxy's viewpoint."""

    PS_LPS = "ps_lps"
    PS_RPS = "ps_rps"
    PS_CMS = "ps_cms"


LINK_KINDS: tuple[LinkKind, ...] = (LinkKind.PS_LPS, LinkKind.PS_RPS, LinkKind.PS_CMS)


# One ledger record: exact float64 time, op code, allocation id, video id,
# class, amount (MB/s), and the stream's minimum and maximum rate (MB/s).
# Allocation ids are 64-bit, which no run can exhaust; the other int
# fields hold at most FIELD_MAX.
LEDGER_RECORD = struct.Struct("<dBQIBIII")
FIELD_MAX = 2**32 - 1
ALLOCATE, RECLAIM, RELEASE = range(3)
OPS = ("allocate", "reclaim", "release")  # the name of each op code


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
    user_class: UserClass
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
    """A directed link with fixed integer capacity in MB/s.

    Links meant to coexist (one topology) should share an ``id_source`` so
    allocation ids are unique across them; a lone link defaults to its own
    counter.  Scoping the counter this way keeps ids reproducible run to
    run instead of leaking state between simulations in one process.
    """

    def __init__(self, kind: LinkKind, capacity: int, label: str = "", id_source=None):
        if not 0 < capacity <= FIELD_MAX:
            raise ValueError(f"capacity must be in 1..{FIELD_MAX}, got {capacity}")
        self.kind = kind
        self.capacity = capacity
        self.label = label or kind.value
        self.id_source = id_source if id_source is not None else itertools.count(1)
        # the live allocations: each one's minimum rate, and per class (a
        # list indexed by the UserClass int, so slot 0 is None) its rate
        # above that minimum
        self.minimums: dict[Allocation, int] = {}
        self.class_excess: list[dict[Allocation, int] | None] = [None, {}, {}, {}]
        self.used = 0
        # excess[c]: the sum of class_excess[c]
        self.excess = [0] * (len(CLASSES) + 1)
        self.ledger = bytearray()  # one LEDGER_RECORD per mutation

    def free_bandwidth(self) -> int:
        return self.capacity - self.used

    def rate(self, alloc: Allocation) -> int:
        """The current rate of a live allocation."""
        return self.minimums[alloc] + self.class_excess[alloc.user_class][alloc]

    @property
    def rows(self) -> tuple[LedgerRow, ...]:
        """The ledger decoded, one ``LedgerRow`` per record, for tests and
        for the benchmark's traced layer metrics; nothing in the package
        calls it.  It can go once the benchmark no longer reads it."""
        return tuple(LedgerRow(time, OPS[op], *fields)
                     for time, op, *fields in LEDGER_RECORD.iter_unpack(self.ledger))

    def _log(self, time: float, op: int, alloc: Allocation, amount: int, min_rate: int) -> None:
        self.ledger += LEDGER_RECORD.pack(time, op, alloc.alloc_id, alloc.video_id,
                                          alloc.user_class, amount, min_rate, alloc.max_rate)

    def plan_reclaim(self, user_class: UserClass,
                     needed: int) -> list[tuple[Allocation, int]] | None:
        """Plan how to cover ``needed`` MB/s for a new stream of this class.

        Free bandwidth counts first; any remainder must come from excess
        (rate above minimum) held by same-class allocations, visited in
        ascending weight order (ties: video id, then allocation id).
        Returns the (allocation, take) victims, empty when free bandwidth
        alone covers the need, or None when the need cannot be covered,
        which the class's running excess tells before any allocation is
        visited.  Only the class's own table is scanned.
        """
        if needed < 0:
            raise ValueError("needed must be non-negative")
        remaining = needed - (self.capacity - self.used)
        if remaining <= 0:
            return []
        if remaining > self.excess[user_class]:
            return None
        table = self.class_excess[user_class]
        victims = []
        for alloc in sorted((a for a, excess in table.items() if excess),
                            key=attrgetter("weight", "video_id", "alloc_id")):
            take = min(table[alloc], remaining)
            victims.append((alloc, take))
            remaining -= take
            if remaining == 0:
                return victims
        raise InvariantViolation(f"link {self.label}: class {int(user_class)} excess "
                                 f"{self.excess[user_class]} exceeds its allocations")

    def _apply_reclaim(self, time: float, victims: list[tuple[Allocation, int]]) -> None:
        for alloc, take in victims:
            table = self.class_excess[alloc.user_class]
            excess = table[alloc]
            if not 0 < take <= excess:
                raise InvariantViolation("reclaim would push a stream below its minimum")
            minimum = self.minimums[alloc]
            alloc.sent += (minimum + excess) * (time - alloc.since)
            alloc.since = time
            table[alloc] = excess - take
            self.used -= take
            self.excess[alloc.user_class] -= take
            self._log(time, RECLAIM, alloc, take, minimum)

    def admit(
        self,
        time: float,
        video_id: int,
        user_class: UserClass,
        min_rate: int,
        max_rate: int,
        weight: int,
    ) -> tuple[Allocation, list[tuple[Allocation, int]]] | None:
        """Admit a stream or reject it, leaving the link untouched on reject.

        Returns the new allocation and the (allocation, take) victims its
        reclaim cut (empty when free bandwidth covered it), or None on
        rejection.
        """
        if not 0 < min_rate <= max_rate:
            raise ValueError(f"bad rate bounds ({min_rate}, {max_rate})")
        free = self.capacity - self.used
        if free >= max_rate:
            rate, victims = max_rate, []
        elif free >= min_rate:
            rate, victims = min_rate, []
        else:
            victims = self.plan_reclaim(user_class, min_rate)
            if victims is None:
                return None
            self._apply_reclaim(time, victims)
            rate = min_rate
        alloc = Allocation(next(self.id_source), video_id, user_class, max_rate, weight,
                           since=time)
        self.minimums[alloc] = min_rate
        self.class_excess[user_class][alloc] = rate - min_rate
        self.used += rate
        self.excess[user_class] += rate - min_rate
        if self.used > self.capacity:
            raise InvariantViolation(
                f"link {self.label} over capacity: {self.used} > {self.capacity}"
            )
        self._log(time, ALLOCATE, alloc, rate, min_rate)
        return alloc, victims

    def release(self, time: float, alloc: Allocation) -> Allocation:
        """Tear down an allocation and return it with its bytes banked up
        to ``time``; an allocation not live here is a bug."""
        minimum = self.minimums.pop(alloc, None)
        if minimum is None:
            raise InvariantViolation(f"release of unknown allocation {alloc.alloc_id}")
        excess = self.class_excess[alloc.user_class].pop(alloc)
        rate = minimum + excess
        alloc.sent += rate * (time - alloc.since)
        alloc.since = time
        self.used -= rate
        self.excess[alloc.user_class] -= excess
        if self.used < 0:
            raise InvariantViolation(f"link {self.label} used went negative")
        self._log(time, RELEASE, alloc, rate, minimum)
        return alloc

    def check_conservation(self) -> None:
        """Assert the running counters equal a recount of the live tables:
        each ``excess[c]`` the sum of class ``c``'s table, and ``used`` the
        sum of the minimums plus all the excess.  It runs on every link at
        every sample, so the three classes are unpacked, not looped over."""
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
