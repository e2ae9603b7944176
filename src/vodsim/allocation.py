"""Per-link bandwidth accounting and class-aware admission.

A link carries integer MB/s allocations, one per live stream.  Admission
is all-or-nothing: try the stream's class maximum, then its minimum, then
try to cover the minimum by reclaiming excess (allocated minus minimum)
from already-admitted streams of the same class, taking from the lowest
demand weight upward.  If even that cannot cover the minimum the request
is rejected and the link is left untouched.  A link keeps each class's
total excess running next to its used bandwidth, so a request that free
bandwidth plus that excess cannot cover is rejected without a scan.

Every mutation appends a row to the link's ``rows``, its ledger, so a
link's utilization over time can be replayed exactly from the link without
trusting the live counters.

An allocation is the one record of its live stream.  It banks the bytes
it has carried: a reclaim adds the bytes sent at the old rate before it
cuts the rate, and a release adds the last segment, so a stream's bytes
are exact however often its rate changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .model import CLASSES, UserClass


class LinkKind(Enum):
    """Which leg of the topology a link models, from the proxy's viewpoint."""

    PS_LPS = "ps_lps"
    PS_RPS = "ps_rps"
    PS_CMS = "ps_cms"


LINK_KINDS: tuple[LinkKind, ...] = (LinkKind.PS_LPS, LinkKind.PS_RPS, LinkKind.PS_CMS)


class InvariantViolation(RuntimeError):
    """Raised when link accounting would go out of bounds; indicates a bug."""


@dataclass(slots=True)
class Allocation:
    """One admitted stream's share of a link, in whole MB/s, and the MB it
    has carried: ``sent`` counts the bytes up to ``since``, the time of its
    last rate change, and ``rate`` has held since then."""

    alloc_id: int
    video_id: int
    user_class: UserClass
    rate: int
    min_rate: int
    max_rate: int
    weight: int
    sent: float = 0.0
    since: float = 0.0


@dataclass(slots=True)
class LedgerRow:
    """One append-only accounting record: allocate, reclaim or release.

    Each row carries its allocation's rate window, so a replay can rebuild
    the per-class minimum and maximum sums as well as the rates.
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
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.kind = kind
        self.capacity = capacity
        self.label = label or kind.value
        self.id_source = id_source if id_source is not None else itertools.count(1)
        self.allocations: dict[int, Allocation] = {}
        self.used = 0
        # excess[c]: sum of rate - min_rate over live allocations of class c
        self.excess = [0] * (len(CLASSES) + 1)
        self.rows: list[LedgerRow] = []  # the ledger

    def free_bandwidth(self) -> int:
        return self.capacity - self.used

    def _log(self, time: float, op: str, alloc: Allocation, amount: int) -> None:
        self.rows.append(
            LedgerRow(time, op, alloc.alloc_id, alloc.video_id, int(alloc.user_class), amount,
                      alloc.min_rate, alloc.max_rate)
        )

    def plan_reclaim(self, user_class: UserClass, needed: int) -> list[tuple[int, int]] | None:
        """Plan how to cover ``needed`` MB/s for a new stream of this class.

        Free bandwidth counts first; any remainder must come from excess
        (rate above minimum) held by same-class allocations, visited in
        ascending weight order (ties: video id, then allocation id).
        Returns the (alloc_id, take) victims, empty when free bandwidth
        alone covers the need, or None when the need cannot be covered,
        which the class's running excess tells before any allocation is
        visited.
        """
        if needed < 0:
            raise ValueError("needed must be non-negative")
        remaining = needed - (self.capacity - self.used)
        if remaining <= 0:
            return []
        if remaining > self.excess[user_class]:
            return None
        victims = []
        for alloc in sorted(
            (a for a in self.allocations.values()
             if a.user_class == user_class and a.rate > a.min_rate),
            key=lambda a: (a.weight, a.video_id, a.alloc_id),
        ):
            take = min(alloc.rate - alloc.min_rate, remaining)
            victims.append((alloc.alloc_id, take))
            remaining -= take
            if remaining == 0:
                return victims
        raise InvariantViolation(f"link {self.label}: class {int(user_class)} excess "
                                 f"{self.excess[user_class]} exceeds its allocations")

    def _apply_reclaim(self, time: float, victims: list[tuple[int, int]]) -> None:
        for alloc_id, take in victims:
            alloc = self.allocations[alloc_id]
            if take <= 0 or alloc.rate - take < alloc.min_rate:
                raise InvariantViolation("reclaim would push a stream below its minimum")
            alloc.sent += alloc.rate * (time - alloc.since)
            alloc.since = time
            alloc.rate -= take
            self.used -= take
            self.excess[alloc.user_class] -= take
            self._log(time, "reclaim", alloc, take)

    def admit(
        self,
        time: float,
        video_id: int,
        user_class: UserClass,
        min_rate: int,
        max_rate: int,
        weight: int,
    ) -> tuple[Allocation, list[tuple[int, int]]] | None:
        """Admit a stream or reject it, leaving the link untouched on reject.

        Returns the new allocation and the (alloc_id, take) victims its
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
        alloc = Allocation(next(self.id_source), video_id, user_class,
                           rate, min_rate, max_rate, weight, since=time)
        self.allocations[alloc.alloc_id] = alloc
        self.used += rate
        self.excess[user_class] += rate - min_rate
        if self.used > self.capacity:
            raise InvariantViolation(
                f"link {self.label} over capacity: {self.used} > {self.capacity}"
            )
        self._log(time, "allocate", alloc, rate)
        return alloc, victims

    def release(self, time: float, alloc_id: int) -> Allocation:
        """Tear down an allocation and return it with its bytes banked up
        to ``time``; unknown ids are a bug."""
        alloc = self.allocations.pop(alloc_id, None)
        if alloc is None:
            raise InvariantViolation(f"release of unknown allocation {alloc_id}")
        alloc.sent += alloc.rate * (time - alloc.since)
        alloc.since = time
        self.used -= alloc.rate
        self.excess[alloc.user_class] -= alloc.rate - alloc.min_rate
        if self.used < 0:
            raise InvariantViolation(f"link {self.label} used went negative")
        self._log(time, "release", alloc, alloc.rate)
        return alloc

    def check_conservation(self) -> None:
        """Assert the running counters equal a recount of the live allocations:
        ``used`` their rates, ``excess`` their per-class rate above minimum."""
        total = 0
        excess = [0] * len(self.excess)
        for alloc in self.allocations.values():
            total += alloc.rate
            excess[alloc.user_class] += alloc.rate - alloc.min_rate
        if total != self.used:
            raise InvariantViolation(
                f"link {self.label}: used={self.used} but allocations sum to {total}"
            )
        if excess != self.excess:
            raise InvariantViolation(
                f"link {self.label}: excess={self.excess} but allocations give {excess}"
            )
        if not 0 <= self.used <= self.capacity:
            raise InvariantViolation(f"link {self.label}: used={self.used} out of bounds")

