"""Reference admission model, kept deliberately naive.

This is a straight transcription of the admission rule the engine is
supposed to implement, written against plain tuples with no shared code:
try the class maximum, fall back to the class minimum, otherwise cover the
minimum from free bandwidth plus excess reclaimed from same-class streams
in ascending (weight, video, id) order, all or nothing.  Tests compare the
real engine against this on randomized link states.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from vodsim.allocation import ALLOCATE, LEDGER_RECORD, PS_CMS, RECLAIM, Allocation, Link
from vodsim.model import BW_RANGES, CLASSES


class ExistingStream(NamedTuple):
    alloc_id: int
    video_id: int
    user_class: int
    rate: int
    min_rate: int
    max_rate: int
    weight: int


class AdmitRequest(NamedTuple):
    user_class: int
    min_rate: int
    max_rate: int


def oracle_admit(
    capacity: int, existing: list[ExistingStream], request: AdmitRequest
) -> tuple[int, list[tuple[int, int]]] | None:
    """Return (admitted rate, victim (id, amount) list) or None for reject."""
    free = capacity - sum(stream.rate for stream in existing)
    if free >= request.max_rate:
        return request.max_rate, []
    if free >= request.min_rate:
        return request.min_rate, []
    needed = request.min_rate - free
    pool = sorted(
        (s for s in existing if s.user_class == request.user_class and s.rate > s.min_rate),
        key=lambda s: (s.weight, s.video_id, s.alloc_id),
    )
    victims = []
    for stream in pool:
        take = min(stream.rate - stream.min_rate, needed)
        victims.append((stream.alloc_id, take))
        needed -= take
        if needed == 0:
            return request.min_rate, victims
    return None


def force_link(capacity: int, existing: list[ExistingStream]) -> Link:
    """Build a link already carrying the given allocations, no history.

    The running counters are set here and then audited by the link's own
    conservation check, so a forced state they disagree with fails at once.
    """
    link = Link(PS_CMS, capacity, "forced")
    for s in existing:
        alloc = Allocation(s.alloc_id, s.video_id, s.user_class, s.max_rate, s.weight)
        link.minimums[alloc] = s.min_rate
        if s.rate > s.min_rate:  # a stream at its minimum has no excess entry
            link.class_excess[s.user_class][alloc] = s.rate - s.min_rate
            link.excess[s.user_class] += s.rate - s.min_rate
        link.used += s.rate
    if link.used > capacity:
        raise ValueError("forced state exceeds capacity")
    link.check_conservation()
    return link


def admit_cuts(link: Link, start: int = 0) -> list[tuple[int, int]] | None:
    """The (allocation id, take) of each stream cut by the admit that
    appended ``link.ledger[start:]``, in record order, or None unless those
    bytes are what an admit appends: its RECLAIM records, then its own
    ALLOCATE record.  ``force_link`` writes no records, so after one admit
    on a forced link the whole ledger is that admit's."""
    records = [(op, alloc_id, amount) for _time, op, alloc_id, _video, _class, amount, _lo, _hi
               in LEDGER_RECORD.iter_unpack(link.ledger[start:])]
    if not records or records[-1][0] != ALLOCATE or any(op != RECLAIM for op, *_ in records[:-1]):
        return None
    return [(alloc_id, amount) for _op, alloc_id, amount in records[:-1]]


def random_link_state(
    rng: random.Random, base_id: int = 1_000_000
) -> tuple[int, list[ExistingStream], AdmitRequest]:
    """Draw a small random link state plus one admission request.

    Weights and video ids collide often on purpose, to exercise the
    victim-order tie-breaks.
    """
    capacity = rng.randint(30, 90)
    existing = []
    used = 0
    for i in range(rng.randint(0, 6)):
        user_class = rng.choice(CLASSES)
        min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
        min_rate = rng.randint(min_lo, min_hi)
        max_rate = rng.randint(max_lo, max_hi)
        rate = rng.randint(min_rate, max_rate)
        if used + rate > capacity:
            break
        used += rate
        existing.append(ExistingStream(
            base_id + i, rng.randrange(12), user_class, rate, min_rate, max_rate,
            rng.randrange(20),
        ))
    user_class = rng.choice(CLASSES)
    min_lo, min_hi, max_lo, max_hi = BW_RANGES[user_class]
    request = AdmitRequest(user_class, rng.randint(min_lo, min_hi), rng.randint(max_lo, max_hi))
    return capacity, existing, request
