"""Run counters, ledger replay, the series derived from it, and report files.

The link ledgers (each link's ``ledger``, packed ``LEDGER_RECORD``s) are
the record of a run.  One walker, ``Replay``, unpacks each link's records
once and rebuilds its usage as an exact step function; it builds no row
objects.  Every reported number derives from what it returns: the
sampled series are the step function evaluated at the sample ticks, and
time-averaged utilization, bytes carried and per-class mean allocations
are its integrals, each the sum of every change times the time it holds
until the horizon.  No live counter is read.
A running simulation records only its sample ticks; ``emit_reports``
makes the one walk that writes every series, at report time.  A run is a
pure function of its config, so a paired baseline is matched by config.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .allocation import (
    ALLOCATE,
    LEDGER_RECORD,
    LINK_KINDS,
    OPS,
    RECLAIM,
    RELEASE,
    Link,
    LinkKind,
)
from .model import CLASSES, UserClass


@dataclass
class Counters:
    """Whole-run request accounting.

    Served counts are attributed when a stream finishes, so at the end of
    a run every request is exactly one of: local hit, served (by source),
    rejected, or drained at the horizon.  Request totals sum the demand table.
    """

    requested: int = 0
    local_hits: int = 0
    served_lps: int = 0
    served_rps: int = 0
    served_cms: int = 0
    rejected: int = 0
    drained: int = 0
    bytes_completed: float = 0.0
    bytes_drained: float = 0.0
    max_byte_rel_error: float = 0.0
    requested_by_class: dict[UserClass, int] = field(
        default_factory=lambda: {user_class: 0 for user_class in CLASSES}
    )

    @property
    def remote_requests(self) -> int:
        return self.requested - self.local_hits

    @property
    def served_remote(self) -> int:
        return self.served_lps + self.served_rps + self.served_cms

    @property
    def rejection_ratio(self) -> float:
        remote = self.remote_requests
        return self.rejected / remote if remote else 0.0

    @property
    def bytes_total(self) -> float:
        return self.bytes_completed + self.bytes_drained

    def identity_holds(self) -> bool:
        """requested == local hits + served + rejected + drained."""
        return self.requested == (
            self.local_hits + self.served_remote + self.rejected + self.drained
        )


# A state vector holds a link's used MB/s at index 0, then its live stream
# counts, rate sums, minimum-rate sums and maximum-rate sums; the entry of
# class c sits at the offset plus c.  Integrals cover used, counts and rates,
# each the sum of its changes times the time left to the horizon.
_COUNT, _RATE, _MIN, _MAX = 0, 3, 6, 9
_STATE_LEN, _INTEGRATED = 1 + 4 * len(CLASSES), 1 + 2 * len(CLASSES)
_CLASS_BYTES = frozenset(CLASSES)  # the class bytes a record may hold


class Replay:
    """One walk over the records of each of a set of links, in order, with
    record times clipped at ``horizon``; the package reads ledgers nowhere
    else.

    A ledger whose length is not a whole number of records, an unknown op
    or class, a reclaim or release of an allocation that is not live, a
    release of anything but the replayed rate, or usage outside
    0..capacity raises ValueError.  Afterwards ``integral[kind]`` holds the
    used, count and rate entries of the summed state vector of that kind's
    links, integrated from 0 to the horizon: each record adds its change
    times the time left to the horizon, so the used entry summed over
    kinds is the MB carried.  ``live`` holds each ledger's per-allocation
    rates after its last record.  The state at tick T is every record
    stamped before T, and ``at_ticks[kind][i]`` is the summed state vector
    of that kind's links at ``ticks[i]``; ticks ascend to at most
    ``horizon``.

    The walk costs records plus ticks, not links times ticks: each record
    adds its change to its kind's step vector of the first tick after it
    (found by ``bisect_right`` only when a record reaches the next tick;
    records after the last tick share one more step, which is dropped),
    and ``at_ticks[kind]`` is that kind's step list, prefix-summed in
    place.  A ledger keeps only its running used MB/s.
    """

    def __init__(self, ledgers: list[Link], horizon: float, ticks: Sequence[float] = ()):
        self.horizon = horizon
        self.capacity = {kind: 0 for kind in LINK_KINDS}
        self.integral = {kind: [0.0] * _INTEGRATED for kind in LINK_KINDS}
        self.live: list[dict[int, int]] = []
        steps = {kind: [[0] * _STATE_LEN for _ in range(len(ticks) + 1)] for kind in LINK_KINDS}
        first_tick = ticks[0] if ticks else math.inf
        for ledger in ledgers:
            self.capacity[ledger.kind] += ledger.capacity
            integral, kind_steps = self.integral[ledger.kind], steps[ledger.kind]
            live: dict[int, int] = {}
            self.live.append(live)
            used = 0
            step, next_tick = kind_steps[0], first_tick
            try:
                records = LEDGER_RECORD.iter_unpack(ledger.ledger)
            except struct.error as exc:
                raise ValueError(f"ledger of {ledger.label}: {exc}") from None
            for time, op, alloc_id, _, c, amount, min_rate, max_rate in records:
                if time > horizon:
                    time = horizon
                if c not in _CLASS_BYTES:
                    raise ValueError(f"bad class {c} of {alloc_id} on {ledger.label}")
                if time >= next_tick:
                    tick = bisect.bisect_right(ticks, time)
                    step = kind_steps[tick]
                    next_tick = ticks[tick] if tick < len(ticks) else math.inf
                left = horizon - time
                if op == RECLAIM and alloc_id in live:
                    live[alloc_id] -= amount
                    amount = -amount
                else:
                    if op == ALLOCATE:
                        live[alloc_id], sign = amount, 1
                    elif op == RELEASE and live.pop(alloc_id, None) == amount:
                        sign = -1
                    else:
                        name = OPS[op] if op < len(OPS) else f"op {op}"
                        raise ValueError(f"bad {name!r} of {alloc_id} on {ledger.label}")
                    step[_COUNT + c] += sign
                    step[_MIN + c] += sign * min_rate
                    step[_MAX + c] += sign * max_rate
                    integral[_COUNT + c] += sign * left
                    amount *= sign
                step[_RATE + c] += amount
                integral[_RATE + c] += amount * left
                step[0] += amount
                integral[0] += amount * left
                used += amount
                if not 0 <= used <= ledger.capacity:
                    raise ValueError(f"ledger replay out of bounds on {ledger.label}: {used}")
        for kind_steps in steps.values():
            kind_steps.pop()  # the records after the last tick
            for before, cur in itertools.pairwise(kind_steps):
                cur[:] = map(operator.add, before, cur)
        self.at_ticks = steps

    def utilization(self) -> dict[LinkKind, float]:
        """Time-averaged utilization of each kind that has links."""
        return {kind: self.integral[kind][0] / (capacity * self.horizon)
                for kind, capacity in self.capacity.items() if capacity}

    def mean_alloc(self) -> float:
        """Time-averaged allocation per live stream across every link."""
        by_kind = self.integral.values()
        streams = sum(i[_COUNT + c] for i in by_kind for c in CLASSES)
        return sum(i[0] for i in by_kind) / streams if streams else 0.0

    def mean_alloc_by_class(self) -> dict[tuple[LinkKind, UserClass], float]:
        """Time-averaged allocation per live stream, split by kind and class.

        Pairs that never carried a stream are absent from the result.
        """
        integral = self.integral
        return {(kind, c): integral[kind][_RATE + c] / integral[kind][_COUNT + c]
                for kind in LINK_KINDS for c in CLASSES if integral[kind][_COUNT + c] > 0}

    def mean_alloc_per_class(self) -> dict[UserClass, float]:
        """Time-averaged allocation per live stream of each class, all kinds
        pooled.  Classes that never held a stream are absent."""
        by_kind = self.integral.values()
        pooled = {c: (sum(i[_RATE + c] for i in by_kind), sum(i[_COUNT + c] for i in by_kind))
                  for c in CLASSES}
        return {c: rate / count for c, (rate, count) in pooled.items() if count > 0}


class MetricsBundle:
    """The sample ticks of a running simulation, in order.  The series at
    those ticks are derived from the ledgers at report time."""

    def __init__(self):
        self.ticks: list[float] = []

    def take_snapshot(self, time: float) -> None:
        self.ticks.append(time)


def time_avg_utilization(ledgers: list[Link], horizon: float) -> dict[LinkKind, float]:
    """Exact time-averaged utilization per link kind, replayed from ledgers."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return Replay(ledgers, horizon).utilization()


def _fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


_COUNTER_ROWS = (
    "requested", "local_hits", "served_lps", "served_rps", "served_cms",
    "rejected", "drained", "remote_requests", "rejection_ratio",
)


def emit_reports(result, out_dir, baseline=None) -> list[Path]:
    """Write the standard report set for a finished run.

    ``result`` is a finished run (its counters, sample ticks, ledgers and
    config are read); ``baseline`` optionally supplies a sharing-disabled
    run of ``result.config`` for side-by-side rejection numbers, such as
    ``sim.baseline_no_psg(result.config)``; a baseline with sharing on, or
    with any other config field changed, raises ``ValueError`` before a
    file is written.  Returns the paths written: nine allocation series,
    three utilization series, rejections.csv and summary.txt.

    One ``Replay`` of the ledgers at the sample ticks gives every series
    and ``util_avg_*``.  If the walk finds a corrupt ledger, the twelve
    series files hold only their header, the summary has no ``util_avg_*``
    lines and it reports ``CHECK:ledger_bounds=FAIL``.
    """
    if baseline is not None:
        if baseline.config.psg_enabled:
            raise ValueError("baseline has neighbor sharing enabled")
        if replace(baseline.config, psg_enabled=result.config.psg_enabled) != result.config:
            raise ValueError("baseline config differs from the run's in more than psg_enabled")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, lines: list[str]) -> None:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)

    config, counters, ticks = result.config, result.counters, result.metrics.ticks
    try:
        walked = Replay(result.ledgers, config.horizon, ticks)
        at_ticks, capacity, util = walked.at_ticks, walked.capacity, walked.utilization()
        bounds = "PASS"
    except ValueError:
        at_ticks, capacity, util = dict.fromkeys(LINK_KINDS, ()), {}, {}
        bounds = "FAIL"
    for kind in LINK_KINDS:
        for c in CLASSES:
            count, rate, low, high = _COUNT + c, _RATE + c, _MIN + c, _MAX + c
            write(f"alloc_{kind.value}_class{int(c)}.csv", [
                "time,streams,avg_alloc,avg_min,avg_max",
                *(f"{t:.6f},{n},{s[rate] / n:.6f},{s[low] / n:.6f},{s[high] / n:.6f}"
                  if (n := s[count]) else f"{t:.6f},0,,,"
                  for t, s in zip(ticks, at_ticks[kind])),
            ])
    for kind in LINK_KINDS:
        kind_capacity = capacity.get(kind)
        write(f"util_{kind.value}.csv", [
            "time,utilization",
            *(f"{t:.6f},{s[0] / kind_capacity:.6f}"
              for t, s in zip(ticks, at_ticks[kind] if kind_capacity else ())),
        ])

    runs = [counters] if baseline is None else [counters, baseline.counters]
    write("rejections.csv", [
        "metric,value" if baseline is None else "metric,with_psg,without_psg",
        *(",".join([name, *(_fmt(getattr(run, name)) for run in runs)]) for name in _COUNTER_ROWS),
    ])

    lines = [
        f"seed={config.seed}",
        f"horizon={_fmt(config.horizon)}",
        f"total_arrival_rate={_fmt(config.total_arrival_rate)}",
        f"psg_enabled={config.psg_enabled}",
    ]
    lines.extend(f"{name}={_fmt(getattr(counters, name))}" for name in _COUNTER_ROWS)
    lines.append(f"bytes_completed={_fmt(counters.bytes_completed)}")
    lines.append(f"bytes_drained={_fmt(counters.bytes_drained)}")
    for kind in LINK_KINDS:
        if kind in util:
            lines.append(f"util_avg_{kind.value}={_fmt(util[kind])}")
    for user_class, total in counters.requested_by_class.items():
        lines.append(f"requested_class{int(user_class)}={total}")
    conservation = "PASS" if counters.identity_holds() else "FAIL"
    lines.append(f"CHECK:conservation={conservation}")
    lines.append(f"CHECK:ledger_bounds={bounds}")
    write("summary.txt", lines)
    return paths
