"""Run counters, ledger replay, the series derived from it, and report files.

The link ledgers (each link's ``ledger``, packed ``LEDGER_RECORD``s) are
the record of a run.  One walker, ``Replay``, unpacks each link's records
once and rebuilds its usage as an exact step function; it builds no row
objects.  The records are in time order, so a pointer steps through the
sample ticks beside them, and the used entry of each sampled state is the
sum of its class rates, set after the walk.  Every reported number
derives from what it returns: the sampled series are the step function
evaluated at the sample ticks, and time-averaged utilization, bytes
carried and per-class mean allocations are its integrals, each the sum of
every change times the time it holds until the horizon.  No live counter
is read.
A running simulation records only its sample ticks; ``emit_reports``
makes the one walk that writes every series, at report time.  A run is a
pure function of its config, so a paired baseline is matched by config.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .allocation import ALLOCATE, LEDGER_RECORD, LINK_KINDS, OPS, RECLAIM, RELEASE, Link
from .model import CLASSES


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
    requested_by_class: dict[int, int] = field(
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
_RATES = slice(_RATE + 1, _RATE + 1 + len(CLASSES))  # the class rate entries
_CLASS_BYTES = frozenset(CLASSES)  # the class bytes a record may hold


def _check_ticks(ticks: Sequence[float], horizon: float) -> None:
    """Raise ``ValueError`` unless ``0 <= t1 <= ... <= horizon``; NaN fails."""
    if not all(map(operator.le, [0.0, *ticks], [*ticks, horizon])):
        raise ValueError(f"ticks {ticks} must ascend from 0 to at most the horizon {horizon}")


class Replay:
    """One walk over the records of each of a set of links, in order, with
    record times clipped at ``horizon``; the package reads ledgers nowhere
    else.

    A ledger whose length is not a whole number of records, a record stamped
    at NaN, before time 0 or before the one before it, an unknown op or
    class, an allocate of an allocation that is already live or of an amount
    outside its rate window, a reclaim or release of one that is not live, a
    reclaim that leaves a stream below its minimum, a release of anything
    but the replayed rate, usage outside 0..capacity, a horizon outside
    [0, inf) or ticks unsorted or outside [0, horizon] raises ValueError.
    Afterwards ``integral[kind]`` holds the used, count and rate entries of
    the summed state vector of that kind's links, integrated from 0 to the
    horizon: each record adds its change times the time left to the horizon,
    so the used entry summed over kinds is the MB carried.  ``live`` holds
    each ledger's per-allocation rates after its last record.  The state at
    tick T is every record stamped before T, and ``at_ticks[kind][i]`` is
    the summed state vector of that kind's links at ``ticks[i]``.

    The walk costs records plus ticks, not links times ticks: each record
    adds its change to its kind's step vector of the first tick after it,
    and ``at_ticks[kind]`` is that kind's step list, prefix-summed in
    place.  Since a ledger's records are in time order, a pointer into the
    ticks finds that step: it moves on only when a record reaches the next
    tick, and records after the last tick share one more step, which is
    dropped.  A step holds no used entry; each state's used entry is set to
    the sum of its class rate entries after the prefix sum, exact in ints.
    A ledger keeps only its running used MB/s.
    """

    def __init__(self, ledgers: list[Link], horizon: float, ticks: Sequence[float] = ()):
        if not 0 <= horizon < math.inf:  # NaN fails too
            raise ValueError(f"horizon {horizon} outside [0, inf)")
        _check_ticks(ticks, horizon)
        self.horizon = horizon
        self.capacity = {kind: 0 for kind in LINK_KINDS}
        self.integral = {kind: [0.0] * _INTEGRATED for kind in LINK_KINDS}
        self.live: list[dict[int, int]] = []
        n_ticks = len(ticks)
        steps = {kind: [[0] * _STATE_LEN for _ in range(n_ticks + 1)] for kind in LINK_KINDS}
        allocate, reclaim, release = ALLOCATE, RECLAIM, RELEASE
        count_at, rate_at, min_at, max_at = _COUNT, _RATE, _MIN, _MAX
        class_bytes = _CLASS_BYTES
        for ledger in ledgers:
            capacity, label = ledger.capacity, ledger.label
            self.capacity[ledger.kind] += capacity
            integral, kind_steps = self.integral[ledger.kind], steps[ledger.kind]
            live: dict[int, int] = {}
            self.live.append(live)
            used = tick = 0  # tick counts the ticks at or before the last record
            step, next_tick, last = kind_steps[0], ticks[0] if ticks else math.inf, 0.0
            try:
                records = LEDGER_RECORD.iter_unpack(ledger.ledger)
            except struct.error as exc:
                raise ValueError(f"ledger of {label}: {exc}") from None
            for time, op, alloc_id, _, c, amount, min_rate, max_rate in records:
                if not last <= time:  # last starts at 0.0; NaN fails too
                    raise ValueError(f"record of {alloc_id} on {label} at {time} after {last}")
                last = time
                if time > horizon:
                    time = horizon
                if c not in class_bytes:
                    raise ValueError(f"bad class {c} of {alloc_id} on {label}")
                if time >= next_tick:
                    tick += 1
                    while tick < n_ticks and time >= ticks[tick]:
                        tick += 1
                    step = kind_steps[tick]
                    next_tick = ticks[tick] if tick < n_ticks else math.inf
                left = horizon - time
                moved = amount * left
                rate = rate_at + c
                # amounts are unsigned: an allocate can only overfill the
                # link, a reclaim or release only drive it below zero
                if op == allocate and alloc_id not in live and min_rate <= amount <= max_rate:
                    live[alloc_id] = amount
                    count = count_at + c
                    step[count] += 1
                    step[min_at + c] += min_rate
                    step[max_at + c] += max_rate
                    integral[count] += left
                    step[rate] += amount
                    integral[rate] += moved
                    integral[0] += moved
                    used += amount
                    if used > capacity:
                        raise ValueError(f"ledger replay out of bounds on {label}: {used}")
                    continue
                if op == reclaim and alloc_id in live and live[alloc_id] - amount >= min_rate:
                    live[alloc_id] -= amount
                elif op == release and live.pop(alloc_id, None) == amount:
                    count = count_at + c
                    step[count] -= 1
                    step[min_at + c] -= min_rate
                    step[max_at + c] -= max_rate
                    integral[count] -= left
                else:
                    name = OPS[op] if op < len(OPS) else f"op {op}"
                    raise ValueError(f"bad {name!r} of {alloc_id} on {label}")
                step[rate] -= amount
                integral[rate] -= moved
                integral[0] -= moved
                used -= amount
                if used < 0:
                    raise ValueError(f"ledger replay out of bounds on {label}: {used}")
        for kind_steps in steps.values():
            kind_steps.pop()  # the records after the last tick
            for before, cur in itertools.pairwise(kind_steps):
                cur[:] = map(operator.add, before, cur)
            for state in kind_steps:
                state[0] = sum(state[_RATES])
        self.at_ticks = steps

    def utilization(self) -> dict[str, float]:
        """Time-averaged utilization of each kind that has links."""
        return {kind: self.integral[kind][0] / (capacity * self.horizon)
                for kind, capacity in self.capacity.items() if capacity}

    def mean_alloc(self) -> float:
        """Time-averaged allocation per live stream across every link."""
        by_kind = self.integral.values()
        streams = sum(i[_COUNT + c] for i in by_kind for c in CLASSES)
        return sum(i[0] for i in by_kind) / streams if streams else 0.0

    def mean_alloc_by_class(self) -> dict[tuple[str, int], float]:
        """Time-averaged allocation per live stream, split by kind and class.

        Pairs that never carried a stream are absent from the result.
        """
        integral = self.integral
        return {(kind, c): integral[kind][_RATE + c] / integral[kind][_COUNT + c]
                for kind in LINK_KINDS for c in CLASSES if integral[kind][_COUNT + c] > 0}

    def mean_alloc_per_class(self) -> dict[int, float]:
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


def time_avg_utilization(ledgers: list[Link], horizon: float) -> dict[str, float]:
    """Exact time-averaged utilization per link kind, replayed from ledgers."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return Replay(ledgers, horizon).utilization()


def _fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _write_lines(path: Path, lines: list[str]) -> Path:
    """Write ``lines`` as one UTF-8 file, each ending in LF; return ``path``.
    The final LF is joined in, not appended, so no second file-long copy is made."""
    path.write_text("\n".join([*lines, ""]), encoding="utf-8", newline="\n")
    return path


_COUNTER_ROWS = (
    "requested", "local_hits", "served_lps", "served_rps", "served_cms",
    "rejected", "drained", "remote_requests", "rejection_ratio",
)


def emit_reports(result, out_dir, baseline=None) -> list[Path]:
    """Write the standard report set for a finished run.

    ``result`` is a finished ``Simulation``, of which only ``config``,
    ``counters``, ``metrics.ticks`` and ``ledgers`` are read.  ``baseline``
    optionally supplies a sharing-disabled run of ``result.config`` for
    side-by-side rejection numbers, such as ``sim.baseline_no_psg(...)``.
    A baseline with sharing on or any other config field changed, or ticks
    that do not ascend from 0 to the horizon, raise ``ValueError`` before a
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
    _check_ticks(result.metrics.ticks, result.config.horizon)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, lines: list[str]) -> None:
        paths.append(_write_lines(out / name, lines))

    config, counters, ticks = result.config, result.counters, result.metrics.ticks
    try:
        walked = Replay(result.ledgers, config.horizon, ticks)
        at_ticks, capacity, util = walked.at_ticks, walked.capacity, walked.utilization()
        bounds = "PASS"
    except ValueError:
        at_ticks, capacity, util = dict.fromkeys(LINK_KINDS, ()), {}, {}
        bounds = "FAIL"
    # each tick's time is formatted once for all twelve series; a
    # %-format prints what the f-string format spec does, in less time
    stamps = [f"{t:.6f}" for t in ticks]
    for kind in LINK_KINDS:
        for c in CLASSES:
            count, rate, low, high = _COUNT + c, _RATE + c, _MIN + c, _MAX + c
            write(f"alloc_{kind}_class{c}.csv", [
                "time,streams,avg_alloc,avg_min,avg_max",
                *("%s,%d,%.6f,%.6f,%.6f" % (t, n, s[rate] / n, s[low] / n, s[high] / n)
                  if (n := s[count]) else f"{t},0,,,"
                  for t, s in zip(stamps, at_ticks[kind])),
            ])
    for kind in LINK_KINDS:
        kind_capacity = capacity.get(kind)
        write(f"util_{kind}.csv", [
            "time,utilization",
            *("%s,%.6f" % (t, s[0] / kind_capacity)
              for t, s in zip(stamps, at_ticks[kind] if kind_capacity else ())),
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
            lines.append(f"util_avg_{kind}={_fmt(util[kind])}")
    for user_class, total in counters.requested_by_class.items():
        lines.append(f"requested_class{user_class}={total}")
    conservation = "PASS" if counters.identity_holds() else "FAIL"
    lines.append(f"CHECK:conservation={conservation}")
    lines.append(f"CHECK:ledger_bounds={bounds}")
    write("summary.txt", lines)
    return paths
