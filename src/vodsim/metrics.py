"""Run counters, sampled series, ledger replay and report files.

Two independent views of a run coexist here.  Sampled series record what
the links looked like at fixed wall-clock ticks.  Ledger replay rebuilds
per-link usage as an exact step function from the append-only accounting
rows, which gives time-averaged utilization and per-class mean allocations
without trusting any live counter.  Tests compare the two.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .allocation import LINK_KINDS, LedgerRow, Link, LinkKind
from .model import CLASSES, UserClass


@dataclass
class Counters:
    """Whole-run request accounting.

    Served counts are attributed when a stream finishes, so at the end of
    a run every request is exactly one of: local hit, served (by source),
    rejected, or drained at the horizon.
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


@dataclass
class SeriesPoint:
    """One sample of one (link kind, class) population.

    Averages are None when no stream of that class was live on that kind.
    """

    time: float
    stream_count: int
    avg_alloc: float | None
    avg_min: float | None
    avg_max: float | None


class MetricsBundle:
    """Sampled series for all nine (kind, class) pairs plus utilization."""

    def __init__(self):
        self.samples: dict[tuple[LinkKind, UserClass], list[SeriesPoint]] = {
            (kind, user_class): [] for kind in LINK_KINDS for user_class in CLASSES
        }
        self.utilization: dict[LinkKind, list[tuple[float, float]]] = {
            kind: [] for kind in LINK_KINDS
        }

    def take_snapshot(self, time: float, links: list[Link]) -> None:
        count: dict[tuple[LinkKind, UserClass], int] = {}
        rate_sum: dict[tuple[LinkKind, UserClass], int] = {}
        min_sum: dict[tuple[LinkKind, UserClass], int] = {}
        max_sum: dict[tuple[LinkKind, UserClass], int] = {}
        used: dict[LinkKind, int] = {kind: 0 for kind in LINK_KINDS}
        capacity: dict[LinkKind, int] = {kind: 0 for kind in LINK_KINDS}
        for link in links:
            used[link.kind] += link.used
            capacity[link.kind] += link.capacity
            for alloc in link.allocations.values():
                key = (link.kind, alloc.user_class)
                count[key] = count.get(key, 0) + 1
                rate_sum[key] = rate_sum.get(key, 0) + alloc.rate
                min_sum[key] = min_sum.get(key, 0) + alloc.min_rate
                max_sum[key] = max_sum.get(key, 0) + alloc.max_rate
        for key, series in self.samples.items():
            n = count.get(key, 0)
            if n:
                series.append(SeriesPoint(
                    time, n, rate_sum[key] / n, min_sum[key] / n, max_sum[key] / n,
                ))
            else:
                series.append(SeriesPoint(time, 0, None, None, None))
        for kind in LINK_KINDS:
            if capacity[kind]:
                self.utilization[kind].append((time, used[kind] / capacity[kind]))


@dataclass
class LinkLedger:
    """A link's accounting trail, detached from the live object."""

    kind: LinkKind
    capacity: int
    label: str
    rows: list[LedgerRow]

    @classmethod
    def from_link(cls, link: Link) -> "LinkLedger":
        return cls(link.kind, link.capacity, link.label, link.ledger)


def _walk(ledger: LinkLedger, horizon: float):
    """Yield (dt, used, per_class_rate, per_class_count) step segments."""
    used = 0
    rate = {user_class: 0 for user_class in CLASSES}
    count = {user_class: 0 for user_class in CLASSES}
    prev = 0.0
    for row in ledger.rows:
        time = row.time
        if time > horizon:
            time = horizon
        if time > prev:
            yield time - prev, used, rate, count
            prev = time
        user_class = UserClass(row.user_class)
        if row.op == "allocate":
            used += row.amount
            rate[user_class] += row.amount
            count[user_class] += 1
        elif row.op == "reclaim":
            used -= row.amount
            rate[user_class] -= row.amount
        elif row.op == "release":
            used -= row.amount
            rate[user_class] -= row.amount
            count[user_class] -= 1
        else:
            raise ValueError(f"unknown ledger op {row.op!r}")
        if used < 0 or used > ledger.capacity:
            raise ValueError(f"ledger replay out of bounds on {ledger.label}: {used}")
    if horizon > prev:
        yield horizon - prev, used, rate, count


def time_avg_utilization(ledgers: list[LinkLedger], horizon: float) -> dict[LinkKind, float]:
    """Exact time-averaged utilization per link kind, replayed from ledgers."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    area = {kind: 0.0 for kind in LINK_KINDS}
    capacity = {kind: 0 for kind in LINK_KINDS}
    for ledger in ledgers:
        capacity[ledger.kind] += ledger.capacity
        for dt, used, _rate, _count in _walk(ledger, horizon):
            area[ledger.kind] += used * dt
    return {
        kind: area[kind] / (capacity[kind] * horizon)
        for kind in LINK_KINDS if capacity[kind]
    }


def mean_alloc_by_class(
    ledgers: list[LinkLedger], horizon: float
) -> dict[tuple[LinkKind, UserClass], float]:
    """Time-averaged allocation per live stream, split by kind and class.

    Pairs that never carried a stream are absent from the result.
    """
    rate_area: dict[tuple[LinkKind, UserClass], float] = {}
    count_area: dict[tuple[LinkKind, UserClass], float] = {}
    for ledger in ledgers:
        for dt, _used, rate, count in _walk(ledger, horizon):
            for user_class in CLASSES:
                key = (ledger.kind, user_class)
                rate_area[key] = rate_area.get(key, 0.0) + rate[user_class] * dt
                count_area[key] = count_area.get(key, 0.0) + count[user_class] * dt
    return {
        key: rate_area[key] / count_area[key]
        for key in rate_area if count_area[key] > 0
    }


def mean_alloc_per_class(ledgers: list[LinkLedger], horizon: float) -> dict[UserClass, float]:
    """Time-averaged allocation per live stream of each class, all kinds

    pooled.  Classes that never held a stream are absent."""
    rate_area = {user_class: 0.0 for user_class in CLASSES}
    count_area = {user_class: 0.0 for user_class in CLASSES}
    for ledger in ledgers:
        for dt, _used, rate, count in _walk(ledger, horizon):
            for user_class in CLASSES:
                rate_area[user_class] += rate[user_class] * dt
                count_area[user_class] += count[user_class] * dt
    return {
        user_class: rate_area[user_class] / count_area[user_class]
        for user_class in CLASSES if count_area[user_class] > 0
    }


def mean_alloc_overall(ledgers: list[LinkLedger], horizon: float) -> float:
    """Time-averaged allocation per live stream across every link."""
    rate_area = 0.0
    count_area = 0.0
    for ledger in ledgers:
        for dt, _used, rate, count in _walk(ledger, horizon):
            rate_area += sum(rate.values()) * dt
            count_area += sum(count.values()) * dt
    return rate_area / count_area if count_area else 0.0


def ledger_bytes(ledgers: list[LinkLedger], horizon: float) -> float:
    """Total MB carried by all links, integrated from the ledgers."""
    total = 0.0
    for ledger in ledgers:
        for dt, used, _rate, _count in _walk(ledger, horizon):
            total += used * dt
    return total


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


_COUNTER_ROWS = (
    "requested", "local_hits", "served_lps", "served_rps", "served_cms",
    "rejected", "drained", "remote_requests", "rejection_ratio",
)


def emit_reports(result, out_dir, baseline=None) -> list[Path]:
    """Write the standard report set for a finished run.

    ``result`` is a finished run (its counters, metrics, ledgers and config
    are read); ``baseline`` optionally supplies a sharing-disabled run of
    the same seed for side-by-side rejection numbers.  Returns the paths
    written: nine allocation series, three utilization series,
    rejections.csv and summary.txt.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for (kind, user_class), series in result.metrics.samples.items():
        path = out / f"alloc_{kind.value}_class{int(user_class)}.csv"
        _write_csv(
            path,
            ["time", "streams", "avg_alloc", "avg_min", "avg_max"],
            ((p.time, p.stream_count, p.avg_alloc, p.avg_min, p.avg_max) for p in series),
        )
        paths.append(path)
    for kind, series in result.metrics.utilization.items():
        path = out / f"util_{kind.value}.csv"
        _write_csv(path, ["time", "utilization"], series)
        paths.append(path)

    path = out / "rejections.csv"
    counters = result.counters
    if baseline is not None:
        header = ["metric", "with_psg", "without_psg"]
        other = baseline.counters
        rows = [(name, getattr(counters, name), getattr(other, name))
                for name in _COUNTER_ROWS]
    else:
        header = ["metric", "value"]
        rows = [(name, getattr(counters, name)) for name in _COUNTER_ROWS]
    _write_csv(path, header, rows)
    paths.append(path)

    path = out / "summary.txt"
    try:
        util = time_avg_utilization(result.ledgers, result.config.horizon)
        bounds = "PASS"
    except ValueError:
        util = {}
        bounds = "FAIL"
    lines = [
        f"seed={result.config.seed}",
        f"horizon={_fmt(result.config.horizon)}",
        f"total_arrival_rate={_fmt(result.config.total_arrival_rate)}",
        f"psg_enabled={result.config.psg_enabled}",
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    paths.append(path)
    return paths
