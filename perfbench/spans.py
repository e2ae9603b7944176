"""In-memory span tracing of the simulator's public layer functions.

The tracer wraps functions where their callers look them up (module
globals of `vodsim.sim` and `vodsim.metrics`, class attributes of `Link`,
`ProxyServer`, `MetricsBundle` and `Simulation`) and restores the original
objects on exit.  No code under `src/` changes.  A span is a name, a start,
an end and the span that was open when it began; every span inside one
`handle_request` carries that request's id.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

from vodsim import metrics as vmetrics
from vodsim import sim as vsim
from vodsim.allocation import Link
from vodsim.metrics import MetricsBundle
from vodsim.sim import Simulation
from vodsim.topology import ProxyServer, RouteSource


def _not_none(result) -> bool:
    return result is not None


def _local_hit(result) -> bool:
    return result.source is RouteSource.LOCAL


# (owner, attribute, span name, outcome predicate or None).  The predicate
# marks a span "ok"; ratios of ok spans to calls are measured here, where
# the work happens.
PATCHES = (
    (Simulation, "__init__", "sim.setup", None),
    (Simulation, "run", "sim.run", None),
    (vsim, "build_catalog", "model.build_catalog", None),
    (vsim, "seed_initial_placement", "topology.seed_initial_placement", None),
    (vsim, "handle_request", "topology.handle_request", _local_hit),
    (vsim, "agent_tour", "agent.agent_tour", None),
    (Link, "admit", "allocation.admit", _not_none),
    (Link, "plan_reclaim", "allocation.plan_reclaim", _not_none),
    (Link, "release", "allocation.release", None),
    (Link, "check_conservation", "allocation.check_conservation", None),
    (ProxyServer, "insert", "topology.insert", None),
    (ProxyServer, "stream_closed", "topology.stream_closed", None),
    (MetricsBundle, "take_snapshot", "metrics.take_snapshot", None),
    (vmetrics, "emit_reports", "metrics.emit_reports", None),
    (vmetrics, "time_avg_utilization", "metrics.time_avg_utilization", None),
)
REQUEST_SPAN = "topology.handle_request"
NAMES = tuple(name for _owner, _attr, name, _ok in PATCHES)


class Tracer:
    """Context manager: patch on enter, restore on exit, keep spans in arrays.

    Span ``i`` is row ``i`` of the parallel arrays; its id is assigned when
    it starts, so a parent's id is always smaller than its children's.
    """

    def __init__(self):
        self.name = array("B")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("B")
        self._stack = [-1]
        self._current_request = -1
        self._next_request = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, outcome):
        clock = time.perf_counter
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, oks, stack = self.start, self.end, self.ok, self._stack
        opens_request = NAMES[name_id] == REQUEST_SPAN
        tracer = self

        def traced(*args, **kwargs):
            span = len(starts)
            saved_request = tracer._current_request
            if opens_request:
                tracer._current_request = tracer._next_request
                tracer._next_request += 1
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(tracer._current_request)
            oks.append(0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
                tracer._current_request = saved_request
            if outcome is None or outcome(result):
                oks[span] = 1
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name_id, (owner, attr, _name, outcome) in enumerate(PATCHES):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name_id, outcome))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self))]

    def nesting_violations(self, self_times: list[float], slack: float = 1e-9) -> int:
        """Spans whose children's summed self times exceed their own duration.

        ``slack`` absorbs float rounding in the subtractions, nothing more.
        """
        child_self = [0.0] * len(self)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child_self[parent] += self_times[span]
        return sum(
            1 for i in range(len(self))
            if child_self[i] > self.end[i] - self.start[i] + slack or self_times[i] < -slack
        )

    def layers(self, self_times: list[float]) -> dict[str, dict]:
        """Per span name: calls, ok count, total and self seconds."""
        stats = {name: {"calls": 0, "ok": 0, "s": 0.0, "self_s": 0.0} for name in NAMES}
        for i in range(len(self)):
            entry = stats[NAMES[self.name[i]]]
            entry["calls"] += 1
            entry["ok"] += self.ok[i]
            entry["s"] += self.end[i] - self.start[i]
            entry["self_s"] += self_times[i]
        return stats

    def write_jsonl(self, path: Path, header: str) -> None:
        """One header line, then one span per line, times relative to the first span."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for i in range(len(self)):
                fh.write(
                    f'{{"id":{i},"name":"{NAMES[self.name[i]]}","parent":{self.parent[i]},'
                    f'"request":{self.request[i]},"start":{self.start[i] - origin:.9f},'
                    f'"end":{self.end[i] - origin:.9f}}}\n'
                )
