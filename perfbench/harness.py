"""Workloads, the timed `vodsim run` pipeline and the report-digest gate.

One pipeline run is what `vodsim run` does for a user: build the
simulation, run it, and write the fourteen report files.  Every number
timed here is host time.  The simulated statistics are deterministic, so
they serve only as the correctness fingerprint of a run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from vodsim import metrics as vmetrics  # noqa: E402
from vodsim.allocation import InvariantViolation  # noqa: E402
from vodsim.config import SimConfig  # noqa: E402
from vodsim.sim import Simulation  # noqa: E402

# Settings each workload changes from the SimConfig defaults.  Why each one
# exists is in README.md; horizons are sized so a run takes a few seconds.
WORKLOADS: dict[str, dict] = {
    "saturated_x4": {"total_arrival_rate": 4.0, "horizon": 10000.0},
    "overload_x16": {"total_arrival_rate": 16.0, "horizon": 5000.0},
    "large_catalog": {
        "num_proxies": 12, "num_videos": 4800, "cache_capacity": 1600,
        "agent_period": 50.0, "total_arrival_rate": 1.0, "horizon": 5000.0,
    },
}

CHECK_LINES = ("CHECK:conservation=PASS", "CHECK:ledger_bounds=PASS")


def workload_config(name: str, seed: int) -> SimConfig:
    return SimConfig(seed=seed, **WORKLOADS[name]).validate()


def report_digest(out_dir) -> str:
    """SHA-256 over the report files: names sorted, each name then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def fingerprint(counters) -> dict:
    return {
        "requested": counters.requested,
        "local_hits": counters.local_hits,
        "rejected": counters.rejected,
        "rejection_ratio": counters.rejection_ratio,
    }


@dataclass
class PipelineRun:
    """Host times of one pipeline run and what its reports looked like."""

    setup_s: float
    run_s: float
    report_s: float
    digest: str
    fingerprint: dict
    failures: list[str] = field(default_factory=list)
    result: object = field(default=None, repr=False)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.report_s

    @property
    def requests_per_s(self) -> float:
        return self.fingerprint["requested"] / self.wall_s if self.wall_s else 0.0


def check_reports(result, out_dir, expected: dict | None) -> tuple[str, list[str]]:
    """Gate one run's reports; returns the digest and the failed checks.

    ``expected`` holds a ``digest`` and a ``fingerprint`` to match, or is
    None when nothing is known yet.
    """
    failures = []
    digest = report_digest(out_dir)
    if expected is not None:
        if digest != expected["digest"]:
            failures.append(f"report digest {digest[:12]} != expected {expected['digest'][:12]}")
        if fingerprint(result.counters) != expected["fingerprint"]:
            failures.append(f"fingerprint {fingerprint(result.counters)} != expected")
    if not result.counters.identity_holds():
        failures.append("counter identity does not hold")
    summary = (Path(out_dir) / "summary.txt").read_text(encoding="utf-8").splitlines()
    checks = [line for line in summary if line.startswith("CHECK:")]
    if tuple(checks) != CHECK_LINES:
        failures.append(f"summary CHECK lines {checks}")
    return digest, failures


def clear_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for child in path.iterdir():
        child.unlink()


def run_pipeline(config: SimConfig, out_dir: Path, expected: dict | None = None,
                 keep_result: bool = False) -> PipelineRun:
    """Time Simulation(config), .run() and emit_reports, then gate the reports.

    An InvariantViolation is a failed run, not a crash.  emit_reports is
    looked up on the module at call time so a tracer can wrap it.
    """
    clear_dir(out_dir)
    clock = time.perf_counter
    t0 = clock()
    try:
        sim = Simulation(config)
        t1 = clock()
        result = sim.run()
        t2 = clock()
        vmetrics.emit_reports(result, out_dir)
        t3 = clock()
    except InvariantViolation as exc:
        return PipelineRun(0.0, 0.0, 0.0, "", {}, [f"InvariantViolation: {exc}"])
    digest, failures = check_reports(result, out_dir, expected)
    return PipelineRun(t1 - t0, t2 - t1, t3 - t2, digest, fingerprint(result.counters),
                       failures, result if keep_result else None)


def time_setup(config: SimConfig) -> float:
    clock = time.perf_counter
    t0 = clock()
    Simulation(config)
    return clock() - t0


# Host speed on a shared machine drifts by up to ~1.5x over minutes.  The
# end-to-end times are rescaled to the speed at which this loop takes
# CALIBRATION_REFERENCE_S, using the median of loop timings interleaved
# with the repetitions, so the drift cancels between runs.
CALIBRATION_REFERENCE_S = 0.1
CALIBRATION_STEPS = 60000


class _Item:
    __slots__ = ("key", "rate", "start")

    def __init__(self, key: int, rate: int, start: float):
        self.key = key
        self.rate = rate
        self.start = start


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop shaped like the event loop:
    a heap of tuples, a dict of slotted objects and float arithmetic."""
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    live: dict[int, _Item] = {}
    total = 0.0
    t0 = time.perf_counter()
    for step in range(CALIBRATION_STEPS):
        when = rng.random()
        heapq.heappush(heap, (when, step))
        live[step] = _Item(step % 97, int(when * 30) + 1, when)
        if len(heap) > 300:
            _when, done = heapq.heappop(heap)
            item = live.pop(done)
            total += item.rate * (1.0 - item.start)
    return time.perf_counter() - t0


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def expected_for(reference: dict, workload: str, seed: int) -> dict | None:
    """The recorded digest and fingerprint, or None for an unrecorded seed."""
    return reference.get("workloads", {}).get(workload, {}).get("seeds", {}).get(str(seed))


def source_digest() -> str:
    """SHA-256 of the simulator sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "vodsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def host_info() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
