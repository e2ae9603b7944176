"""Acceptance suite for the default system configuration.

Ten checks, one per release criterion, each printing its own PASS/FAIL
line even when the surrounding test run is quiet:

  1.  Capacity conservation: integer replay of every link ledger on the
      default run never exceeds 300 MB/s and ends empty.
  2.  Bound safety: every allocation, including reclaim victims, stays
      inside its class rate window at all times.
  3.  Oracle equivalence: the admission engine matches a brute-force
      reference on 10000 randomized link states.
  4.  Class ordering: time-averaged per-stream bandwidth is strictly
      class 1 > class 2 > class 3 on every link kind.
  5.  Saturation trend: per-class mean allocation is monotone
      non-increasing across a x0.25 / x1 / x4 load sweep (2% slack).
  6.  Utilization: every link kind averages at least 0.90 at x4 load.
  7.  Sharing benefit: over ten paired seeds, disabling neighbor sharing
      never reduces rejections, and rejection ratio with sharing stays
      at or below 0.05 of remote requests.
  8.  Workload mix: 100k generated arrivals match the configured tier
      and class shares within one percentage point.
  9.  Byte conservation: every completed stream delivers its size within
      1e-6 relative, and stream-side bytes match ledger-side bytes.
  10. Determinism: two identically seeded runs emit byte-identical CSVs.

Each printed line must also equal that criterion's line in
``acceptance_lines.txt``, so a change that moves any reported figure fails
here even when every criterion still holds.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import islice
from pathlib import Path

import pytest

from arrival_tap import with_arrivals
from oracle import admit_cuts, force_link, oracle_admit, random_link_state
from vodsim.config import SimConfig
from vodsim.metrics import Replay, emit_reports, time_avg_utilization
from vodsim.model import CLASSES
from vodsim.sim import baseline_no_psg, draw_arrivals, run

# allocated rate must stay inside [class min lower bound, class max upper bound]
CLASS_RATE_WINDOW = {1: (8, 29), 2: (6, 23), 3: (4, 17)}

SWEEP_SCALES = (0.25, 1.0, 4.0)
PAIRED_SEEDS = range(1, 11)

# criterion ("C1".."C10") -> the line its verdict prints
PINNED_LINES = {
    line.split()[1]: line
    for line in (Path(__file__).parent / "acceptance_lines.txt").read_text(
        encoding="utf-8").splitlines()
}


def verdict(capsys, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {label}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else "")
    with capsys.disabled():
        print(line)
    assert ok, f"{label}: {detail}"
    assert line == PINNED_LINES[label.split()[0]]


@pytest.fixture(scope="module")
def default_result():
    return run(SimConfig())


@pytest.fixture(scope="module")
def scaled_results(default_result):
    results = {1.0: default_result}
    for scale in SWEEP_SCALES:
        if scale != 1.0:
            config = dataclasses.replace(
                SimConfig(), total_arrival_rate=SimConfig().total_arrival_rate * scale
            )
            results[scale] = run(config)
    return results


@pytest.fixture(scope="module")
def paired_stats():
    stats = []
    for seed in PAIRED_SEEDS:
        config = SimConfig(seed=seed)
        shared, shared_arrivals = with_arrivals(run, config)
        central_only, central_arrivals = with_arrivals(baseline_no_psg, config)
        stats.append({
            "seed": seed,
            "arrivals_match": shared_arrivals == central_arrivals,
            "requested_match": shared.counters.requested == central_only.counters.requested,
            "psg_rejected": shared.counters.rejected,
            "psg_ratio": shared.counters.rejection_ratio,
            "nopsg_rejected": central_only.counters.rejected,
        })
    return stats


def test_c01_capacity_conservation(default_result, capsys):
    violations = 0
    for ledger in default_result.ledgers:
        used = 0
        rates: dict[int, int] = {}
        for row in ledger.rows:
            if row.op == "allocate":
                rates[row.alloc_id] = row.amount
                used += row.amount
            elif row.op == "reclaim":
                rates[row.alloc_id] -= row.amount
                used -= row.amount
            else:
                if rates.pop(row.alloc_id) != row.amount:
                    violations += 1
                used -= row.amount
            if not isinstance(used, int) or used < 0 or used > ledger.capacity:
                violations += 1
        if rates or used != 0:
            violations += 1
    requested = default_result.counters.requested
    ok = violations == 0 and 9000 <= requested <= 11000
    verdict(capsys, "C1 capacity conservation", ok,
            f"violations={violations} requests={requested}")


def test_c02_bound_safety(default_result, capsys):
    violations = 0
    checked = 0
    for ledger in default_result.ledgers:
        state: dict[int, tuple[int, int]] = {}
        for row in ledger.rows:
            if row.op == "allocate":
                state[row.alloc_id] = (row.amount, row.user_class)
            elif row.op == "reclaim":
                rate, user_class = state[row.alloc_id]
                state[row.alloc_id] = (rate - row.amount, user_class)
            else:
                state.pop(row.alloc_id)
                continue
            rate, user_class = state[row.alloc_id]
            low, high = CLASS_RATE_WINDOW[user_class]
            checked += 1
            if not low <= rate <= high:
                violations += 1
    ok = violations == 0 and checked > 0
    verdict(capsys, "C2 bound safety", ok,
            f"violations={violations} checked={checked}")


def test_c03_oracle_equivalence(capsys):
    rng = random.Random(20240814)
    mismatches = 0
    for case in range(10000):
        capacity, existing, request = random_link_state(rng, base_id=1_000_000)
        link = force_link(capacity, existing)
        expected = oracle_admit(capacity, existing, request)
        alloc = link.admit(1.0, 0, request.user_class,
                           request.min_rate, request.max_rate, weight=2)
        if expected is None:
            untouched = (
                link.used == sum(s.rate for s in existing)
                and {al.alloc_id: link.rate(al) for al in link.minimums}
                == {s.alloc_id: s.rate for s in existing}
                and not link.ledger
            )
            if alloc is not None or not untouched:
                mismatches += 1
        else:
            rate, victims = expected
            # the victims are the RECLAIM records the admit appended
            got = admit_cuts(link)
            if (alloc is None or link.rate(alloc) != rate
                    or got is None or sorted(got) != sorted(victims)):
                mismatches += 1
    verdict(capsys, "C3 oracle equivalence", mismatches == 0,
            f"mismatches={mismatches}/10000")


def test_c04_class_ordering(default_result, capsys):
    config = default_result.config
    means = Replay(default_result.ledgers, config.horizon).mean_alloc_by_class()
    ordered = True
    detail = []
    for kind in sorted({k for k, _ in means}):
        c1 = means.get((kind, 1), 0.0)
        c2 = means.get((kind, 2), 0.0)
        c3 = means.get((kind, 3), 0.0)
        detail.append(f"{kind}: {c1:.2f}>{c2:.2f}>{c3:.2f}")
        if not (c1 > c2 > c3):
            ordered = False
    remote_served = default_result.counters.served_remote
    ok = ordered and remote_served >= 1000
    verdict(capsys, "C4 class ordering", ok,
            "; ".join(detail) + f"; remote_served={remote_served}")


def test_c05_saturation_trend(scaled_results, capsys):
    means = {
        scale: Replay(result.ledgers, result.config.horizon).mean_alloc_per_class()
        for scale, result in scaled_results.items()
    }
    ok = True
    worst = ""
    for user_class in CLASSES:
        for lighter, heavier in zip(SWEEP_SCALES, SWEEP_SCALES[1:]):
            before = means[lighter][user_class]
            after = means[heavier][user_class]
            if after > before * 1.02:
                ok = False
                worst = f"class{int(user_class)} x{lighter}->x{heavier}: {before:.2f}->{after:.2f}"
    summary = " ".join(
        f"class{int(c)}:" + "/".join(f"{means[s][c]:.1f}" for s in SWEEP_SCALES)
        for c in CLASSES
    )
    verdict(capsys, "C5 saturation trend", ok, worst or summary)


def test_c06_utilization_at_heavy_load(scaled_results, capsys):
    heavy = scaled_results[4.0]
    util = time_avg_utilization(heavy.ledgers, heavy.config.horizon)
    detail = " ".join(f"{kind}={value:.3f}" for kind, value in util.items())
    ok = len(util) == 3 and all(value >= 0.90 for value in util.values())
    verdict(capsys, "C6 utilization at x4", ok, detail)


def test_c07_sharing_benefit(paired_stats, capsys):
    every_seed_helped = all(
        row["nopsg_rejected"] >= row["psg_rejected"] for row in paired_stats
    )
    workload_paired = all(
        row["arrivals_match"] and row["requested_match"] for row in paired_stats
    )
    mean_ratio = sum(row["psg_ratio"] for row in paired_stats) / len(paired_stats)
    ok = every_seed_helped and workload_paired and mean_ratio <= 0.05
    rejected = "/".join(
        f"{row['psg_rejected']}:{row['nopsg_rejected']}" for row in paired_stats
    )
    verdict(capsys, "C7 sharing benefit", ok,
            f"mean_psg_ratio={mean_ratio:.4f} rejected(psg:nopsg)={rejected}")


def test_c08_workload_mix(capsys):
    config = SimConfig()
    rng = random.Random(424242)
    total = 100_000
    quarter = config.num_videos // 4
    tier_counts = [0, 0, 0]
    class_counts = {user_class: 0 for user_class in CLASSES}
    for _dt, _proxy, video_id, user_class in islice(draw_arrivals(rng, config), total):
        if video_id < quarter:
            tier_counts[0] += 1
        elif video_id < 2 * quarter:
            tier_counts[1] += 1
        else:
            tier_counts[2] += 1
        class_counts[user_class] += 1
    tier_err = max(
        abs(tier_counts[i] / total - config.tier_mix[i]) for i in range(3)
    )
    class_err = max(
        abs(class_counts[user_class] / total - config.class_mix[user_class - 1])
        for user_class in CLASSES
    )
    ok = tier_err <= 0.01 and class_err <= 0.01
    verdict(capsys, "C8 workload mix", ok,
            f"tier_err={tier_err:.4f} class_err={class_err:.4f}")


def test_c09_byte_conservation(default_result, capsys):
    counters = default_result.counters
    per_stream = counters.max_byte_rel_error
    stream_side = counters.bytes_completed + counters.bytes_drained
    walked = Replay(default_result.ledgers, default_result.config.horizon)
    ledger_side = sum(i[0] for i in walked.integral.values())
    aggregate = abs(ledger_side - stream_side) / stream_side
    ok = per_stream <= 1e-6 and aggregate <= 1e-6
    verdict(capsys, "C9 byte conservation", ok,
            f"max_per_stream={per_stream:.2e} aggregate={aggregate:.2e}")


def test_c10_deterministic_reports(default_result, tmp_path_factory, capsys):
    dir_a = tmp_path_factory.mktemp("reports_a")
    dir_b = tmp_path_factory.mktemp("reports_b")
    paths_a = emit_reports(default_result, dir_a)
    paths_b = emit_reports(run(SimConfig()), dir_b)
    same = len(paths_a) == len(paths_b) and all(
        pa.name == pb.name and pa.read_bytes() == pb.read_bytes()
        for pa, pb in zip(paths_a, paths_b)
    )
    verdict(capsys, "C10 deterministic reports", same,
            f"files={len(paths_a)}")
