"""Host-time benchmark of `vodsim run`.

    python3 perfbench/run.py --workload saturated_x4 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it repeats the whole pipeline (set-up, run, reports)
until ``--seconds`` are used, gates every repetition's reports, then runs
the workload once more in a fresh child process for peak RSS.  It prints
the medians of the end-to-end metrics, with host times scaled by a
calibration loop timed in the same run (see README.md).  With ``--trace 1`` it alternates
untraced and traced repetitions and prints the per-layer metrics instead,
writing the last traced run's spans to ``perfbench/out/``.  The last line
of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Extra set-ups timed before each repetition; with each repetition's own
# set-up they make the median setup_s, a few milliseconds on the ring.
SETUPS_PER_GAP = 2
# Calibration loops timed before, between and after the repetitions.
CALIBRATIONS_PER_GAP = 3
CHILD_TIMEOUT_S = 150
# The child runs under another hash seed, so a report that depended on
# str/bytes hashing would fail its digest check.
CHILD_HASH_SEED = "4711"

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "report_s": "s", "wall_s": "s",
    "requests_per_s": "req/s", "peak_rss_mb": "MB",
}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(layers: dict, result, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, by `<module>.<function>.<stat>`."""
    admit = layers["allocation.admit"]
    plan = layers["allocation.plan_reclaim"]
    request = layers["topology.handle_request"]
    tour = layers["agent.agent_tour"]
    rows = [row for ledger in result.ledgers for row in ledger.rows]
    return {
        "metrics.take_snapshot.s": layers["metrics.take_snapshot"]["s"],
        "metrics.emit_reports.s": layers["metrics.emit_reports"]["s"],
        "metrics.time_avg_utilization.s": layers["metrics.time_avg_utilization"]["s"],
        "metrics.ledger_rows": len(rows),
        "allocation.admit.calls": admit["calls"],
        "allocation.admit.s": admit["s"],
        "allocation.admit.reject_ratio": _ratio(admit["calls"] - admit["ok"], admit["calls"]),
        "allocation.plan_reclaim.calls": plan["calls"],
        "allocation.plan_reclaim.s": plan["s"],
        "allocation.plan_reclaim.success_ratio": _ratio(plan["ok"], plan["calls"]),
        "allocation.release.s": layers["allocation.release"]["s"],
        "allocation.check_conservation.s": layers["allocation.check_conservation"]["s"],
        "topology.handle_request.calls": request["calls"],
        "topology.handle_request.s": request["s"],
        "topology.handle_request.self_s": request["self_s"],
        "topology.insert.s": layers["topology.insert"]["s"],
        "topology.stream_closed.s": layers["topology.stream_closed"]["s"],
        "topology.local_hit_ratio": _ratio(request["ok"], request["calls"]),
        "agent.agent_tour.calls": tour["calls"],
        "agent.agent_tour.s": tour["s"],
        "model.build_catalog.s": layers["model.build_catalog"]["s"],
        "topology.seed_initial_placement.s": layers["topology.seed_initial_placement"]["s"],
        "sim.self_s": layers["sim.run"]["self_s"],
        "sim.rate_changes": sum(1 for row in rows if row.op == "reclaim"),
        "trace.overhead_s": overhead_s,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def calibrate(harness, calibrations: list[float]) -> None:
    calibrations.extend(harness.calibration_s() for _ in range(CALIBRATIONS_PER_GAP))


def time_scale(harness, calibrations: list[float]) -> float:
    """Factor that rescales this run's host times to the reference speed."""
    calibration = statistics.median(calibrations)
    scale = harness.CALIBRATION_REFERENCE_S / calibration
    print(f"calibration loop: median {calibration:.4f} s over {len(calibrations)}, "
          f"host times scaled by {scale:.4f} to its {harness.CALIBRATION_REFERENCE_S} s reference")
    return scale


def run_child(workload: str, seed: int) -> dict:
    """One pipeline run in a fresh interpreter; returns its digest and fingerprint."""
    env = dict(os.environ, PYTHONHASHSEED=CHILD_HASH_SEED)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--child"],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(harness, workload: str, seed: int, work_dir: Path) -> dict:
    run = harness.run_pipeline(harness.workload_config(workload, seed), work_dir)
    return {"digest": run.digest, "fingerprint": run.fingerprint, "failures": run.failures}


def report_failures(label: str, failures: list[str]) -> None:
    for failure in failures:
        print(f"FAILED {label}: {failure}")


def measure(harness, workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """Untraced repetitions until the time is used, then the RSS child."""
    config = harness.workload_config(workload, seed)
    expected = harness.expected_for(harness.load_reference(), workload, seed)
    print(f"reference digest: {'recorded' if expected else 'not recorded for this seed'}")
    deadline = time.perf_counter() + seconds
    calibrations, setups, runs = [], [], []
    failed = 0
    while True:
        calibrate(harness, calibrations)
        for _ in range(SETUPS_PER_GAP):
            gc.collect()
            setups.append(harness.time_setup(config))
        gc.collect()
        run = harness.run_pipeline(config, work_dir, expected)
        runs.append(run)
        setups.append(run.setup_s)
        failed += bool(run.failures)
        report_failures(f"repetition {len(runs)}", run.failures)
        if expected is None and not run.failures:
            expected = {"digest": run.digest, "fingerprint": run.fingerprint}
        print(f"rep {len(runs)}: setup {run.setup_s:.4f} s  run {run.run_s:.4f} s  "
              f"report {run.report_s:.4f} s  digest {run.digest[:16]}")
        typical = statistics.median(r.wall_s for r in runs)
        if time.perf_counter() + typical > deadline:
            break
    calibrate(harness, calibrations)
    del run
    gc.collect()

    child = run_child(workload, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    child_failures = list(child["failures"])
    if expected is not None and (child["digest"] != expected["digest"]
                                 or child["fingerprint"] != expected["fingerprint"]):
        child_failures.append(f"child digest {child['digest'][:12]} differs")
    report_failures("child", child_failures)
    failed += bool(child_failures)

    good = [r for r in runs if not r.failures] or runs
    print(f"digest {good[0].digest}  fingerprint {json.dumps(good[0].fingerprint)}")
    raw = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in good),
        "report_s": statistics.median(r.report_s for r in good),
        "wall_s": statistics.median(r.wall_s for r in good),
        "requests_per_s": statistics.median(r.requests_per_s for r in good),
    }
    scale = time_scale(harness, calibrations)
    metrics = {name: value / scale if name == "requests_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    attempted = len(runs) + 1
    print(f"{len(runs)} repetitions, {len(setups)} set-ups, 1 child run")
    print(f"{'metric':<16} {'scaled':>14} {'as timed':>14}")
    for name, value in metrics.items():
        print(f"{name:<16} {value:14.6f} {raw.get(name, value):14.6f} {END_TO_END_UNITS[name]}")
    print(f"{'error_rate':<16} {failed / attempted:14.6f} ratio ({failed} failed / {attempted} attempted)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


def measure_traced(harness, spans, workload: str, seed: int, seconds: float,
                   work_dir: Path) -> dict:
    """Alternate untraced and traced repetitions; report per-layer medians."""
    config = harness.workload_config(workload, seed)
    expected = harness.expected_for(harness.load_reference(), workload, seed)
    deadline = time.perf_counter() + seconds
    plain_run_s, traced_run_s, samples, calibrations = [], [], [], []
    attempted = failed = 0
    while True:
        gc.collect()
        calibrate(harness, calibrations)
        plain = harness.run_pipeline(config, work_dir, expected)
        attempted += 1
        failed += bool(plain.failures)
        report_failures(f"untraced repetition {attempted}", plain.failures)
        if expected is None and not plain.failures:
            expected = {"digest": plain.digest, "fingerprint": plain.fingerprint}
        plain_run_s.append(plain.run_s)
        gc.collect()
        with spans.Tracer() as tracer:
            traced = harness.run_pipeline(config, work_dir, expected, keep_result=True)
        attempted += 1
        self_times = tracer.self_times()
        violations = tracer.nesting_violations(self_times)
        if violations:
            traced.failures.append(f"{violations} spans whose children outlast them")
        failed += bool(traced.failures)
        report_failures(f"traced repetition {attempted}", traced.failures)
        traced_run_s.append(traced.run_s)
        layers = tracer.layers(self_times)
        if traced.result is not None:
            samples.append(layer_metrics(layers, traced.result, traced.run_s - plain.run_s))
        print(f"pair {len(traced_run_s)}: untraced run {plain.run_s:.4f} s  traced run "
              f"{traced.run_s:.4f} s  spans {len(tracer)}")
        del traced
        if time.perf_counter() + plain.wall_s + 2 * traced_run_s[-1] > deadline:
            break
    if not samples:
        raise SystemExit("error: no traced repetition finished")
    calibrate(harness, calibrations)

    header = json.dumps({"workload": workload, "seed": seed, "spans": len(tracer),
                         "host": harness.host_info()})
    path = harness.OUT / f"spans-{workload}.jsonl"
    tracer.write_jsonl(path, header)
    print(f"wrote {len(tracer)} spans to {path.relative_to(ROOT)}")
    print(f"{'layer':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, entry in layers.items():
        print(f"{name:<34} {entry['calls']:>9} {entry['s']:>10.4f} {entry['self_s']:>10.4f}")

    print(f"tracing overhead, as timed: run_s {statistics.median(traced_run_s):.4f} s traced, "
          f"{statistics.median(plain_run_s):.4f} s untraced")
    scale = time_scale(harness, calibrations)
    metrics = {}
    for name in samples[0]:
        value = statistics.median(sample[name] for sample in samples)
        metrics[name] = value * scale if layer_unit(name) == "s" else value
    for name, value in metrics.items():
        print(f"{name:<40} {value:14.6f} {layer_unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help="run the pipeline once and print its digest (used for peak RSS)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vodsim" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reports-", dir=harness.OUT))
    try:
        if args.child:
            summary = child_main(harness, args.workload, args.seed, work_dir)
        else:
            print(f"host: {json.dumps(harness.host_info())}")
            print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
                  f"trace {args.trace}")
            if args.trace:
                import spans

                summary = measure_traced(harness, spans, args.workload, args.seed,
                                         args.seconds, work_dir)
            else:
                summary = measure(harness, args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
