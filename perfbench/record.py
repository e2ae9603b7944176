"""Record the reference report digests and the tracing overhead.

    python3 perfbench/record.py digests --seeds 0-31
    python3 perfbench/record.py overhead

``digests`` runs, for every workload and seed, the benchmark pipeline and
a plain `vodsim run --config ... --out ...` of the same config, checks
that both write byte-identical reports, and stores the digest with the
simulated fingerprint.  ``overhead`` times pairs of untraced and traced
runs of each workload.  Each command rewrites only its own part of
perfbench/reference.json.

The model has no reference results in this repository, so the recorded
fingerprints guard against regressions; they are not an accuracy figure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import spans

OVERHEAD_SEED = 1
OVERHEAD_PAIRS = 7
NOTE = ("The model has no reference results in this repository. These digests and "
        "fingerprints are regression guards for the report bytes, not an accuracy figure.")
DIGEST_FORMAT = ("SHA-256 over the report files sorted by name; per file the UTF-8 name, "
                 "a NUL, the decimal byte length, a NUL, then the bytes.")


def config_text(config: harness.SimConfig) -> str:
    """The config in the key=value format `vodsim run --config` reads."""
    lines = []
    for key, value in vars(config).items():
        if isinstance(value, tuple):
            value = ",".join(str(item) for item in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def cli_digest(config, work: Path) -> str:
    """Digest of the reports a plain `vodsim run` writes for this config."""
    conf = work / "workload.conf"
    conf.write_text(config_text(config), encoding="utf-8")
    out = work / "cli"
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    subprocess.run(
        [sys.executable, "-m", "vodsim.cli", "run", "--config", str(conf), "--out", str(out)],
        check=True, capture_output=True, env=env, timeout=300,
    )
    return harness.report_digest(out)


def tracing_overhead(config, work: Path) -> dict:
    """Median of per-pair traced minus untraced run_s; pairs alternate order."""
    plain_s, traced_s = [], []
    for pair in range(OVERHEAD_PAIRS):
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                with spans.Tracer():
                    traced_s.append(harness.run_pipeline(config, work / "traced").run_s)
            else:
                plain_s.append(harness.run_pipeline(config, work / "plain").run_s)
    overhead = statistics.median(t - p for t, p in zip(traced_s, plain_s))
    plain = statistics.median(plain_s)
    return {"seed": config.seed, "pairs": OVERHEAD_PAIRS, "untraced_run_s": plain,
            "traced_run_s": statistics.median(traced_s), "overhead_s": overhead,
            "overhead_ratio": overhead / plain}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_digests(reference: dict, seeds: list[int], work: Path) -> bool:
    for name, settings in harness.WORKLOADS.items():
        recorded = {}
        for seed in seeds:
            config = harness.workload_config(name, seed)
            run = harness.run_pipeline(config, work / "bench")
            if run.failures:
                print(f"{name} seed {seed}: {run.failures}", file=sys.stderr)
                return False
            via_cli = cli_digest(config, work)
            if via_cli != run.digest:
                print(f"{name} seed {seed}: harness digest {run.digest} "
                      f"!= vodsim run digest {via_cli}", file=sys.stderr)
                return False
            recorded[str(seed)] = {"digest": run.digest, "fingerprint": run.fingerprint}
            print(f"{name} seed {seed}: {run.digest[:16]} {json.dumps(run.fingerprint)}",
                  flush=True)
        entry = reference["workloads"].setdefault(name, {})
        entry["settings"] = settings
        entry["seeds"] = recorded
    return True


def record_overhead(reference: dict, work: Path) -> None:
    for name in harness.WORKLOADS:
        overhead = tracing_overhead(harness.workload_config(name, OVERHEAD_SEED), work)
        print(f"{name} tracing overhead: {json.dumps(overhead)}", flush=True)
        reference["workloads"].setdefault(name, {})["tracing_overhead"] = overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("digests", "overhead"))
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    reference = harness.load_reference() or {"workloads": {}}
    reference.update(note=NOTE, digest_format=DIGEST_FORMAT)
    reference[f"{args.what}_host"] = harness.host_info()
    harness.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=harness.OUT))
    try:
        if args.what == "digests":
            ok = record_digests(reference, parse_seeds(args.seeds), work)
        else:
            record_overhead(reference, work)
            ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not ok:
        return 1
    harness.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {harness.REFERENCE.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
