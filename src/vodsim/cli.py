"""Command line front end: single runs, paired comparisons and rate sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .allocation import LINK_KINDS
from .config import ConfigError, SimConfig, load_config
from .metrics import Replay, _fmt, _write_lines, emit_reports
from .sim import baseline_no_psg, run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; defaults apply otherwise")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--horizon", type=float, help="override the simulated seconds")
    parser.add_argument("--rate", type=float, help="override the total arrival rate")
    parser.add_argument("--out", required=True, help="directory for report files")


def _build_config(args, psg_enabled: bool | None = None) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    overrides = {"seed": args.seed, "horizon": args.horizon, "total_arrival_rate": args.rate,
                 "psg_enabled": psg_enabled}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    # replace builds, and so checks, a new config: only when something changed
    return dataclasses.replace(config, **overrides) if overrides else config


def _check_out(out: str) -> None:
    """Refuse an ``--out`` that cannot become a directory, before any run:
    its nearest existing path must be a directory."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} exists and is not a directory")


def _cmd_run(args) -> int:
    config = _build_config(args, psg_enabled=False if args.no_psg else None)
    result = run(config)
    paths = emit_reports(result, args.out)
    counters = result.counters
    print(f"requests={counters.requested} local={counters.local_hits} "
          f"rejected={counters.rejected} drained={counters.drained}")
    print(f"wrote {len(paths)} files to {Path(args.out)}")
    return 0


def _cmd_compare(args) -> int:
    config = _build_config(args, psg_enabled=True)
    with_psg = run(config)
    without = baseline_no_psg(config)
    paths = emit_reports(with_psg, args.out, baseline=without)
    print(f"with sharing:    rejected={with_psg.counters.rejected} "
          f"ratio={with_psg.counters.rejection_ratio:.4f}")
    print(f"without sharing: rejected={without.counters.rejected} "
          f"ratio={without.counters.rejection_ratio:.4f}")
    print(f"wrote {len(paths)} files to {Path(args.out)}")
    return 0


def _cmd_sweep(args) -> int:
    scales = []
    for part in args.scales.split(","):
        part = part.strip()
        if part:
            try:
                scales.append(float(part))
            except ValueError:
                raise ConfigError(f"bad rate scale {part!r}") from None
    if not scales:
        raise ConfigError("no rate scales given")
    config = _build_config(args)
    scaled_configs = [
        dataclasses.replace(config, total_arrival_rate=config.total_arrival_rate * scale)
        for scale in scales
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["rate_scale,total_arrival_rate,requested,rejected,rejection_ratio,"
             "mean_alloc_per_stream," + ",".join(f"util_{kind}" for kind in LINK_KINDS)]
    for scale, scaled in zip(scales, scaled_configs):
        result = run(scaled)
        walked = Replay(result.ledgers, scaled.horizon)
        util, mean_alloc = walked.utilization(), walked.mean_alloc()
        counters = result.counters
        utils = ",".join(_fmt(util[kind]) for kind in LINK_KINDS)
        lines.append(
            f"{_fmt(scale)},{_fmt(scaled.total_arrival_rate)},{counters.requested},"
            f"{counters.rejected},{_fmt(counters.rejection_ratio)},{_fmt(mean_alloc)},{utils}"
        )
        print(f"scale {scale:g}: requests={counters.requested} "
              f"mean_alloc={mean_alloc:.2f} rejected={counters.rejected}")
    path = _write_lines(out / "sweep.csv", lines)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vodsim",
        description="Simulate class-aware bandwidth allocation on a ring of "
                    "video proxy servers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single run, full report set")
    _add_common(p_run)
    p_run.add_argument("--no-psg", action="store_true",
                       help="disable proxy sharing; every miss goes to the central server")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="same seed with and without proxy sharing")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat a run at scaled arrival rates")
    _add_common(p_sweep)
    p_sweep.add_argument("--scales", default="0.25,1,4",
                         help="comma-separated multipliers of the arrival rate")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
