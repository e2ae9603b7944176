"""Mutation gate: every named mutant of ``src/`` must fail its tests.

For each mutant the runner copies ``src/`` to a temporary directory and
applies one text substitution to one file; a substitution that does not
match exactly once is an error.  It then runs the mutant's pytest
selection with ``-x -q`` against the copy (the copy's ``src`` first on
``PYTHONPATH``), under a per-mutant timeout, with the ``mutants`` Hypothesis
profile of ``tests/conftest.py``: a property test that fails stops at its
first counterexample instead of shrinking it.  The mutant is killed when
pytest reports failed tests (exit status 1); it survives when they pass.
Before any mutant, the union of the selections must pass on an unchanged
copy, so that a kill means the mutation was seen.  The mutants then run
in a fixed pool of ``WORKERS`` threads, each with its own copy, and the
verdicts print in ``MUTANTS`` order.

Stdlib only, and not collected by pytest.  From the repository root:

    python tests/mutants/run.py

Exits non-zero if a mutant survives, a substitution does not match once,
a selection does not pass unchanged, or a run errs or times out.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 30.0
WORKERS = 2  # pytest processes at a time


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


SIM, METRICS, ALLOCATION = "vodsim/sim.py", "vodsim/metrics.py", "vodsim/allocation.py"
TOPOLOGY, CONFIG, MODEL = "vodsim/topology.py", "vodsim/config.py", "vodsim/model.py"
CHANGING = "tests/test_sim.py::test_a_tamper_on_a_changing_link_is_caught_at_a_sample"
QUIET = "tests/test_sim.py::test_a_tamper_on_a_quiet_link_is_caught_before_the_drain"
NO_SAMPLE = "tests/test_sim.py::test_a_run_with_no_sample_tick_is_still_audited"
RECOUNT = "tests/test_sim.py::test_a_sample_recounts_exactly_the_links_whose_ledger_grew"
BRUTE_FORCE = "tests/test_metrics.py::test_replay_equals_brute_force"
CORRUPT = "tests/test_metrics.py::test_replay_rejects_corrupt_ledger"
HOPELESS = "tests/test_allocation.py::test_admit_refuses_a_hopeless_request_without_planning"
SHORT = "tests/test_allocation.py::test_plan_reclaim_rejects_exactly_when_excess_is_short"
EARLY = "tests/test_metrics.py::test_emit_reports_flags_a_record_before_time_zero"
RESCHEDULE = "tests/test_sim.py::test_reclaim_banks_bytes_and_reschedules"
HEAP_ORDER = "tests/test_sim.py::test_pending_arrival_keeps_all_heap_order"
MACHINE = "tests/test_allocation.py::TestLinkMachine"
ORDER = "tests/test_allocation.py::test_reclaim_order_is_weight_then_video_then_allocation_id"
EXHAUSTED = ("tests/test_allocation.py::"
             "test_a_reclaim_that_takes_all_of_a_victims_excess_removes_its_entry")
SHUFFLE = "tests/test_topology.py::test_shuffle_is_random_shuffle"
RANDINT = "tests/test_model.py::test_build_catalog_draws_as_randint"

MUTANTS = (
    Mutant("sample audits the links whose ledger did not grow", SIM,
           "if len(link.ledger) != link.audited:", "if len(link.ledger) == link.audited:",
           (CHANGING, RECOUNT)),
    Mutant("no audit before the drain", SIM,
           "        for link in self.ledgers:\n"
           "            link.check_conservation()\n"
           "        self._drain()",
           "        self._drain()",
           (NO_SAMPLE, QUIET, RECOUNT)),
    Mutant("audited length not stored", ALLOCATION,
           "        self.audited = len(self.ledger)\n", "",
           (QUIET, RECOUNT)),
    Mutant("the audit lets a link run over capacity", ALLOCATION,
           "        if self.used > self.capacity:\n"
           "            raise InvariantViolation(f\"link {self.label}: used={self.used} out of bounds\")\n",
           "",
           ("tests/test_sim.py::test_a_link_run_over_capacity_is_caught_at_a_sample",
            "tests/test_allocation.py::test_conservation_check_catches_a_link_over_capacity")),
    Mutant("replay lets a link run over capacity", METRICS,
           "                    if used > capacity:\n"
           "                        raise ValueError(f\"ledger replay out of bounds on {label}: {used}\")\n",
           "",
           (CORRUPT, "tests/test_metrics.py::test_emit_reports_flags_out_of_bounds_ledger")),
    Mutant("replay accepts an allocate of a live id", METRICS,
           "op == allocate and alloc_id not in live and", "op == allocate and",
           ("tests/test_metrics.py::test_emit_reports_flags_an_allocate_of_a_live_id",)),
    Mutant("replay counts a record stamped at a tick before that tick", METRICS,
           "if time >= next_tick:", "if time > next_tick:",
           (f"{BRUTE_FORCE}[uneven-4]", f"{BRUTE_FORCE}[to_horizon-4]")),
    Mutant("derived used entry drops a class", METRICS,
           "_RATES = slice(_RATE + 1, _RATE + 1 + len(CLASSES))",
           "_RATES = slice(_RATE + 1, _RATE + len(CLASSES))",
           ("tests/test_metrics.py::test_used_entry_is_the_sum_of_the_class_rates",)),
    Mutant("admit gives the maximum only with bandwidth to spare", ALLOCATION,
           "if free >= max_rate:", "if free > max_rate:",
           (MACHINE,)),
    Mutant("admit refuses a shortfall that excess exactly covers", ALLOCATION,
           "or shortfall > sum(pool.values()):",
           "or shortfall >= sum(pool.values()):",
           (HOPELESS, SHORT)),
    Mutant("plan_reclaim takes a shortfall outside 1..excess", ALLOCATION,
           "        if not 0 < shortfall <= pool:\n"
           "            raise ValueError(f\"shortfall {shortfall} outside 1..{pool}\")\n",
           "",
           (SHORT,)),
    Mutant("plan_reclaim keeps taking after the shortfall is covered", ALLOCATION,
           "            if shortfall == 0:\n"
           "                break\n",
           "",
           (MACHINE, SHORT)),
    Mutant("replay accepts a record stamped before its predecessor", METRICS,
           "                if not last <= time:  # last starts at 0.0; NaN fails too\n"
           "                    raise ValueError(f\"record of {alloc_id} on {label} at {time} after {last}\")\n",
           "",
           (CORRUPT, "tests/test_metrics.py::test_emit_reports_flags_a_record_out_of_time_order")),
    Mutant("replay accepts an allocate outside its rate window", METRICS,
           " and min_rate <= amount <= max_rate:", ":",
           (CORRUPT,)),
    Mutant("replay accepts a reclaim below the stream's minimum", METRICS,
           " and live[alloc_id] - amount >= min_rate:", ":",
           (CORRUPT,)),
    Mutant("replay accepts a record stamped before time 0", METRICS,
           "ticks[0] if ticks else math.inf, 0.0\n", "ticks[0] if ticks else math.inf, -math.inf\n",
           (CORRUPT, EARLY)),
    Mutant("admit applies a take outside 1..the victim's excess", ALLOCATION,
           "            if not 0 < take <= excess:\n"
           "                raise InvariantViolation(\"reclaim would push a stream below its minimum\")\n",
           "",
           ("tests/test_allocation.py::test_apply_reclaim_takes_only_positive_amounts_above_minimum",)),
    Mutant("admit writes a zero excess entry", ALLOCATION,
           "if rate > min_rate:", "if rate >= min_rate:",
           (MACHINE, "tests/test_allocation.py::test_an_admit_at_the_minimum_writes_no_excess_entry")),
    Mutant("an exhausted victim keeps a zero excess entry", ALLOCATION,
           "            if take < excess:\n"
           "                table[victim] = excess - take\n"
           "            else:\n"
           "                del table[victim]\n",
           "            table[victim] = excess - take\n",
           (MACHINE, EXHAUSTED)),
    Mutant("Link.rate reads a missing excess entry as 1", ALLOCATION,
           ".get(alloc, 0)", ".get(alloc, 1)",
           (MACHINE,)),
    Mutant("the reclaim order puts the video id first", ALLOCATION,
           'attrgetter("weight", "video_id", "alloc_id")',
           'attrgetter("video_id", "weight", "alloc_id")',
           (MACHINE, ORDER)),
    Mutant("the reclaim order breaks weight ties by allocation id first", ALLOCATION,
           'attrgetter("weight", "video_id", "alloc_id")',
           'attrgetter("weight", "alloc_id", "video_id")',
           (MACHINE, ORDER)),
    Mutant("a miss goes to a neighbor with sharing off", TOPOLOGY,
           "    if world.psg_enabled:\n", "    if True:\n",
           ("tests/test_topology.py::test_route_without_sharing_goes_central",
            "tests/test_sim.py::test_no_psg_never_touches_neighbor_links")),
    Mutant("a routing tie goes left", TOPOLOGY,
           "lps_link.capacity - lps_link.used > rps_link.capacity - rps_link.used",
           "lps_link.capacity - lps_link.used >= rps_link.capacity - rps_link.used",
           ("tests/test_topology.py::test_route_tie_goes_right",)),
    Mutant("the pending arrival wins every tie", SIM,
           "if at < top[0] or at == top[0] and at_seq < top[1]:", "if at <= top[0]:",
           (HEAP_ORDER,)),
    Mutant("the heap event wins every tie", SIM,
           "if at < top[0] or at == top[0] and at_seq < top[1]:", "if at < top[0]:",
           (HEAP_ORDER,
            "tests/test_sim.py::test_completions_pushed_by_an_arrival_run_before_the_next_arrival")),
    Mutant("a stale completion closes its stream", SIM,
           "        if link.rate(alloc) != rate:\n"
           "            self._push_completion(alloc, link, proxy_id)\n"
           "            return\n",
           "",
           (RESCHEDULE, "tests/test_sim.py::test_each_live_stream_has_one_completion_event")),
    Mutant("a completion is timed from the clock, not the last rate change", SIM,
           "self._push(alloc.since + (size_mb - alloc.sent) / rate,",
           "self._push(self.now + (size_mb - alloc.sent) / rate,",
           (RESCHEDULE,)),
    Mutant("a local hit keeps its place in the LRU order", TOPOLOGY,
           "cache[video_id] = cache.pop(video_id)", "cache[video_id] = cache[video_id]",
           ("tests/test_topology.py::test_handle_request_local_hit_touches_lru",)),
    Mutant("the weight ignores the proxy's own count", TOPOLOGY,
           "    if local_counts[cell] > weight:\n"
           "        weight = local_counts[cell]\n",
           "",
           ("tests/test_topology.py::test_weight_prefers_fresher_view",)),
    Mutant("insert evicts a live entry", TOPOLOGY,
           "if not live:", "if True:",
           ("tests/test_topology.py::test_lru_skips_live_entries",)),
    Mutant("a tour skips a dirty cell", TOPOLOGY,
           "weights[cell] = counts[cell]", "pass",
           ("tests/test_agent.py",)),
    Mutant("the drain ignores admission order", SIM,
           "key=lambda entry: entry[0].alloc_id,", "key=lambda entry: -entry[0].alloc_id,",
           ("tests/test_sim.py::test_drain_closes_in_admission_order",)),
    Mutant("replay walks ticks out of order or outside [0, horizon]", METRICS,
           "        _check_walk(ticks, horizon)\n", "",
           ("tests/test_metrics.py::test_replay_refuses_a_horizon_or_ticks_it_cannot_walk",)),
    Mutant("emit_reports reports bad ticks as a corrupt ledger", METRICS,
           "    _check_walk(result.metrics.ticks, result.config.horizon)\n", "",
           ("tests/test_metrics.py::test_emit_reports_refuses_bad_ticks_before_writing_a_file",)),
    Mutant("validate passes tables too large to build", CONFIG,
           "        if self.num_proxies * self.num_videos > MAX_TICKS:\n"
           "            raise ConfigError(f\"num_proxies * num_videos must be at most {MAX_TICKS}\")\n",
           "",
           ("tests/test_config.py::test_validate_caps_the_proxy_video_pairs",)),
    Mutant("a SimConfig is built without validation", CONFIG,
           "    def __post_init__(self):\n        self.validate()\n",
           "    def __post_init__(self):\n        pass\n",
           ("tests/test_config.py::test_validate_rejects_bad_values",)),
    Mutant("a tuple field of the wrong length is accepted", CONFIG,
           "                if len(value) != len(f.default):\n"
           "                    raise ConfigError(f\"{f.name} must have exactly {len(f.default)} values\")\n",
           "",
           ("tests/test_config.py::test_validate_rejects_bad_values",
            "tests/test_config.py::test_load_config_bad_tuple")),
    Mutant("an unreadable config escapes as OSError", CONFIG,
           "except (OSError, UnicodeDecodeError) as exc:", "except UnicodeDecodeError as exc:",
           ("tests/test_config.py::test_load_config_unreadable_file",)),
    Mutant("a SimConfig can be changed after it is built", CONFIG,
           "@dataclass(frozen=True)", "@dataclass(frozen=False)",
           ("tests/test_config.py::"
            "test_a_built_config_is_frozen_and_a_changed_copy_is_checked",)),
    Mutant("a run with sharing off takes a baseline", METRICS,
           "(not result.config.psg_enabled\n                                 or ", "(",
           ("tests/test_metrics.py::"
            "test_emit_reports_refuses_a_baseline_for_a_run_with_sharing_off",)),
    Mutant("utilization averages over a horizon of 0", METRICS,
           "        if not self.horizon:\n"
           "            raise ValueError(\"utilization needs a positive horizon\")\n",
           "",
           ("tests/test_metrics.py::"
            "test_replay_at_horizon_zero_walks_but_averages_no_utilization",)),
    Mutant("proxy 0's left neighbor is proxy 1", TOPOLOGY,
           "proxies[proxy_id - 1].cache", "proxies[proxy_id - 1 if proxy_id else 1].cache",
           ("tests/test_scaling.py::test_rotating_the_ring_rotates_only_the_links",)),
    Mutant("the tier shuffle stops at index 2", TOPOLOGY,
           "for i in range(len(pool) - 1, 0, -1):", "for i in range(len(pool) - 1, 1, -1):",
           (f"{SHUFFLE}[0]",)),
    Mutant("a shuffle draw takes one bit too few", TOPOLOGY,
           "bits = (i + 1).bit_length()", "bits = i.bit_length()",
           (f"{SHUFFLE}[0]",)),
    Mutant("placement marks the id below the one dealt", TOPOLOGY,
           "mask[video_id] = 1", "mask[video_id - 1] = 1",
           ("tests/test_topology.py::test_placement_slices_equal_skip_loop",)),
    Mutant("a maximum window is stored under the wrong key", MODEL,
           "(max1 * wmax2 + max2) * wmax3 + max3", "(max1 * wmax2 + max3) * wmax3 + max2",
           (f"{RANDINT}[large_catalog-0]",)),
    Mutant("a written-out draw keeps a value equal to its width", MODEL,
           "while (max3 := getrandbits(bmax3)) >= wmax3: pass",
           "while (max3 := getrandbits(bmax3)) > wmax3: pass",
           (f"{RANDINT}[2400-4800-0]",)),
    Mutant("each video gets a minimum window of its own", MODEL,
           "min_windows[(min1 * wmin2 + min2) * wmin3 + min3]",
           "(*min_windows[(min1 * wmin2 + min2) * wmin3 + min3],)",
           ("tests/test_model.py::test_a_drawn_catalog_shares_each_rate_window[0]",)),
    Mutant("a passed catalog's entries are copied", SIM,
           "catalog = catalog or build_catalog(",
           "catalog = catalog and [dataclasses.replace(v) for v in catalog] or build_catalog(",
           ("tests/test_sim.py::test_a_passed_catalog_is_kept_object_for_object",)),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for ``tests`` against the package under ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["HYPOTHESIS_PROFILE"] = "mutants"  # no shrinking; see tests/conftest.py
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode


def mutated_copy(scratch: Path, mutant: Mutant | None) -> Path:
    """A fresh copy of ``src/`` under ``scratch``, with ``mutant`` applied."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            raise ValueError(f"its text matches {count} times in {mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def verdict(scratch: Path, mutant: Mutant) -> str:
    """The line that reports ``mutant``, run in a copy under ``scratch``."""
    start = time.perf_counter()
    try:
        status = run_tests(mutated_copy(scratch, mutant), mutant.tests)
    except ValueError as exc:
        return f"ERROR     {mutant.name}: {exc}"
    except subprocess.TimeoutExpired:
        return f"ERROR     {mutant.name}: timed out after {TIMEOUT_S:.0f} s"
    outcome = {0: "SURVIVED", 1: "killed  "}.get(status, f"ERROR {status}")
    return f"{outcome}  {mutant.name} ({time.perf_counter() - start:.1f} s)"


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        selection = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        try:
            status = run_tests(mutated_copy(Path(tmp), None), selection)
        except subprocess.TimeoutExpired:
            status = "timed out"
        if status != 0:
            print(f"ERROR     the selections on unchanged src/: pytest status {status}")
            return 1
        # a worker takes a free copy for each mutant and hands it back after
        scratches = queue.SimpleQueue()
        for worker in range(WORKERS):
            scratches.put(Path(tmp) / str(worker))

        def judge(mutant: Mutant) -> str:
            scratch = scratches.get()
            try:
                return verdict(scratch, mutant)
            finally:
                scratches.put(scratch)

        for line in pool.map(judge, MUTANTS):
            failures += not line.startswith("killed")
            print(line, flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
