"""Counters, ledger-derived series, ledger replay integrals and report emission."""

from __future__ import annotations

import math
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim import metrics
from vodsim.allocation import (
    ALLOCATE,
    LEDGER_RECORD,
    LINK_KINDS,
    PS_CMS,
    PS_LPS,
    PS_RPS,
    RECLAIM,
    RELEASE,
    Link,
)
from vodsim.config import ConfigError, SimConfig
from vodsim.metrics import (
    _COUNT,
    _INTEGRATED,
    _MAX,
    _MIN,
    _RATE,
    _STATE_LEN,
    Counters,
    MetricsBundle,
    Replay,
    emit_reports,
    time_avg_utilization,
)
from vodsim.model import CLASSES
from vodsim.sim import baseline_no_psg, run

C1, C2, C3 = CLASSES


def pack_rows(rows):
    """``rows`` as ledger bytes, each row a ``LEDGER_RECORD`` field tuple:
    (time, op code, alloc id, video id, class, amount, min rate, max rate)."""
    return b"".join(LEDGER_RECORD.pack(*row) for row in rows)


def ledger_link(label, rows, capacity=10):
    """A PS_CMS link whose ledger is the hand-written ``rows``."""
    link = Link(PS_CMS, capacity, label)
    link.ledger += pack_rows(rows)
    return link


def test_counters_identity_and_ratios():
    counters = Counters(requested=100, local_hits=40, served_lps=20, served_rps=15,
                        served_cms=10, rejected=5, drained=10)
    assert counters.identity_holds()
    assert counters.remote_requests == 60
    assert counters.served_remote == 45
    assert counters.rejection_ratio == pytest.approx(5 / 60)
    counters.drained = 9
    assert not counters.identity_holds()


def test_rejection_ratio_no_remote():
    assert Counters(requested=5, local_hits=5).rejection_ratio == 0.0


def hand_reports(tmp_path, links, horizon, ticks):
    """The report lines, by file name, of a run whose ledgers are ``links``
    and whose samples fell at ``ticks``."""
    bundle = MetricsBundle()
    for tick in ticks:
        bundle.take_snapshot(tick)
    result = SimpleNamespace(config=SimConfig(horizon=horizon), counters=Counters(),
                             metrics=bundle, ledgers=links)
    return {path.name: path.read_text().splitlines() for path in emit_reports(result, tmp_path)}


ALLOC_HEADER = "time,streams,avg_alloc,avg_min,avg_max"


def test_snapshot_aggregates_by_kind_and_class(tmp_path):
    links = [Link(PS_LPS, 100, "a"), Link(PS_LPS, 100, "b"), Link(PS_CMS, 100, "c")]
    links[0].admit(0.0, 1, C1, 10, 20, 0)
    links[1].admit(0.0, 2, C1, 10, 30, 0)
    links[2].admit(0.0, 3, C2, 6, 18, 0)
    reports = hand_reports(tmp_path, links, horizon=5.0, ticks=[5.0])
    assert reports["alloc_ps_lps_class1.csv"] == [
        ALLOC_HEADER, "5.000000,2,25.000000,10.000000,25.000000"]
    assert reports["alloc_ps_cms_class2.csv"] == [
        ALLOC_HEADER, "5.000000,1,18.000000,6.000000,18.000000"]
    assert reports["alloc_ps_lps_class3.csv"] == [ALLOC_HEADER, "5.000000,0,,,"]
    assert reports["alloc_ps_rps_class1.csv"] == [ALLOC_HEADER, "5.000000,0,,,"]
    assert reports["util_ps_lps.csv"] == ["time,utilization", "5.000000,0.250000"]
    assert reports["util_ps_cms.csv"] == ["time,utilization", "5.000000,0.180000"]
    assert reports["util_ps_rps.csv"] == ["time,utilization"]


def test_series_tick_excludes_rows_stamped_at_it(tmp_path):
    # stream 1 lives on [0, 10); stream 2 starts at 10, exactly on a tick
    rows = [
        (0.0, ALLOCATE, 1, 7, 1, 4, 2, 6),
        (10.0, RELEASE, 1, 7, 1, 4, 2, 6),
        (10.0, ALLOCATE, 2, 8, 1, 3, 3, 9),
    ]
    reports = hand_reports(tmp_path, [ledger_link("tie", rows)], horizon=20.0,
                           ticks=[0.0, 5.0, 10.0, 15.0])
    assert reports["alloc_ps_cms_class1.csv"] == [
        ALLOC_HEADER,
        "0.000000,0,,,",
        "5.000000,1,4.000000,2.000000,6.000000",
        "10.000000,1,4.000000,2.000000,6.000000",
        "15.000000,1,3.000000,3.000000,9.000000",
    ]
    assert reports["util_ps_cms.csv"] == [
        "time,utilization", "0.000000,0.000000", "5.000000,0.400000",
        "10.000000,0.400000", "15.000000,0.300000",
    ]


def replay_by_brute_force(links, horizon, ticks):
    """``Replay``'s outputs, each tick's state summed afresh from every row
    stamped before it.  The count and rate integrals add the same terms in
    the same order as the walk; the used integral is summed segment by
    segment.  On a grid of 0.5 both are exact, so they must match the walk
    exactly."""
    capacity = {kind: 0 for kind in LINK_KINDS}
    integral = {kind: [0.0] * _INTEGRATED for kind in LINK_KINDS}
    at_ticks = {kind: [[0] * _STATE_LEN for _ in ticks] for kind in LINK_KINDS}
    lives = []
    for link in links:
        capacity[link.kind] += link.capacity
        changes, live = [], {}
        for row in link.rows:
            c, time = row.user_class, min(row.time, horizon)
            sign = {"allocate": 1, "reclaim": 0, "release": -1}[row.op]
            rate = -row.amount if row.op == "reclaim" else sign * row.amount
            change = [0] * _STATE_LEN
            change[0] = change[_RATE + c] = rate
            change[_COUNT + c] = sign
            change[_MIN + c], change[_MAX + c] = sign * row.min_rate, sign * row.max_rate
            changes.append((row.time, change))
            integral[link.kind][_COUNT + c] += sign * (horizon - time)
            integral[link.kind][_RATE + c] += rate * (horizon - time)
            if row.op == "allocate":
                live[row.alloc_id] = row.amount
            elif row.op == "reclaim":
                live[row.alloc_id] -= row.amount
            else:
                del live[row.alloc_id]
        lives.append(live)
        for i, tick in enumerate(ticks):
            for time, change in changes:
                if time < tick:
                    at_ticks[link.kind][i] = [a + b for a, b in zip(at_ticks[link.kind][i], change)]
        ends = [min(time, horizon) for time, _ in changes] + [horizon]
        for k, end in enumerate(ends):
            before = [sum(entry) for entry in zip([0] * _STATE_LEN, *(ch for _, ch in changes[:k]))]
            dt = end - (ends[k - 1] if k else 0.0)
            integral[link.kind][0] += before[0] * dt
    return capacity, integral, lives, at_ticks


def random_links(seed, horizon):
    """Links of every kind driven through ``admit``/``release`` at times on a
    grid of 0.5 that runs past ``horizon``, plus one link with no rows.  The
    last driven link starts at 3.5, the others at 0."""
    rng = random.Random(seed)
    kinds = (PS_LPS, PS_CMS, PS_RPS, PS_LPS, PS_CMS, PS_RPS)
    starts = (0.0, 0.0, 0.0, 0.0, 0.0, 3.5)
    links = [Link(kind, 40, f"fuzz{i}") for i, kind in enumerate(kinds)]
    for link, start in zip(links, starts):
        live, now = [], start
        while now <= horizon + 3.0:
            if live and rng.random() < 0.4:
                link.release(now, live.pop(rng.randrange(len(live))))
            else:
                admitted = link.admit(now, rng.randrange(9), rng.choice((C1, C2, C3)),
                                      rng.randint(4, 8), rng.randint(10, 20), rng.randrange(6))
                if admitted is not None:
                    live.append(admitted)
            now += rng.choice((0.0, 0.5, 1.0))
    return links + [Link(PS_RPS, 25, "empty")]


@pytest.mark.parametrize("seed", [4, 19])
@pytest.mark.parametrize("ticks", [
    [],
    [0.0, 1.5, 4.0, 7.5, 12.0, 19.5],
    [2.0 * i for i in range(1, 11)],  # the last tick is the horizon
    # two to four ticks between records a grid step apart, and a ledger
    # whose first record is the fourteenth tick
    [0.25 * i for i in range(1, 81)],
], ids=["no_ticks", "uneven", "to_horizon", "dense"])
def test_replay_equals_brute_force(seed, ticks):
    horizon = 20.0
    links = random_links(seed, horizon)
    rows = [row for link in links for row in link.rows]
    assert {"allocate", "reclaim", "release"} <= {row.op for row in rows}
    assert any(row.time > horizon for row in rows)
    assert not ticks or any(row.time in ticks for row in rows)
    walked = Replay(links, horizon, ticks)
    capacity, integral, lives, at_ticks = replay_by_brute_force(links, horizon, ticks)
    assert walked.capacity == capacity
    assert walked.integral == integral
    assert walked.live == lives
    assert walked.at_ticks == at_ticks


def test_used_entry_is_the_sum_of_the_class_rates():
    # perfbench's saturated_x4 at seed 1: every link kind carries every class
    result = run(SimConfig(total_arrival_rate=4.0, horizon=10000.0, seed=1))
    ticks = result.metrics.ticks
    walked = Replay(result.ledgers, result.config.horizon, ticks)
    for kind, states in walked.at_ticks.items():
        assert len(states) == len(ticks)
        assert all(any(state[_RATE + c] for state in states) for c in CLASSES)
        for state in states:
            assert state[0] == sum(state[_RATE + c] for c in CLASSES)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          report_multiple_bugs=False)
@given(steps=st.lists(st.tuples(st.floats(0.5, 5.0), st.sampled_from(CLASSES), st.integers(4, 8),
                                st.integers(10, 20), st.integers(0, 5), st.booleans()),
                      min_size=1, max_size=25),
       past=st.floats(-10.0, 10.0))
def test_replay_integrals_match_segment_integration(steps, past):
    # at arbitrary float times each change times the time left to the
    # horizon rounds otherwise than a segment-by-segment sum of the state
    # the link's own tables held, but the two integrals agree
    link = Link(PS_RPS, 40, "prop")
    live, now, states = [], 0.0, []
    for gap, c, low, high, weight, release in steps:
        now += gap
        if release and live:
            link.release(now, live.pop(weight % len(live)))
        elif (admitted := link.admit(now, weight, c, low, high, weight)) is not None:
            live.append(admitted)
        state = [link.used] + [0] * (_INTEGRATED - 1)
        for alloc in link.minimums:  # every live stream, with or without excess
            state[_COUNT + alloc.user_class] += 1
            state[_RATE + alloc.user_class] += link.rate(alloc)
        states.append((now, state))
    horizon = max(now + past, 1.0)
    expected = [0.0] * _INTEGRATED
    ends = [time for time, _ in states[1:]] + [math.inf]
    for (start, state), end in zip(states, ends):
        dt = min(end, horizon) - min(start, horizon)
        expected = [total + entry * dt for total, entry in zip(expected, state)]
    walked = Replay([link], horizon)
    assert walked.integral[PS_RPS] == pytest.approx(expected, rel=1e-12)
    assert walked.utilization() == {
        PS_RPS: pytest.approx(expected[0] / (40 * horizon), rel=1e-12)}
    streams = sum(expected[_COUNT + c] for c in CLASSES)
    assert walked.mean_alloc() == pytest.approx(expected[0] / streams if streams else 0.0,
                                                rel=1e-12)


def hand_ledger():
    # capacity 10: rate 4 on [0,10), cut to 2 at t=10, released at t=20
    rows = [
        (0.0, ALLOCATE, 1, 7, 1, 4, 2, 4),
        (10.0, RECLAIM, 1, 7, 1, 2, 2, 4),
        (20.0, RELEASE, 1, 7, 1, 2, 2, 4),
    ]
    return ledger_link("hand", rows)


def test_time_avg_utilization_hand_case():
    util = time_avg_utilization([hand_ledger()], horizon=40.0)
    # (4*10 + 2*10 + 0*20) / (10*40)
    assert util[PS_CMS] == pytest.approx(60 / 400)


def test_ledger_bytes_hand_case():
    walked = Replay([hand_ledger()], horizon=40.0)
    assert sum(i[0] for i in walked.integral.values()) == pytest.approx(60.0)


def test_mean_alloc_hand_case():
    walked = Replay([hand_ledger()], horizon=40.0)
    means = walked.mean_alloc_by_class()
    # stream lives 20s at rates 4 then 2 -> time-avg 3 per live stream
    assert means[(PS_CMS, C1)] == pytest.approx(3.0)
    assert (PS_CMS, C2) not in means
    assert walked.mean_alloc_per_class() == {C1: pytest.approx(3.0)}
    assert walked.mean_alloc() == pytest.approx(3.0)


def test_replay_rejects_corrupt_ledger():
    def bad(*rows):
        return [ledger_link("bad", rows)]

    with pytest.raises(ValueError):
        time_avg_utilization(bad((0.0, ALLOCATE, 1, 7, 1, 14, 4, 14)), 10.0)
    # op 3 is past the last code; the message names it, not an IndexError
    with pytest.raises(ValueError, match="'op 3' of 1 on bad"):
        time_avg_utilization(bad((0.0, 3, 1, 7, 1, 4, 4, 8)), 10.0)
    with pytest.raises(ValueError, match="release"):
        Replay(bad((0.0, ALLOCATE, 1, 7, 1, 6, 4, 8),
                   (1.0, RELEASE, 1, 7, 1, 5, 4, 8)), 10.0)
    with pytest.raises(ValueError):
        Replay(bad((0.0, RECLAIM, 1, 7, 1, 2, 4, 8)), 10.0)
    with pytest.raises(ValueError, match="'release' of 2 on bad"):
        Replay(bad((0.0, ALLOCATE, 1, 7, 1, 6, 4, 8),
                   (1.0, RELEASE, 2, 7, 1, 6, 4, 8)), 10.0)
    # a class byte outside 1..3 names the class, the allocation and the link
    for c in (0, 4):
        with pytest.raises(ValueError, match=f"class {c} of 1 on bad"):
            Replay(bad((0.0, ALLOCATE, 1, 7, c, 4, 4, 8)), 10.0)
    # a release stamped before its allocate, inside the link's bounds
    with pytest.raises(ValueError, match="record of 1 on bad at 2.0 after 6.0"):
        Replay(bad((6.0, ALLOCATE, 1, 7, 1, 4, 4, 8), (2.0, RELEASE, 1, 7, 1, 4, 4, 8)), 10.0)
    # an allocate of 8 MB/s stamped before time 0 or at NaN, released at 5.0:
    # walked as stamped, they would replay to a utilization of 3.6 and of NaN
    for start in (-40.0, math.nan):
        with pytest.raises(ValueError, match=f"record of 1 on bad at {start} after 0.0"):
            Replay(bad((start, ALLOCATE, 1, 7, 1, 8, 4, 8), (5.0, RELEASE, 1, 7, 1, 8, 4, 8)),
                   10.0)
    # an allocate outside its rate window, below the link's capacity
    for amount in (3, 9, 50):
        with pytest.raises(ValueError, match="'allocate' of 1 on bad"):
            Replay([ledger_link("bad", [(0.0, ALLOCATE, 1, 7, 1, amount, 4, 8)], 100)], 10.0)
    # a reclaim that leaves the stream at 1 MB/s, below its minimum of 4
    with pytest.raises(ValueError, match="'reclaim' of 1 on bad"):
        Replay(bad((0.0, ALLOCATE, 1, 7, 1, 8, 4, 8), (1.0, RECLAIM, 1, 7, 1, 7, 4, 8)), 10.0)
    # each bound itself replays
    Replay(bad((0.0, ALLOCATE, 1, 7, 1, 4, 4, 8), (0.0, ALLOCATE, 2, 7, 1, 6, 4, 6),
               (0.0, RECLAIM, 2, 7, 1, 2, 4, 6)), 10.0)
    # bytes that are not a whole number of records
    truncated = ledger_link("bad", [(0.0, ALLOCATE, 1, 7, 1, 6, 4, 8)])
    del truncated.ledger[-1]
    with pytest.raises(ValueError, match="bad"):
        Replay([truncated], 10.0)


# Walked unchecked, each input below gives wrong numbers on the ledgers of
# run(SimConfig(horizon=200.0)) instead of an error: NaN utilization for
# every kind at a NaN or infinite horizon, -0.0 at -5.0, ps_cms used MB/s of
# 163 at both ticks 100 and 50 (the state at 50 is 73), 0 at a NaN tick, and
# 0 at a tick past the horizon.
@pytest.mark.parametrize("walk, match", [
    pytest.param(lambda ledgers: time_avg_utilization(ledgers, math.nan), "horizon", id="avg-nan"),
    pytest.param(lambda ledgers: time_avg_utilization(ledgers, math.inf), "horizon", id="avg-inf"),
    pytest.param(lambda ledgers: time_avg_utilization(ledgers, 0.0), "positive horizon",
                 id="avg-zero"),
    pytest.param(lambda ledgers: Replay(ledgers, math.nan), "horizon", id="nan"),
    pytest.param(lambda ledgers: Replay(ledgers, math.inf), "horizon", id="inf"),
    pytest.param(lambda ledgers: Replay(ledgers, -5.0), "horizon", id="negative"),
    pytest.param(lambda ledgers: Replay(ledgers, 200.0, [100.0, 50.0]), "ticks", id="descending"),
    pytest.param(lambda ledgers: Replay(ledgers, 200.0, [math.nan]), "ticks", id="nan-tick"),
    pytest.param(lambda ledgers: Replay(ledgers, 200.0, [-1.0, 100.0]), "ticks", id="tick-below-0"),
    pytest.param(lambda ledgers: Replay(ledgers, 200.0, [100.0, 250.0]), "ticks",
                 id="tick-past-horizon"),
])
def test_replay_refuses_a_horizon_or_ticks_it_cannot_walk(walk, match):
    ledgers = run(SimConfig(horizon=200.0)).ledgers
    with pytest.raises(ValueError, match=match):
        walk(ledgers)


def test_replay_at_horizon_zero_walks_but_averages_no_utilization():
    # a horizon of 0 is a legal walk with nothing to average utilization over
    ledgers = [hand_ledger(), ledger_link("open", [(5.0, ALLOCATE, 2, 7, 1, 4, 2, 4)])]
    walked = Replay(ledgers, 0.0)
    with pytest.raises(ValueError, match="positive horizon"):
        walked.utilization()
    assert walked.live == [{}, {2: 4}]
    assert walked.mean_alloc() == 0.0


@pytest.mark.parametrize("horizon, match", [
    (0.0, "positive horizon"), (math.inf, "horizon inf outside"), (-5.0, "horizon -5.0 outside"),
])
def test_emit_reports_refuses_a_horizon_it_cannot_average_before_writing_a_file(
        horizon, match, tmp_path):
    # a caller-built result whose ledger is sound: unchecked, a horizon of
    # inf would print CHECK:ledger_bounds=FAIL and one of 0 divide by zero.
    # No SimConfig holds such a horizon, so a stand-in carries it
    with pytest.raises(ConfigError, match="horizon"):
        SimConfig(horizon=horizon)
    config = SimpleNamespace(**{**vars(SimConfig()), "horizon": horizon})
    result = SimpleNamespace(config=config, counters=Counters(),
                             metrics=SimpleNamespace(ticks=[]), ledgers=[hand_ledger()])
    with pytest.raises(ValueError, match=match):
        emit_reports(result, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emit_reports_refuses_bad_ticks_before_writing_a_file(tmp_path):
    # the ledgers are sound, so ticks out of order are no corrupt ledger:
    # they name themselves, and nothing is written
    result = run(SimConfig(horizon=200.0))
    for ticks in ([100.0, 50.0], [100.0, 250.0], [-1.0], [math.nan]):
        bad = SimpleNamespace(config=result.config, counters=result.counters,
                              metrics=SimpleNamespace(ticks=ticks), ledgers=result.ledgers)
        with pytest.raises(ValueError, match=re.escape(f"ticks {ticks} must ascend")):
            emit_reports(bad, tmp_path / "out")
        assert not (tmp_path / "out").exists()
    emit_reports(result, tmp_path / "out")
    assert "CHECK:ledger_bounds=PASS" in (tmp_path / "out" / "summary.txt").read_text()


def test_utilization_replay_matches_sampled_series():
    config = SimConfig(horizon=400.0, seed=21)
    result = run(config)
    replayed = time_avg_utilization(result.ledgers, config.horizon)
    walked = Replay(result.ledgers, config.horizon, result.metrics.ticks)
    for kind, states in walked.at_ticks.items():
        sampled = sum(state[0] for state in states) / (len(states) * walked.capacity[kind])
        assert replayed[kind] == pytest.approx(sampled, abs=0.05)


def test_emit_reports_writes_standard_set(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    result = run(config)
    paths = emit_reports(result, tmp_path / "out")
    assert len(paths) == 14
    names = sorted(path.name for path in paths)
    assert "summary.txt" in names
    assert "rejections.csv" in names
    assert sum(1 for n in names if n.startswith("alloc_")) == 9
    assert sum(1 for n in names if n.startswith("util_")) == 3
    for path in paths:
        assert path.exists() and path.stat().st_size > 0
    header = (tmp_path / "out" / "alloc_ps_cms_class1.csv").read_text().splitlines()[0]
    assert header == "time,streams,avg_alloc,avg_min,avg_max"
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "CHECK:conservation=PASS" in summary
    assert "CHECK:ledger_bounds=PASS" in summary


def test_emit_reports_flags_out_of_bounds_ledger(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    result = run(config)
    ledger = result.ledgers[0]
    over = ledger.capacity + 1  # inside its own rate window, so only the bound refuses it
    ledger.ledger[:0] = pack_rows([(0.0, ALLOCATE, 0, 0, 1, over, over, over)])
    paths = emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "CHECK:ledger_bounds=FAIL" in summary
    assert "util_avg_" not in summary
    assert "CHECK:conservation=PASS" in summary
    series = [path for path in paths if path.name.startswith(("alloc_", "util_"))]
    assert len(series) == 12
    for path in series:
        assert path.read_text() in (ALLOC_HEADER + "\n", "time,utilization\n")


def test_emit_reports_flags_a_partial_record(tmp_path):
    result = run(SimConfig(horizon=200.0, seed=2))
    ledger = next(link for link in result.ledgers if link.ledger)
    ledger.ledger += b"\0"
    emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "CHECK:ledger_bounds=FAIL" in summary
    assert "CHECK:conservation=PASS" in summary


def test_emit_reports_flags_a_bad_class_byte(tmp_path):
    result = run(SimConfig(horizon=200.0, seed=2))
    # a stream of class 4 at the front of a ledger, inside its capacity
    result.ledgers[0].ledger[:0] = pack_rows([(0.0, ALLOCATE, 0, 0, 4, 4, 4, 8)])
    with pytest.raises(ValueError, match="class 4 of 0"):
        Replay(result.ledgers, result.config.horizon)
    emit_reports(result, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "CHECK:ledger_bounds=FAIL" in summary
    assert "CHECK:conservation=PASS" in summary


def test_emit_reports_flags_an_allocate_of_a_live_id(tmp_path):
    # counted twice, stream 1 would stay in every tick after its one
    # release: 10 MB/s and one stream on an empty link, inside its bounds
    rows = [
        (0.0, ALLOCATE, 1, 7, 1, 10, 8, 10),
        (1.0, ALLOCATE, 1, 7, 1, 10, 8, 10),
        (2.0, RELEASE, 1, 7, 1, 10, 8, 10),
    ]
    with pytest.raises(ValueError, match="'allocate' of 1 on dup"):
        Replay([ledger_link("dup", rows, capacity=30)], 10.0)
    reports = hand_reports(tmp_path, [ledger_link("dup", rows, capacity=30)], horizon=10.0,
                           ticks=[5.0, 10.0])
    assert "CHECK:ledger_bounds=FAIL" in reports["summary.txt"]
    series = [lines for name, lines in reports.items() if name.startswith(("alloc_", "util_"))]
    assert len(series) == 12
    assert all(len(lines) == 1 for lines in series)


def test_emit_reports_flags_a_record_out_of_time_order(tmp_path):
    # walked as stamped, the release at 2.0 would cancel the allocate at 6.0
    # at every tick and leave a utilization of -0.032
    rows = [(6.0, ALLOCATE, 1, 7, 1, 4, 4, 8), (2.0, RELEASE, 1, 7, 1, 4, 4, 8)]
    reports = hand_reports(tmp_path, [ledger_link("late", rows, capacity=50)], horizon=10.0,
                           ticks=[1.0, 3.0, 5.0, 7.0, 9.0])
    summary = reports["summary.txt"]
    assert "CHECK:ledger_bounds=FAIL" in summary
    assert not any(line.startswith("util_avg_") for line in summary)


def test_emit_reports_flags_a_record_before_time_zero(tmp_path):
    # walked as stamped, the allocate at -40.0 would carry 8 MB/s for 45 s of
    # a 10 s horizon on a 10 MB/s link: a utilization of 3.6
    rows = [(-40.0, ALLOCATE, 1, 7, 1, 8, 4, 8), (5.0, RELEASE, 1, 7, 1, 8, 4, 8)]
    reports = hand_reports(tmp_path, [ledger_link("early", rows)], horizon=10.0,
                           ticks=[1.0, 3.0, 5.0, 7.0, 9.0])
    summary = reports["summary.txt"]
    assert "CHECK:ledger_bounds=FAIL" in summary
    assert not any(line.startswith("util_avg_") for line in summary)


def test_one_replay_per_report(tmp_path, monkeypatch):
    walks = []

    class CountingReplay(Replay):
        def __init__(self, *args, **kwargs):
            walks.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics, "Replay", CountingReplay)
    result = run(SimConfig(horizon=200.0, seed=2))
    assert len(walks) == 0
    emit_reports(result, tmp_path)
    assert len(walks) == 1


def test_emit_reports_empty_cells_for_absent_averages(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    result = run(config)
    emit_reports(result, tmp_path)
    for line in (tmp_path / "alloc_ps_lps_class1.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[1] == "0":
            assert cells[2] == "" and cells[3] == "" and cells[4] == ""
            break
    else:
        pytest.skip("no empty sample in this seed")


def test_emit_reports_paired_columns(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    result = run(config)
    baseline = baseline_no_psg(config)
    emit_reports(result, tmp_path, baseline=baseline)
    lines = (tmp_path / "rejections.csv").read_text().splitlines()
    assert lines[0] == "metric,with_psg,without_psg"
    assert len(lines) == 10
    for line in lines[1:]:
        assert len(line.split(",")) == 3


BASELINE_RULE = "a baseline needs a run with sharing on and its config with sharing off"


@pytest.mark.parametrize("baseline_config", [
    SimConfig(horizon=200.0, seed=3, psg_enabled=False),
    SimConfig(horizon=200.0, seed=2),
    # same arrivals, other system: the columns would not compare sharing alone
    SimConfig(horizon=200.0, seed=2, psg_enabled=False, link_capacity=200),
    SimConfig(horizon=200.0, seed=2, psg_enabled=False, cache_capacity=80),
    SimConfig(horizon=200.0, seed=2, psg_enabled=False, agent_period=50.0),
], ids=["other_seed", "sharing_on", "link_capacity", "cache_capacity", "agent_period"])
def test_emit_reports_refuses_a_mismatched_baseline(baseline_config, tmp_path):
    # a without_psg column from another workload or system, or from a run
    # with sharing on, would be a wrong comparison written as a right one
    config = SimConfig(horizon=200.0, seed=2)
    result = run(config)
    out = tmp_path / "reports"
    with pytest.raises(ValueError, match=BASELINE_RULE):
        emit_reports(result, out, baseline=run(baseline_config))
    assert not out.exists()


def test_emit_reports_refuses_a_baseline_for_a_run_with_sharing_off(tmp_path):
    # its with_psg column would hold a second sharing-off run
    config = SimConfig(horizon=300.0, seed=2, psg_enabled=False)
    out = tmp_path / "reports"
    with pytest.raises(ValueError, match=BASELINE_RULE):
        emit_reports(run(config), out, baseline=baseline_no_psg(config))
    assert not out.exists()


def test_emit_reports_deterministic_bytes(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    paths_a = emit_reports(run(config), tmp_path / "a")
    paths_b = emit_reports(run(config), tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_int_and_float_configs_write_identical_reports(tmp_path):
    as_ints = SimConfig(horizon=200, sample_period=10, seed=2)
    as_floats = SimConfig(horizon=200.0, sample_period=10.0, seed=2)
    assert as_ints == as_floats
    paths_a = emit_reports(run(as_ints), tmp_path / "a")
    paths_b = emit_reports(run(as_floats), tmp_path / "b")
    assert [path.name for path in paths_a] == [path.name for path in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_line_endings_are_lf(tmp_path):
    config = SimConfig(horizon=200.0, seed=2)
    paths = emit_reports(run(config), tmp_path)
    for path in paths:
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_walk_handles_random_traffic():
    rng = random.Random(77)
    link = Link(PS_RPS, 80, "fuzz")
    live = []
    now = 0.0
    for _ in range(200):
        now += rng.random()
        if live and rng.random() < 0.5:
            link.release(now, live.pop(rng.randrange(len(live))))
        else:
            outcome = link.admit(now, rng.randrange(9), rng.choice((C1, C2, C3)),
                                 rng.randint(4, 8), rng.randint(12, 25), rng.randrange(6))
            if outcome is not None:
                live.append(outcome)
    for alloc in live:
        link.release(now + 1.0, alloc)
    horizon = now + 2.0
    util = time_avg_utilization([link], horizon)[PS_RPS]
    assert 0.0 <= util <= 1.0
    walked = Replay([link], horizon)
    assert sum(i[0] for i in walked.integral.values()) == pytest.approx(util * 80 * horizon)
