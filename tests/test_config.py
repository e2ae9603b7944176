"""Configuration defaults, validation and the key=value file format."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vodsim.allocation import FIELD_MAX
from vodsim.config import MAX_TICKS, ConfigError, SimConfig, load_config


def test_defaults_validate():
    config = SimConfig().validate()
    assert config.num_proxies == 6
    assert config.num_videos == 480
    assert config.link_capacity == 300
    assert config.tier_mix == (0.50, 0.35, 0.15)
    assert config.class_mix == (0.20, 0.30, 0.50)
    assert config.psg_enabled


@pytest.mark.parametrize("field,value", [
    ("num_proxies", 2),
    ("num_videos", 0),
    ("num_videos", 482),
    ("link_capacity", 0),
    ("cache_capacity", 0),
    ("cache_capacity", 481),
    ("cache_capacity", 42),
    ("video_size_min", 0),
    ("video_size_max", 100),
    ("total_arrival_rate", 0.0),
    ("tier_mix", (0.5, 0.5, 0.5)),
    ("class_mix", (0.2, 0.3, 0.4)),
    # a mix must have exactly three shares; extra items are not dropped
    ("tier_mix", (0.5, 0.5)),
    ("class_mix", (0.2, 0.3, 0.5, 0.0)),
    ("horizon", 0.0),
    ("agent_period", -1.0),
    ("sample_period", 0.0),
    ("horizon", float("nan")),
    ("horizon", float("inf")),
    ("total_arrival_rate", float("nan")),
    ("total_arrival_rate", float("inf")),
    ("agent_period", float("nan")),
    ("agent_period", float("inf")),
    ("sample_period", float("nan")),
    ("sample_period", float("inf")),
    ("tier_mix", (0.5, float("nan"), 0.15)),
    ("tier_mix", (float("inf"), 0.35, 0.15)),
    ("class_mix", (0.2, 0.3, float("nan"))),
    ("class_mix", (0.2, float("inf"), 0.5)),
    # each value's type must be its default's; an int may stand for a float
    ("tier_mix", (10 ** 400, 0.35, 0.15)),
    ("tier_mix", (0.5, 0.35, True)),
    ("link_capacity", 300.5),
    ("psg_enabled", "no"),
    ("psg_enabled", 1),
    ("num_videos", 480.0),
    ("cache_capacity", 160.0),
    ("num_proxies", 6.0),
    ("seed", True),
    ("tier_mix", [0.5, 0.35, 0.15]),
    ("class_mix", (0.2, 0.3, "0.5")),
    # an int stands for a float only inside the float range
    pytest.param("horizon", 10 ** 400, id="horizon-huge-int"),
    # with no proxies, or a tier of no videos, an arrival's redraw loop
    # would never end; a float proxy count would raise AttributeError there
    ("num_proxies", 0),
    ("num_proxies", 4.5),
    ("num_videos", -4),
    ("num_videos", 2),
    # tier ranges that are not quarters
    ("num_videos", 5),
    ("num_videos", 30),
    ("num_videos", 481),
    # a negative rate gives gaps that run the clock backwards
    ("total_arrival_rate", -1.0),
    # these would draw every request from the top tier, or of class 3
    ("tier_mix", (1.5, -0.25, -0.25)),
    ("class_mix", (0, 0, 0)),
])
def test_validate_rejects_bad_values(field, value):
    # building the config runs validate(), whose refusal names the field
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: value})


def test_a_built_config_is_frozen_and_a_changed_copy_is_checked():
    config = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.horizon = -1.0
    with pytest.raises(ConfigError, match="horizon must be positive"):
        dataclasses.replace(config, horizon=-1.0)
    assert config.horizon == 10000.0
    # a second check finds nothing to change
    assert config.validate() is config and config == SimConfig()


@pytest.mark.parametrize("field, widest, too_wide", [
    ("link_capacity", 2**32 - 1, 2**32),  # a ledger amount is 32 bits
    # 4 proxies times 2,500,000 videos is MAX_TICKS proxy-video pairs
    ("num_videos", 2_500_000, 2_500_004),
])
def test_validate_bounds_ledger_fields(field, widest, too_wide):
    # validate() only, on a ring of 4 proxies: a run at either bound would
    # need gigabytes of tables
    ring = dataclasses.replace(SimConfig(), num_proxies=4)
    assert getattr(dataclasses.replace(ring, **{field: widest}).validate(), field) == widest
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(ring, **{field: too_wide}).validate()


@pytest.mark.parametrize("changes", [
    {"num_proxies": 10**9},
    {"num_videos": 2**32, "cache_capacity": 4},
    {"num_proxies": MAX_TICKS // 480 + 1},
], ids=["billion-proxies", "2**32-videos", "just-over"])
def test_validate_caps_the_proxy_video_pairs(changes):
    # validate() only: each proxy holds three demand cells per video, so a
    # refused config would build over 3 * 10**7 cells before its first event
    with pytest.raises(ConfigError, match="num_proxies \\* num_videos"):
        dataclasses.replace(SimConfig(), **changes).validate()


def test_the_proxy_video_cap_keeps_video_ids_in_a_ledger_field():
    # with at least 3 proxies the cap leaves fewer than MAX_TICKS // 3
    # videos, so validate() needs no check of its own on the 32-bit ids
    assert MAX_TICKS // 3 - 1 <= FIELD_MAX


@pytest.mark.parametrize("name", ["sample_period", "agent_period"])
def test_validate_caps_the_ticks_a_run_schedules(name):
    # validate() only: each refused config would schedule over 10**7 events,
    # 1e-9 about 10**13 at the default horizon
    at_cap = dataclasses.replace(SimConfig(), horizon=float(MAX_TICKS), **{name: 1.0})
    assert at_cap.validate().horizon / getattr(at_cap, name) == MAX_TICKS
    for changes in ({name: 1e-9}, {"horizon": float(MAX_TICKS), name: math.nextafter(1.0, 0.0)}):
        with pytest.raises(ConfigError, match=f"horizon / {name}"):
            dataclasses.replace(SimConfig(), **changes).validate()


def test_validate_caps_the_arrivals_a_run_draws():
    # validate() only: 1e9 requests/s at the default horizon would draw
    # about 10**13 requests; the cap is on the expected count, horizon * rate
    over = math.nextafter(1000.0, math.inf)
    assert SimConfig().horizon * over > MAX_TICKS
    for at_cap in ({"total_arrival_rate": 1000.0},
                   {"horizon": float(MAX_TICKS), "total_arrival_rate": 1.0}):
        config = SimConfig(**at_cap).validate()
        assert config.horizon * config.total_arrival_rate == MAX_TICKS
    for changes in ({"total_arrival_rate": 1e9}, {"total_arrival_rate": over},
                    {"horizon": math.nextafter(float(MAX_TICKS), math.inf)}):
        with pytest.raises(ConfigError, match=r"horizon \* total_arrival_rate"):
            SimConfig(**changes).validate()


def test_tick_cap_refuses_long_horizons_and_keeps_tours_off():
    # a long horizon at the default periods schedules as many samples
    with pytest.raises(ConfigError, match="horizon / sample_period"):
        SimConfig(horizon=1e9).validate()
    # an agent_period past the horizon, as a tours-off ablation sets it, is valid
    assert SimConfig(agent_period=1e9).validate().agent_period == 1e9


def test_validate_takes_int_for_float():
    # no validate() call: building the config stores the float
    config = SimConfig(total_arrival_rate=4, horizon=2000, tier_mix=(0.5, 0.25, 0.25))
    assert config.total_arrival_rate == 4.0
    # stored as the float it stands for, so equal configs format alike
    assert type(config.total_arrival_rate) is float and type(config.horizon) is float
    assert SimConfig(horizon=200) == SimConfig(horizon=200.0)


def write(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_config_parses_types(tmp_path):
    path = write(tmp_path, """
# comment line
seed = 42
horizon = 2500.5        # trailing comment
psg_enabled = false
tier_mix = 0.4, 0.4, 0.2
num_videos = 120
cache_capacity = 40
""")
    config = load_config(path)
    assert config.seed == 42
    assert config.horizon == 2500.5
    assert config.psg_enabled is False
    assert config.tier_mix == (0.4, 0.4, 0.2)
    assert config.num_videos == 120


def test_load_config_unknown_key(tmp_path):
    path = write(tmp_path, "bandwidth = 7\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    # weights are plain request counts; there is no per-class profit field
    path = write(tmp_path, "profits = 3, 2, 1\n")
    with pytest.raises(ConfigError, match="unknown key 'profits'"):
        load_config(path)


def test_load_config_rejects_dropped_agent_window(tmp_path):
    path = write(tmp_path, "agent_window = cumulative\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_round_trips_defaults(tmp_path):
    lines = []
    for field in dataclasses.fields(SimConfig):
        value = getattr(SimConfig(), field.name)
        if isinstance(value, tuple):
            value = ",".join(str(item) for item in value)
        lines.append(f"{field.name} = {value}")
    config = load_config(write(tmp_path, "\n".join(lines) + "\n"))
    assert config == SimConfig()

    def kinds(value):
        return tuple(map(type, value)) if isinstance(value, tuple) else type(value)

    for field in dataclasses.fields(SimConfig):
        assert kinds(getattr(config, field.name)) == kinds(getattr(SimConfig(), field.name))


def positive_floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def mixes(draw):
    """Three positive shares summing to 1 within validate()'s tolerance."""
    first = draw(positive_floats(0.01, 0.98))
    second = draw(positive_floats(0.005, 0.99 - first))
    return draw(st.sampled_from([(first, second, 1.0 - first - second), (1 / 3, 1 / 3, 1 / 3)]))


@st.composite
def valid_configs(draw):
    num_videos = 4 * draw(st.integers(1, 400))
    video_size_min = draw(st.integers(1, 10**6))
    horizon = draw(positive_floats(1e-3, 1e7))
    # the rate and periods stay a factor 2 inside MAX_TICKS, so no rounding
    # in validate()'s quotients can cross it
    return SimConfig(
        num_proxies=draw(st.integers(3, 64)),
        num_videos=num_videos,
        link_capacity=draw(st.integers(1, FIELD_MAX)),
        cache_capacity=4 * draw(st.integers(1, num_videos // 4)),
        video_size_min=video_size_min,
        video_size_max=draw(st.integers(video_size_min, 2 * 10**6)),
        total_arrival_rate=draw(positive_floats(1e-6, MAX_TICKS / horizon / 2)),
        tier_mix=draw(mixes()),
        class_mix=draw(mixes()),
        horizon=horizon,
        agent_period=draw(positive_floats(2 * horizon / MAX_TICKS, 1e9)),
        sample_period=draw(positive_floats(2 * horizon / MAX_TICKS, 1e9)),
        seed=draw(st.integers(-2**63, 2**63)),
        psg_enabled=draw(st.booleans()),
    ).validate()


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          report_multiple_bugs=False)
@given(config=valid_configs())
@example(config=SimConfig(seed=-7, psg_enabled=False, num_videos=8, cache_capacity=8,
                          tier_mix=(1 / 3, 1 / 3, 1 / 3), class_mix=(1 / 3, 1 / 3, 1 / 3)))
@example(config=SimConfig(seed=-2**40, cache_capacity=480, class_mix=(0.1, 0.2, 0.7)))
def test_load_config_round_trips_every_valid_config(config, tmp_path_factory):
    config.validate()
    lines = []
    for field in dataclasses.fields(SimConfig):
        value = getattr(config, field.name)
        text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"{field.name} = {text}")
    path = tmp_path_factory.mktemp("conf") / "run.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_config(path)
    # repr tells an int from a float and a bool from an int, which == does not
    assert loaded == config and repr(loaded) == repr(config)


def test_load_config_bad_number(tmp_path):
    path = write(tmp_path, "seed = 1.5\n")
    with pytest.raises(ConfigError, match="bad value for seed"):
        load_config(path)
    path = write(tmp_path, "class_mix = 0.2, 0.3, x\n")
    with pytest.raises(ConfigError, match="bad value for class_mix"):
        load_config(path)


def test_load_config_duplicate_key(tmp_path):
    path = write(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_load_config_bad_syntax(tmp_path):
    path = write(tmp_path, "seed 1\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_load_config_bad_bool(tmp_path):
    path = write(tmp_path, "psg_enabled = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_config(path)


def test_load_config_bad_tuple(tmp_path):
    path = write(tmp_path, "tier_mix = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match="exactly 3"):
        load_config(path)


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"seed = 3 # \xe9\n"),
], ids=["missing", "directory", "not-utf-8"])
def test_load_config_unreadable_file(make, tmp_path):
    path = tmp_path / "run.conf"
    make(path)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: cannot read")):
        load_config(path)


def test_load_config_validates_result(tmp_path):
    path = write(tmp_path, "num_proxies = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_skips_byte_order_mark(tmp_path):
    # some editors start a UTF-8 file with a byte-order mark
    path = tmp_path / "run.conf"
    path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
    assert load_config(path).seed == 3


def test_readme_config_table_names_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = [name for line in section.splitlines() if line.startswith("| `")
             for name in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(named) == sorted(field.name for field in dataclasses.fields(SimConfig))
