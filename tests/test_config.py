"""Configuration defaults, validation and the key=value file format."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest

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
])
def test_validate_rejects_bad_values(field, value):
    config = dataclasses.replace(SimConfig(), **{field: value})
    with pytest.raises(ConfigError):
        config.validate()


@pytest.mark.parametrize("field, widest, too_wide", [
    ("link_capacity", 2**32 - 1, 2**32),  # a ledger amount is 32 bits
    ("num_videos", 2**32, 2**32 + 4),  # ids 0..num_videos-1 must fit 32 bits
])
def test_validate_bounds_ledger_fields(field, widest, too_wide):
    # validate() only: a run with 2**32 videos would need gigabytes of tables
    assert getattr(dataclasses.replace(SimConfig(), **{field: widest}).validate(), field) == widest
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(SimConfig(), **{field: too_wide}).validate()


@pytest.mark.parametrize("name", ["sample_period", "agent_period"])
def test_validate_caps_the_ticks_a_run_schedules(name):
    # validate() only: each refused config would schedule over 10**7 events,
    # 1e-9 about 10**13 at the default horizon
    at_cap = dataclasses.replace(SimConfig(), horizon=float(MAX_TICKS), **{name: 1.0})
    assert at_cap.validate().horizon / getattr(at_cap, name) == MAX_TICKS
    for changes in ({name: 1e-9}, {"horizon": float(MAX_TICKS), name: math.nextafter(1.0, 0.0)}):
        with pytest.raises(ConfigError, match=f"horizon / {name}"):
            dataclasses.replace(SimConfig(), **changes).validate()


def test_tick_cap_refuses_long_horizons_and_keeps_tours_off():
    # a long horizon at the default periods schedules as many samples
    with pytest.raises(ConfigError, match="horizon / sample_period"):
        SimConfig(horizon=1e9).validate()
    # an agent_period past the horizon, as a tours-off ablation sets it, is valid
    assert SimConfig(agent_period=1e9).validate().agent_period == 1e9


def test_validate_takes_int_for_float():
    config = SimConfig(total_arrival_rate=4, horizon=2000, tier_mix=(0.5, 0.25, 0.25)).validate()
    assert config.total_arrival_rate == 4.0
    # stored as the float it stands for, so equal configs format alike
    assert type(config.total_arrival_rate) is float and type(config.horizon) is float


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
