"""Run configuration: defaults, validation and a flat key=value file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .allocation import FIELD_MAX

MAX_TICKS = 10**7  # most sample ticks, agent tours or expected arrivals a run may schedule,
# and most proxy-video pairs, since each proxy holds three demand cells per video


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


def _checked(name: str, value, default):
    """``value`` as a value of ``default``'s type: the same type, or an int
    where the default is a float, which becomes that float.  A bool is
    never taken for an int, and a float must be finite."""
    if not (type(value) is type(default) or (type(value) is int and type(default) is float)):
        raise ConfigError(f"{name}: {value!r} is not {type(default).__name__}")
    if type(default) is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} is out of float range") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SimConfig:
    """One run's settings, checked when built, where a bad value raises
    ``ConfigError``.  Frozen: ``dataclasses.replace`` builds, and so checks,
    a changed copy."""

    num_proxies: int = 6
    num_videos: int = 480
    link_capacity: int = 300
    cache_capacity: int = 160
    video_size_min: int = 2400
    video_size_max: int = 4800
    total_arrival_rate: float = 1.0
    tier_mix: tuple[float, float, float] = (0.50, 0.35, 0.15)
    class_mix: tuple[float, float, float] = (0.20, 0.30, 0.50)
    horizon: float = 10000.0
    agent_period: float = 100.0
    sample_period: float = 10.0
    seed: int = 1
    psg_enabled: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> "SimConfig":
        """Check every field and return self; building a config runs it.  Each refusal
        names its field; a tuple needs its default's length.  An int given for a float
        (tuple items too) is stored as that float, so equal configs report alike."""
        for f in fields(self):
            value = _checked(f.name, getattr(self, f.name), f.default)
            if isinstance(value, tuple):
                if len(value) != len(f.default):
                    raise ConfigError(f"{f.name} must have exactly {len(f.default)} values")
                value = tuple(_checked(f.name, item, d) for item, d in zip(value, f.default))
            object.__setattr__(self, f.name, value)
        if self.num_proxies < 3:
            raise ConfigError("num_proxies must be at least 3 to form a ring")
        if self.num_videos <= 0 or self.num_videos % 4:
            raise ConfigError("num_videos must be a positive multiple of 4")
        if self.num_proxies * self.num_videos > MAX_TICKS:
            raise ConfigError(f"num_proxies * num_videos must be at most {MAX_TICKS}")
        if self.link_capacity > FIELD_MAX:
            raise ConfigError(f"link_capacity must be at most {FIELD_MAX} MB/s, the widest "
                              f"amount a ledger record holds")
        for name in ("link_capacity", "total_arrival_rate", "horizon", "agent_period",
                     "sample_period"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("agent_period", "sample_period"):
            if self.horizon / getattr(self, name) > MAX_TICKS:
                raise ConfigError(f"horizon / {name} must be at most {MAX_TICKS}")
        if self.horizon * self.total_arrival_rate > MAX_TICKS:
            raise ConfigError(f"horizon * total_arrival_rate must be at most {MAX_TICKS}")
        if self.cache_capacity <= 0 or self.cache_capacity > self.num_videos:
            raise ConfigError("cache_capacity must be in 1..num_videos")
        if self.cache_capacity % 4:
            raise ConfigError("cache_capacity must be a multiple of 4")
        if not 0 < self.video_size_min <= self.video_size_max:
            raise ConfigError("video_size_min and video_size_max must satisfy 0 < min <= max")
        for name, mix in (("tier_mix", self.tier_mix), ("class_mix", self.class_mix)):
            if min(mix) <= 0 or abs(sum(mix) - 1.0) > 1e-9:
                raise ConfigError(f"{name} must be three positive shares summing to 1")
        return self


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: Scalar parser for each type a SimConfig default can have.
_PARSERS = {bool: _parse_bool, int: int, float: float}


def _parse_value(name: str, default, raw: str):
    """Turn ``raw`` into the type of the field's ``default``; a tuple's text into
    its comma-separated items, however many: ``validate()`` judges every rule."""
    try:
        if isinstance(default, tuple):
            return tuple(map(_PARSERS[type(default[0])], raw.split(",")))
        return _PARSERS[type(default)](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def load_config(path) -> SimConfig:
    """Read key=value lines; '#' starts a comment, blank lines are skipped.  A file
    that cannot be read as UTF-8, a bad line or a refused value raises ``ConfigError``."""
    values = {}
    defaults = {f.name: f.default for f in fields(SimConfig)}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, defaults[key], raw)
    return SimConfig(**values)
