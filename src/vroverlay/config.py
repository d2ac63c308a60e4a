"""Runtime configuration: documented defaults, key=value files, overrides.

The config file is flat ``key = value`` lines ('#' starts a comment).
Unknown keys are rejected so typos fail loudly; omitted keys take the
documented defaults below. Flag overrides always win over file values.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import ConfigError

DEFAULT_REGISTRY_ADDRESS = "127.0.0.1:7450"


@dataclass(frozen=True)
class OverlayConfig:
    # daemon endpoints / identity
    registry_address: str = DEFAULT_REGISTRY_ADDRESS
    listen: str = "127.0.0.1:0"
    reflector_id: int = 0
    region: str = ""

    # quality filters
    alpha: float = 0.25
    rtt_ref_ms: float = 200.0
    q_min: float = 0.05

    # optimizer
    delta: float = 0.05
    optimizer_period_ms: float = 10_000.0
    gateway_pair: Optional[tuple] = None

    # control plane cadence
    heartbeat_interval_ms: float = 10_000.0
    liveness_intervals: int = 3
    publish_interval_ms: float = 10_000.0
    monitor_interval_ms: float = 10_000.0

    # supervision
    probe_interval_ms: float = 10_000.0
    probe_deadline_ms: float = 2_000.0
    k_miss: int = 2
    admins: tuple = ()

    # metric store
    series_capacity: int = 4096
    budget_bytes: int = 8 * 1024 * 1024
    subscriber_queue: int = 4096


_FIELDS = {f.name: f for f in fields(OverlayConfig)}


def _parse_value(name: str, raw):
    if isinstance(raw, str):
        raw = raw.strip()
    if name == "gateway_pair":
        if raw in ("", None, "none"):
            return None
        if isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            parts = [p.strip() for p in str(raw).split(",")]
        if len(parts) != 2:
            raise ConfigError("gateway_pair needs exactly two reflector ids, got %r" % (raw,))
        try:
            pair = (int(parts[0]), int(parts[1]))
        except (TypeError, ValueError):
            raise ConfigError("gateway_pair must be two integers, got %r" % (raw,)) from None
        if pair[0] == pair[1]:
            raise ConfigError("gateway_pair endpoints must differ")
        return pair
    if name == "admins":
        if isinstance(raw, (list, tuple)):
            return tuple(str(a) for a in raw)
        if raw == "":
            return ()
        return tuple(p.strip() for p in str(raw).split(",") if p.strip())
    # Every other field is a str, int or float: its default's type parses it.
    target_type = type(_FIELDS[name].default)
    try:
        return target_type(raw)
    except (TypeError, ValueError):
        raise ConfigError("%s must be a %s, got %r" % (name, target_type.__name__, raw)) from None


def apply_overrides(config: OverlayConfig, overrides: dict) -> OverlayConfig:
    """New config with the given keys replaced; unknown keys are rejected."""
    parsed = {}
    for name, raw in overrides.items():
        if name not in _FIELDS:
            raise ConfigError("unknown config key %r" % name)
        parsed[name] = _parse_value(name, raw)
    cfg = replace(config, **parsed)
    _validate(cfg)
    return cfg


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> OverlayConfig:
    """Defaults, then the file (if any), then overrides."""
    cfg = OverlayConfig()
    if path is not None:
        file_values = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
        for lineno, line in enumerate(lines, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
            file_values[key] = value.strip()
        cfg = apply_overrides(cfg, file_values)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _validate(cfg: OverlayConfig) -> None:
    if not 0.0 < cfg.alpha <= 1.0:
        raise ConfigError("alpha must be in (0,1]")
    if cfg.rtt_ref_ms <= 0:
        raise ConfigError("rtt_ref_ms must be positive")
    if not 0.0 <= cfg.q_min <= 1.0:
        raise ConfigError("q_min must be in [0,1]")
    if not 0.0 <= cfg.delta < 1.0:
        raise ConfigError("delta must be in [0,1)")
    for name in (
        "optimizer_period_ms", "heartbeat_interval_ms", "publish_interval_ms",
        "monitor_interval_ms", "probe_interval_ms", "probe_deadline_ms",
    ):
        if getattr(cfg, name) <= 0:
            raise ConfigError("%s must be positive" % name)
    if cfg.liveness_intervals < 1 or cfg.k_miss < 1:
        raise ConfigError("liveness_intervals and k_miss must be >= 1")
    if cfg.series_capacity < 1 or cfg.budget_bytes < 1 or cfg.subscriber_queue < 1:
        raise ConfigError("store sizes must be >= 1")
