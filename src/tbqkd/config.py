"""Scenario configuration: one bundle for every model in the chain,
YAML round-tripping, and shipped presets.

A scenario pins the transmitter (protocol probabilities, serializer
clock, modulator imperfections), the channel, the receiver (detector,
interferometer, passive basis split), the security parameters, and the
run plan (duration, seed, fringe/servo bookkeeping). Slot timing is the
protocol's own (ProtocolParams), checked here against the clock.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.resources
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError, EncodingOverflowError
from .keyrate import SecurityParams
from .link import ChannelModel, DetectorModel, InterferometerModel
from .ppg import WORD_BITS, ClockConfig, Framing
from .protocol import ProtocolParams
from .source import SourceConfig

SCHEMA_VERSION = 1

# YAML section: (ScenarioConfig attribute, section class)
_SECTIONS: dict[str, tuple[str, type]] = {
    "protocol": ("params", ProtocolParams),
    "clock": ("clock", ClockConfig),
    "source": ("source", SourceConfig),
    "channel": ("channel", ChannelModel),
    "detector": ("detector", DetectorModel),
    "interferometer": ("interferometer", InterferometerModel),
    "security": ("security", SecurityParams),
}
# ScenarioConfig fields of the YAML run section, in output order
_RUN_KEYS = (
    "duration",
    "seed",
    "shift",
    "gap_bits",
    "fringe_block_x_symbols",
    "servo_bursts_per_event",
    "out_dir",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run."""

    params: ProtocolParams = ProtocolParams()
    clock: ClockConfig = ClockConfig()
    source: SourceConfig = SourceConfig()
    channel: ChannelModel = ChannelModel(loss_db=7.0)
    detector: DetectorModel = DetectorModel()
    interferometer: InterferometerModel = InterferometerModel()
    security: SecurityParams = SecurityParams()
    p_z_receiver: float = 0.9
    duration: float = 300.0
    seed: int = 12345
    shift: int = 0
    gap_bits: int = 1
    fringe_block_x_symbols: int = 100_000
    servo_bursts_per_event: int = 2048
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.duration < math.inf):
            raise ConfigError(f"duration must be finite, > 0, got {self.duration}")
        # the engines count bursts, bits and seeds with these: a float,
        # even an infinite or NaN one, would fail only mid-run
        for name in ("seed", "shift", "gap_bits", "fringe_block_x_symbols",
                     "servo_bursts_per_event"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not (0.0 < self.p_z_receiver < 1.0):
            raise ConfigError(
                f"p_z_receiver must lie in (0, 1), got {self.p_z_receiver}"
            )
        if self.fringe_block_x_symbols < 1:
            raise ConfigError("fringe_block_x_symbols must be >= 1")
        if self.servo_bursts_per_event < 0:
            raise ConfigError("servo_bursts_per_event must be >= 0")
        # every engine and the oracle must be able to model what loads:
        # the word fits its slot, both bins fit the word, the
        # interferometer overlaps early and late, no click time falls in
        # two bin windows, and a click's dead time blankets the rest of its
        # burst but ends before the next burst, so the first click per
        # burst and detector is the only one
        try:
            sep = self.framing.separation_ps
        except EncodingOverflowError as exc:
            raise ConfigError(str(exc)) from exc
        params, det = self.params, self.detector
        word_ps = WORD_BITS * self.clock.bit_duration_ps
        if params.symbol_period_ps < word_ps:
            raise ConfigError(
                f"symbol_period {params.symbol_period_ps} ps is shorter than the "
                f"{WORD_BITS}-bit word duration {word_ps} ps at "
                f"f_out={self.clock.f_out:g} Hz"
            )
        if abs(self.interferometer.delay_ps - sep) > det.tdc_resolution_ps:
            raise ConfigError(
                f"interferometer delay {self.interferometer.delay_ps} ps must "
                f"match the early/late separation {sep} ps within one TDC step"
            )
        if det.bin_window_ps >= sep:
            raise ConfigError(
                f"bin window {det.bin_window_ps:g} ps must be shorter than the "
                f"early/late separation {sep} ps"
            )
        span = (params.symbols_per_burst - 1) * params.symbol_period + det.gate_width
        if det.dead_time < span or det.dead_time_ps > params.gap_ps:
            raise ConfigError(
                f"detector dead time {det.dead_time_ps} ps must cover the "
                f"rest of a burst ({round(span * 1e12)} ps) and not exceed "
                f"the gap between bursts ({params.gap_ps} ps)"
            )

    @functools.cached_property
    def framing(self) -> Framing:
        """Bin geometry of the run, built once per scenario."""
        return Framing(self.clock, self.shift, self.gap_bits)

    @property
    def n_bursts(self) -> int:
        return max(1, round(self.duration / self.params.burst_period))

    def replace(self, **kwargs: Any) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)

    def with_loss(self, loss_db: float) -> "ScenarioConfig":
        channel = ChannelModel(
            loss_db=loss_db, alpha_db_per_km=self.channel.alpha_db_per_km
        )
        return self.replace(channel=channel)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for section, (attr, cls) in _SECTIONS.items():
            obj = getattr(self, attr)
            out[section] = _non_none(obj, (f.name for f in dataclasses.fields(cls)))
        out["receiver"] = {"p_z_receiver": self.p_z_receiver}
        out["run"] = _non_none(self, _RUN_KEYS)
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ScenarioConfig":
        """The scenario a YAML document describes; any value the models
        refuse raises a ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        data = dict(raw)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version}, expected {SCHEMA_VERSION}"
            )
        kwargs: dict[str, Any] = {}
        for section, (attr, section_cls) in _SECTIONS.items():
            body = data.pop(section, {})
            kwargs[attr] = _build_section(section, section_cls, body)
        receiver = data.pop("receiver", {})
        _check_keys("receiver", receiver, {"p_z_receiver"})
        run = data.pop("run", {})
        _check_keys("run", run, set(_RUN_KEYS))
        if data:
            raise ConfigError(f"unknown config sections: {sorted(data)}")
        try:
            return cls(**kwargs, **receiver, **run)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # DomainError among them
            raise ConfigError(f"invalid configuration: {exc}") from exc


def _non_none(obj: Any, names: Iterable[str]) -> dict[str, Any]:
    """The named attributes of obj that are not None, in order."""
    values = ((name, getattr(obj, name)) for name in names)
    return {name: v for name, v in values if v is not None}


def _check_keys(section: str, body: dict[str, Any], allowed: set[str]) -> None:
    if not isinstance(body, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    unknown = set(body) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


def _build_section(section: str, cls: type, body: dict[str, Any]) -> Any:
    allowed = {f.name for f in dataclasses.fields(cls)}
    _check_keys(section, body, allowed)
    coerced: dict[str, Any] = {}
    for key, value in body.items():
        if isinstance(value, str) and value.lower() in ("inf", "infinity", ".inf"):
            value = math.inf
        coerced[key] = value
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:  # DomainError among them
        raise ConfigError(f"invalid section '{section}': {exc}") from exc


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=False)


def load_scenario(path: str | Path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raise ConfigError(f"empty config file: {path}")
    try:
        return ScenarioConfig.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _preset_root() -> Any:
    return importlib.resources.files("tbqkd") / "presets"


def preset_names() -> list[str]:
    root = _preset_root()
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_preset(name: str) -> ScenarioConfig:
    """Load a shipped preset by name (see preset_names())."""
    path = _preset_root() / f"{name}.yaml"
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(
            f"unknown preset '{name}'; available: {', '.join(preset_names())}"
        ) from exc
    raw = yaml.safe_load(text)
    try:
        return ScenarioConfig.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"preset '{name}': {exc}") from exc
