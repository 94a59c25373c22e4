"""JSON scenario configuration loading and validation."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from .advisory import AdvisoryConfig, DriverFollowingModel, IDEAL_DRIVER
from .baseline import RegularDriverRules
from .battery import BatteryModel, load_coefficient_table
from .costs import Prices
from .dp import DpGridSpec
from .powertrain import VehicleParams
from .study import (
    DEFAULT_SPACINGS_M,
    DEFAULT_TIMINGS_S,
    ScenarioSpec,
    VEHICLE_VARIANTS,
)

KMH_TO_M_S = 1.0 / 3.6

# fields that another key sets, so a config may not set them itself
OWNED_KEYS = {
    "vehicle.mass_kg": "vehicle.variant",
    "battery.capacity_kwh": "vehicle.variant",
    "battery.coeff_table": "battery.coefficients_csv",
}


class ConfigError(ValueError):
    """Raised when a configuration file is malformed or inconsistent."""


def _build(cls, block: dict, name: str, **extra):
    """Construct a dataclass from a JSON block, rejecting unknown keys and
    values of the wrong JSON type for a number or a flag."""
    allowed = {f.name: f.type for f in fields(cls)}
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' block: {sorted(unknown)}")
    for key, value in block.items():
        if allowed[key] == "float":
            _number(value, f"{name}.{key}")
        elif allowed[key] == "bool":
            _flag(value, f"{name}.{key}")
    try:
        return cls(**{**block, **extra})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}' block: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: a base scenario plus sweep and advisory settings."""

    base: ScenarioSpec
    timings_s: tuple[float, ...]
    spacings_m: tuple[float, ...]
    advisory: AdvisoryConfig
    driver: DriverFollowingModel


def load_config(path: str | Path) -> RunConfig:
    """Read a scenario configuration from a JSON file.

    Raises ConfigError on unknown keys, bad types, or out-of-range values.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    # "label" is a free-text description of the file; nothing reads it
    known = {
        "corridor", "vehicle", "battery", "prices", "driver_rules",
        "grid", "advisory", "driver", "sweep", "label",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    return _parse(raw, path.parent)


def _parse(raw: dict, base_dir: Path) -> RunConfig:
    for key, owner in OWNED_KEYS.items():
        block, leaf = key.split(".")
        if leaf in raw.get(block, {}):
            raise ConfigError(f"'{key}' cannot be set: '{owner}' sets it")
    corridor = dict(raw.get("corridor", {}))
    signals = corridor.pop("signals", {})
    if not isinstance(signals, dict):
        raise ConfigError("'corridor.signals' must be an object")
    limit_kmh = corridor.pop("speed_limit_kmh", None)
    geo: dict[str, Any] = {}
    for key in ("entry_buffer_m", "exit_buffer_m", "spacing_m"):
        if key in corridor:
            geo[key] = _number(corridor.pop(key), f"corridor.{key}")
    if corridor:
        raise ConfigError(f"unknown keys in 'corridor' block: {sorted(corridor)}")

    sig_known = {"time_to_red_first_s", "time_to_red_second_s", "red_s", "green_s"}
    unknown = set(signals) - sig_known
    if unknown:
        raise ConfigError(f"unknown keys in 'corridor.signals': {sorted(unknown)}")
    timing: dict[str, Any] = {
        k: _number(v, f"corridor.signals.{k}") for k, v in signals.items()
    }

    vehicle_block = dict(raw.get("vehicle", {}))
    variant = vehicle_block.pop("variant", "standard")
    if variant not in VEHICLE_VARIANTS:
        raise ConfigError(
            f"unknown vehicle variant {variant!r}; "
            f"choose from {sorted(VEHICLE_VARIANTS)}"
        )
    vehicle = _build(VehicleParams, vehicle_block, "vehicle")

    battery_block = dict(raw.get("battery", {}))
    coeff_path = battery_block.pop("coefficients_csv", None)
    if coeff_path is not None:
        csv = Path(coeff_path)
        if not csv.is_absolute():
            csv = base_dir / csv
        try:
            battery_block["coeff_table"] = load_coefficient_table(csv)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad coefficient table {csv}: {exc}") from exc
    battery = _build(BatteryModel, battery_block, "battery")

    prices = _build(Prices, dict(raw.get("prices", {})), "prices")
    rules = _build(RegularDriverRules, dict(raw.get("driver_rules", {})), "driver_rules")
    grid = _build(DpGridSpec, dict(raw.get("grid", {})), "grid")
    driver_block = dict(raw.get("driver", {}))
    if "ideal" in driver_block and len(driver_block) > 1:
        raise ConfigError("'driver.ideal' sets every driver setting; drop the other 'driver' keys")
    ideal = _flag(driver_block.pop("ideal", False), "driver.ideal")
    driver = IDEAL_DRIVER if ideal else _build(
        DriverFollowingModel, driver_block, "driver"
    )
    advisory = _build(AdvisoryConfig, dict(raw.get("advisory", {})), "advisory")

    base_kwargs: dict[str, Any] = dict(
        time_to_red_first_s=timing.get("time_to_red_first_s", 0.0),
        time_to_red_second_s=timing.get("time_to_red_second_s", 0.0),
        variant=variant,
        vehicle=vehicle,
        battery=battery,
        prices=prices,
        rules=rules,
        grid=grid,
        **geo,
    )
    if "red_s" in timing:
        base_kwargs["red_s"] = timing["red_s"]
    if "green_s" in timing:
        base_kwargs["green_s"] = timing["green_s"]
    if limit_kmh is not None:
        base_kwargs["speed_limit_m_s"] = _number(
            limit_kmh, "corridor.speed_limit_kmh"
        ) * KMH_TO_M_S
    try:
        base = ScenarioSpec(**base_kwargs)
        base.corridor()  # validate geometry eagerly
        advisory.check_limit(base.speed_limit_m_s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep_block = dict(raw.get("sweep", {}))
    unknown = set(sweep_block) - {"timings_s", "spacings_m"}
    if unknown:
        raise ConfigError(f"unknown keys in 'sweep' block: {sorted(unknown)}")
    timings = tuple(
        _number(x, "sweep.timings_s") for x in sweep_block.get("timings_s", DEFAULT_TIMINGS_S)
    )
    spacings = tuple(
        _number(x, "sweep.spacings_m") for x in sweep_block.get("spacings_m", DEFAULT_SPACINGS_M)
    )
    if not timings or not spacings:
        raise ConfigError("sweep lists must be non-empty")

    return RunConfig(base, timings, spacings, advisory, driver)


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number, got {value!r}")
    return float(value)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{name}' must be true or false, got {value!r}")
    return value


def override_cell(cfg: RunConfig, timing: tuple[float, float] | None, spacing: float | None) -> ScenarioSpec:
    """Apply command-line timing/spacing overrides to the base scenario."""
    spec = cfg.base
    if timing is not None:
        spec = replace(
            spec,
            time_to_red_first_s=float(timing[0]),
            time_to_red_second_s=float(timing[1]),
        )
    if spacing is not None:
        spec = replace(spec, spacing_m=float(spacing))
    return spec
