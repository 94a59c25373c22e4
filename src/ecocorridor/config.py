"""JSON scenario configuration loading and validation."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .advisory import AdvisoryConfig, DriverFollowingModel, IDEAL_DRIVER
from .baseline import RegularDriverRules
from .battery import BatteryModel, load_coefficient_table
from .costs import Prices
from .dp import DpGridSpec, early_arc, off_grid
from .powertrain import VehicleParams
from .study import (
    DEFAULT_SPACINGS_M,
    DEFAULT_TIMINGS_S,
    ScenarioSpec,
    VEHICLE_VARIANTS,
    retry_grid,
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


def _block(raw: dict, name: str, allowed) -> dict:
    """A copy of the block ``name`` (a dotted path; its last part is its key
    in ``raw``). It must be a JSON object whose keys are all ``allowed`` and
    none of them set by another key (``OWNED_KEYS``)."""
    block = raw.get(name.rsplit(".", 1)[-1], {})
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {block!r}")
    for key in block:
        owner = OWNED_KEYS.get(f"{name}.{key}")
        if owner:
            raise ConfigError(f"'{name}.{key}' cannot be set: '{owner}' sets it")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' block: {sorted(unknown)}")
    return dict(block)


def _keys(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _build(cls, block: dict, name: str):
    """Construct a dataclass from a block that `_block` has read, rejecting
    values of the wrong JSON type for a number or a flag."""
    types = {f.name: f.type for f in fields(cls)}
    for key, value in block.items():
        if types[key] == "float":
            _number(value, f"{name}.{key}")
        elif types[key] == "bool":
            _flag(value, f"{name}.{key}")
    try:
        return cls(**block)
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
    corridor = _block(raw, "corridor", {
        "entry_buffer_m", "exit_buffer_m", "spacing_m", "speed_limit_kmh", "signals",
    })
    signals = _block(corridor, "corridor.signals", {
        "time_to_red_first_s", "time_to_red_second_s", "red_s", "green_s",
    })
    corridor.pop("signals", None)
    # every corridor and signal key is a ScenarioSpec field, save the limit in km/h
    numbers = {k: _number(v, f"corridor.{k}") for k, v in corridor.items()}
    numbers |= {k: _number(v, f"corridor.signals.{k}") for k, v in signals.items()}
    if "speed_limit_kmh" in numbers:
        numbers["speed_limit_m_s"] = numbers.pop("speed_limit_kmh") * KMH_TO_M_S

    block = _block(raw, "vehicle", _keys(VehicleParams) | {"variant"})
    variant = block.pop("variant", "standard")
    if not isinstance(variant, str) or variant not in VEHICLE_VARIANTS:
        raise ConfigError(
            f"'vehicle.variant' must be one of {sorted(VEHICLE_VARIANTS)}, got {variant!r}"
        )
    vehicle = _build(VehicleParams, block, "vehicle")

    block = _block(raw, "battery", _keys(BatteryModel) | {"coefficients_csv"})
    if "coefficients_csv" in block:
        csv = block.pop("coefficients_csv")
        if not isinstance(csv, str):
            raise ConfigError(f"'battery.coefficients_csv' must be a path string, got {csv!r}")
        csv = base_dir / csv  # an absolute path replaces base_dir
        try:
            block["coeff_table"] = load_coefficient_table(csv)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad coefficient table {csv}: {exc}") from exc
    battery = _build(BatteryModel, block, "battery")

    prices, rules, grid, advisory = (
        _build(cls, _block(raw, name, _keys(cls)), name) for cls, name in (
            (Prices, "prices"), (RegularDriverRules, "driver_rules"),
            (DpGridSpec, "grid"), (AdvisoryConfig, "advisory"),
        )
    )
    block = _block(raw, "driver", _keys(DriverFollowingModel) | {"ideal"})
    if "ideal" in block and len(block) > 1:
        raise ConfigError("'driver.ideal' sets every driver setting; drop the other 'driver' keys")
    ideal = _flag(block.pop("ideal", False), "driver.ideal")
    driver = IDEAL_DRIVER if ideal else _build(DriverFollowingModel, block, "driver")

    try:
        base = ScenarioSpec(
            **numbers, variant=variant, vehicle=vehicle, battery=battery,
            prices=prices, rules=rules, grid=grid,
        )
        base.corridor()  # validate geometry eagerly
        advisory.check_limit(base.speed_limit_m_s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _on_grid(base)
    # a scenario infeasible on the grid is solved again on the retry's grid
    for g, which in ((grid, "time bins"), (retry_grid(grid), "time bins of the halved-speed-step retry")):
        early = early_arc(g, base.speed_limit_m_s)
        if early:
            raise ConfigError(
                f"'grid.distance_step_m' ({grid.distance_step_m:g} m) is too short for the "
                f"{which}: an arc from {early[0]:g} to {early[1]:g} m/s could land in an "
                "earlier bin than it leaves")

    sweep = _block(raw, "sweep", {"timings_s", "spacings_m"})
    timings = _numbers(sweep, "sweep.timings_s", DEFAULT_TIMINGS_S)
    spacings = _numbers(sweep, "sweep.spacings_m", DEFAULT_SPACINGS_M)
    for spacing in spacings:
        _on_grid(replace(base, spacing_m=spacing), "sweep.spacings_m")
    return RunConfig(base, timings, spacings, advisory, driver)


def _on_grid(spec: ScenarioSpec, name: str | None = None) -> ScenarioSpec:
    """``spec``, whose corridor must keep the distance grid's geometry rule
    (``dp.off_grid``). The error names ``name``, or else the key of the
    segment that breaks the rule."""
    corridor, dx = spec.corridor(), spec.grid.distance_step_m
    segment = off_grid(corridor, dx)
    if segment:
        # the corridor's light_spacing_m is the config's corridor.spacing_m
        name = name or "corridor." + segment.removeprefix("light_")
        raise ConfigError(
            f"'{name}' must be a whole number of "
            f"'grid.distance_step_m' ({dx:g} m), so that the stop lines lie on "
            f"distance nodes; got {getattr(corridor, segment):g}")
    return spec


def _numbers(block: dict, name: str, default: tuple[float, ...]) -> tuple[float, ...]:
    """The list ``name`` of ``block``, which must be a non-empty list of
    distinct numbers: a repeated value would name the same sweep cell twice."""
    values = block.get(name.rsplit(".", 1)[-1], list(default))
    if not isinstance(values, list) or not values:
        raise ConfigError(f"'{name}' must be a non-empty list of numbers, got {values!r}")
    numbers = tuple(_number(x, name) for x in values)
    if len(set(numbers)) < len(numbers):
        raise ConfigError(f"'{name}' repeats a value: {values!r}")
    return numbers


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
        spec = _on_grid(replace(spec, spacing_m=float(spacing)), "--spacing")
    return spec
