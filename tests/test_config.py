"""Tests for JSON configuration loading and overrides."""
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ecocorridor.advisory import IDEAL_DRIVER, AdvisoryConfig, DriverFollowingModel
from ecocorridor.baseline import RegularDriverRules
from ecocorridor.battery import BatteryModel
from ecocorridor.cli import EXIT_VALIDATION, main
from ecocorridor.config import OWNED_KEYS, ConfigError, load_config, override_cell
from ecocorridor.costs import Prices
from ecocorridor.dp import DpGridSpec, time_budget
from ecocorridor.powertrain import VehicleParams

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_paper_sweep_config():
    cfg = load_config(CONFIG_DIR / "paper_sweep.json")
    assert cfg.base.speed_limit_m_s == pytest.approx(88.5 / 3.6)
    assert not cfg.base.vehicle.regen_enabled
    assert cfg.base.grid.time_buffer_frac == pytest.approx(0.03)
    assert cfg.base.exit_buffer_m == pytest.approx(200.0)
    assert cfg.timings_s == (-30.0, -15.0, 0.0, 15.0)
    assert cfg.spacings_m == (200.0, 400.0, 600.0, 800.0)


def test_load_field_test_config():
    cfg = load_config(CONFIG_DIR / "field_test.json")
    assert cfg.base.time_to_red_first_s == pytest.approx(-15.0)
    assert cfg.base.time_to_red_second_s == pytest.approx(30.0)
    assert cfg.base.spacing_m == pytest.approx(600.0)
    assert cfg.driver.reaction_delay_s == pytest.approx(1.0)
    assert cfg.driver.speed_tracking_time_constant_s == pytest.approx(2.0)


def test_ideal_driver_flag(tmp_path):
    path = write_cfg(tmp_path, {"driver": {"ideal": True}})
    cfg = load_config(path)
    assert cfg.driver is IDEAL_DRIVER


def test_defaults_when_blocks_missing(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {}))
    assert cfg.base.spacing_m > 0
    assert cfg.base.vehicle.mass_kg > 0
    assert cfg.timings_s and cfg.spacings_m


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_cfg(tmp_path, {"corrid0r": {}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = write_cfg(tmp_path, {"corridor": {"spacng_m": 400}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_cfg(tmp_path, {"vehicle": {"mass_lb": 3000}})
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("block, key", [
    # deleted settings: the grid's buffer fraction alone sets the budget, and
    # the advisory uses the corridor's speed limit
    ({"grid": {"time_budget_mode": "buffered"}}, "time_budget_mode"),
    ({"advisory": {"speed_limit_m_s": 40}}, "speed_limit_m_s"),
    # settings that another key owns
    ({"vehicle": {"mass_kg": 3000}}, "vehicle.mass_kg"),
    ({"battery": {"capacity_kwh": 100}}, "battery.capacity_kwh"),
    ({"battery": {"coeff_table": [[0.5, 4336.46, 31514.85]]}}, "battery.coeff_table"),
    ({"driver": {"ideal": True, "reaction_delay_s": 3}}, "driver.ideal"),
    ({"driver": {"ideal": False, "reaction_delay_s": 3}}, "driver.ideal"),
    # a cruise floor at or above the corridor's limit
    ({"advisory": {"min_cruise_m_s": 30.0}}, "min_cruise_m_s"),
    # settings that are module constants now, each at the value it had
    ({"vehicle": {"rolling_c1": 0.0065}}, "rolling_c1"),
    ({"vehicle": {"rolling_c2": 4.92e-5}}, "rolling_c2"),
    ({"vehicle": {"frontal_area_m2": 2.22}}, "frontal_area_m2"),
    ({"vehicle": {"drag_coeff": 0.23}}, "drag_coeff"),
    ({"vehicle": {"air_density_kg_m3": 1.2}}, "air_density_kg_m3"),
    ({"vehicle": {"gravity_m_s2": 9.81}}, "gravity_m_s2"),
    ({"vehicle": {"eff_trans": 0.8536}}, "eff_trans"),
    ({"vehicle": {"eff_motor": 0.90}}, "eff_motor"),
    ({"vehicle": {"eff_inverter": 0.95}}, "eff_inverter"),
    ({"vehicle": {"regen_power_cap_w": 60e3}}, "regen_power_cap_w"),
    ({"battery": {"nominal_voltage_v": 350.0}}, "nominal_voltage_v"),
    ({"battery": {"temperature_k": 298.15}}, "temperature_k"),
    ({"battery": {"gas_constant": 8.3144}}, "gas_constant"),
    ({"driver_rules": {"sight_distance_m": 75.0}}, "sight_distance_m"),
    ({"driver_rules": {"timestep_s": 0.1}}, "timestep_s"),
    ({"grid": {"boundary_band_m_s": 1.0}}, "boundary_band_m_s"),
    ({"driver": {"drift_below_m_s": 10.0}}, "drift_below_m_s"),
    ({"advisory": {"lookahead_lights": 2}}, "lookahead_lights"),
])
def test_shadowed_and_deleted_keys_exit_2(tmp_path, capsys, block, key):
    path = write_cfg(tmp_path, block)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["advisory", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("block, key", [
    # any truthy value used to select the ideal driver
    ({"driver": {"ideal": "no"}}, "driver.ideal"),
    ({"driver": {"ideal": 1}}, "driver.ideal"),
    # a boolean used to load as the number 1, a string as itself
    ({"battery": {"decay_multiplier": True}}, "battery.decay_multiplier"),
    ({"grid": {"time_step_s": "0.25"}}, "grid.time_step_s"),
    ({"advisory": {"update_rate_hz": False}}, "advisory.update_rate_hz"),
    ({"vehicle": {"regen_enabled": "no"}}, "vehicle.regen_enabled"),
    # a block that is not an object, a sweep list that is not a list, and a
    # name or a path of the wrong type used to end in a traceback; an empty
    # corridor list used to load as the default corridor
    ({"vehicle": 5}, "vehicle"),
    ({"grid": [1]}, "grid"),
    ({"driver": "ideal"}, "driver"),
    ({"corridor": []}, "corridor"),
    ({"sweep": {"timings_s": 5}}, "sweep.timings_s"),
    ({"vehicle": {"variant": ["x"]}}, "vehicle.variant"),
    ({"battery": {"coefficients_csv": 5}}, "battery.coefficients_csv"),
])
def test_wrong_json_types_exit_2(tmp_path, capsys, block, key):
    path = write_cfg(tmp_path, block)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["advisory", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("sweep_block, key", [
    # a repeated value used to solve the same cell twice and write its files
    # over each other, while `sweep` counted both writes
    ({"timings_s": [0, 0], "spacings_m": [200]}, "sweep.timings_s"),
    ({"timings_s": [0], "spacings_m": [200, 200.0]}, "sweep.spacings_m"),
    ({"timings_s": [0.0, -0.0], "spacings_m": [200]}, "sweep.timings_s"),
])
def test_repeated_sweep_values_exit_2(tmp_path, capsys, sweep_block, key):
    path = write_cfg(tmp_path, {"sweep": sweep_block})
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not (tmp_path / "table2.csv").exists()


@pytest.mark.parametrize("payload, key", [
    # a segment off the 10 m distance grid used to load, and `run` and
    # `sweep` then ended in a ValueError traceback with exit 1; one such
    # sweep spacing aborted the whole sweep
    ({"corridor": {"spacing_m": 205}}, "corridor.spacing_m"),
    ({"corridor": {"entry_buffer_m": 95}}, "corridor.entry_buffer_m"),
    ({"corridor": {"exit_buffer_m": 100.5}}, "corridor.exit_buffer_m"),
    ({"grid": {"distance_step_m": 30.0}}, "corridor.entry_buffer_m"),
    ({"sweep": {"spacings_m": [200, 205]}}, "sweep.spacings_m"),
])
def test_off_grid_corridor_exits_2(tmp_path, capsys, payload, key):
    path = write_cfg(tmp_path, payload)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert f"'{key}' must be a whole number of 'grid.distance_step_m'" in capsys.readouterr().err
    assert not (tmp_path / "table2.csv").exists()


@pytest.mark.parametrize("grid, which", [
    # used to load, and `run` and `sweep` then ended in a ValueError
    # traceback with exit 1 from the lattice
    ({"distance_step_m": 5}, "time bins"),
    # the grid keeps the rule, but the halved-speed-step grid that
    # `run_scenario` solves an infeasible scenario on again does not
    ({"distance_step_m": 5, "speed_step_m_s": 1.0}, "time bins of the halved-speed-step retry"),
])
def test_distance_step_too_short_for_the_bins_exits_2(tmp_path, capsys, grid, which):
    path = write_cfg(tmp_path, {"grid": grid})
    message = (f"'grid.distance_step_m' (5 m) is too short for the {which}: an arc from 24 "
               "to 23.5 m/s could land in an earlier bin than it leaves")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == message
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "table2.csv").exists()
    # a longer step keeps the rule on both grids
    grid["distance_step_m"] = 10
    load_config(write_cfg(tmp_path, {"grid": grid}))


# config blocks that load_config builds field by field from a dataclass
DATACLASS_BLOCKS = {
    "vehicle": VehicleParams,
    "battery": BatteryModel,
    "prices": Prices,
    "driver_rules": RegularDriverRules,
    "grid": DpGridSpec,
    "advisory": AdvisoryConfig,
    "driver": DriverFollowingModel,
}


def _nudged(default):
    """A valid value that differs from a field's default."""
    if isinstance(default, bool):
        return not default
    return 0.9 * default if default else 0.05


def _accepted_keys(tmp_path) -> dict[str, object]:
    """Every leaf key load_config accepts, with a valid non-default value.

    The top-level `label` is free text that nothing reads, so it is left out.
    """
    csv = tmp_path / "coeffs.csv"
    csv.write_text("c_rate,M,Ea_J_per_mol\n0.5,4000,31000\n10,5000,28000\n")
    keys: dict[str, object] = {
        "corridor.entry_buffer_m": 150,
        "corridor.exit_buffer_m": 150,
        "corridor.spacing_m": 600,
        "corridor.speed_limit_kmh": 70,
        "corridor.signals.time_to_red_first_s": 5,
        "corridor.signals.time_to_red_second_s": 5,
        "corridor.signals.red_s": 25,
        "corridor.signals.green_s": 35,
        "vehicle.variant": "long_range",
        "battery.coefficients_csv": str(csv),
        "driver.ideal": True,
        "sweep.timings_s": [0],
        "sweep.spacings_m": [200],
    }
    for block, cls in DATACLASS_BLOCKS.items():
        default = cls()
        for f in fields(cls):
            if f"{block}.{f.name}" not in OWNED_KEYS:
                keys[f"{block}.{f.name}"] = _nudged(getattr(default, f.name))
    # 9 m would put the default corridor's stop lines off the grid
    keys["grid.distance_step_m"] = 20.0
    return keys


# every key load_config accepts; adding or withdrawing one is a decision
# that this list records
ACCEPTED_KEYS = {
    "corridor.entry_buffer_m", "corridor.exit_buffer_m", "corridor.spacing_m",
    "corridor.speed_limit_kmh", "corridor.signals.time_to_red_first_s",
    "corridor.signals.time_to_red_second_s", "corridor.signals.red_s",
    "corridor.signals.green_s",
    "vehicle.variant", "vehicle.regen_enabled",
    "battery.coefficients_csv", "battery.eol_capacity_loss", "battery.power_z",
    "battery.reference_capacity_kwh", "battery.decay_multiplier",
    "battery.pack_price_per_kwh",
    "prices.electricity_usd_per_kwh",
    "driver_rules.accel_max_m_s2", "driver_rules.decel_min_m_s2",
    "grid.distance_step_m", "grid.speed_step_m_s", "grid.time_step_s",
    "grid.boundary_time_step_s", "grid.time_buffer_frac", "grid.accel_max_m_s2",
    "grid.decel_min_m_s2", "grid.signal_margin_s",
    "advisory.update_rate_hz", "advisory.min_cruise_m_s", "advisory.accel_m_s2",
    "driver.ideal", "driver.reaction_delay_s", "driver.speed_tracking_time_constant_s",
    "driver.low_speed_drift_m_s",
    "sweep.timings_s", "sweep.spacings_m",
}


def test_accepted_keys_are_pinned(tmp_path):
    assert len(ACCEPTED_KEYS) == 36
    assert set(_accepted_keys(tmp_path)) == ACCEPTED_KEYS


def _resolved(cfg):
    """Everything a run reads from a loaded config."""
    s = cfg.base
    # the buffer fraction acts only through the budget rule
    return (
        s.corridor(), s.resolved_vehicle(), s.resolved_battery(), s.prices, s.rules,
        replace(s.grid, time_buffer_frac=0.0), time_budget(60.0, s.grid),
        cfg.driver, cfg.advisory, cfg.timings_s, cfg.spacings_m,
    )


def test_every_accepted_key_is_read(tmp_path):
    default = _resolved(load_config(write_cfg(tmp_path, {})))
    ignored = []
    for key, value in _accepted_keys(tmp_path).items():
        *path, leaf = key.split(".")
        payload = node = {}
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value
        if _resolved(load_config(write_cfg(tmp_path, payload))) == default:
            ignored.append(key)
    assert ignored == []


def test_battery_soh_is_an_unknown_key(tmp_path, capsys):
    path = write_cfg(tmp_path, {"battery": {"soh": 0.9}})
    with pytest.raises(ConfigError, match=r"unknown keys in 'battery' block: \['soh'\]"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
    assert "unknown keys in 'battery' block" in capsys.readouterr().err


def test_bad_value_types_rejected(tmp_path):
    path = write_cfg(tmp_path, {"corridor": {"spacing_m": "fast"}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_cfg(tmp_path, {"corridor": {"speed_limit_kmh": True}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_invalid_geometry_rejected(tmp_path):
    path = write_cfg(tmp_path, {"corridor": {"spacing_m": -5}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_vehicle_variant_rejected(tmp_path):
    path = write_cfg(tmp_path, {"vehicle": {"variant": "rocket"}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_empty_sweep_lists_rejected(tmp_path):
    path = write_cfg(tmp_path, {"sweep": {"timings_s": []}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_override_cell():
    cfg = load_config(CONFIG_DIR / "paper_sweep.json")
    spec = override_cell(cfg, (-30.0, 15.0), 600.0)
    assert spec.time_to_red_first_s == pytest.approx(-30.0)
    assert spec.time_to_red_second_s == pytest.approx(15.0)
    assert spec.spacing_m == pytest.approx(600.0)
    # None leaves the base scenario untouched
    same = override_cell(cfg, None, None)
    assert same is cfg.base


def test_override_cell_keeps_the_spacing_on_the_grid():
    cfg = load_config(CONFIG_DIR / "paper_sweep.json")
    with pytest.raises(ConfigError, match="'--spacing' must be a whole number"):
        override_cell(cfg, None, 205.0)
    assert override_cell(cfg, None, 210.0).spacing_m == 210.0
