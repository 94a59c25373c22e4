"""Tests for JSON configuration loading and overrides."""
import json
from pathlib import Path

import pytest

from ecocorridor.advisory import IDEAL_DRIVER
from ecocorridor.cli import EXIT_VALIDATION, main
from ecocorridor.config import ConfigError, load_config, override_cell

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_paper_sweep_config():
    cfg = load_config(CONFIG_DIR / "paper_sweep.json")
    assert cfg.base.speed_limit_m_s == pytest.approx(88.5 / 3.6)
    assert not cfg.base.vehicle.regen_enabled
    assert cfg.base.grid.time_budget_mode == "buffered"
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
    assert cfg.advisory.speed_limit_m_s == pytest.approx(cfg.base.speed_limit_m_s)


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
