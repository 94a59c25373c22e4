"""Tests for the command line interface."""
import hashlib
import json
import re
from pathlib import Path

import pytest

from ecocorridor import cli, oracle
from ecocorridor.cli import EXIT_FAILED, EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# The 50 cases of `ecocorridor verify --cases 50 --seed 0`: the sha256 of the
# verbose report's lines, which hold each case's optimizer and enumeration
# values and path count, and the paths the enumeration walks over all 50. A
# change to the tiny instances or to the oracle's arc rules that moves either
# must say so.
VERIFY_SEED_0_LINES_SHA256 = "5348b6512c739acc2a7338ccfa3546944a1f969624e2aa2fe18d14c908b1afc9"
VERIFY_SEED_0_PATHS = 18_331
# The same pins for seeds 1-5: (lines sha256, paths) by seed.
VERIFY_PINS = {
    1: ("bb514068465541e97b3c0b14bd4977a2ec4ff15bc2b08404dacb695969646490", 15_566),
    2: ("ca884be1c33fdbc2eca44a0e5ff0dc6b424e906217a944daed72b427dadf4180", 14_453),
    3: ("ddde541334f03e0ec2f746c8026cf4e92e853ba2d7d6bc325a302281669c7e81", 14_279),
    4: ("76b84d19f12c9e9d81d3ff22cb6493dc74642e66e2856c407c46bf43dcd01905", 10_928),
    5: ("1aa791102988da00c489d6f03de9ac76e66eca4fbed203ea6232b31f54e0b682", 11_490),
}


@pytest.fixture()
def tiny_config(tmp_path):
    payload = {
        "corridor": {
            "exit_buffer_m": 200,
            "signals": {"time_to_red_first_s": 15, "time_to_red_second_s": 15},
        },
        "vehicle": {"regen_enabled": False},
        "grid": {"time_buffer_frac": 0.03},
        "sweep": {"timings_s": [15], "spacings_m": [400]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload))
    return path


def test_run_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tiny_config), "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr()
    assert "reduction" in printed.out
    assert re.search(r"^dp: \d+ states, relaxed \d+ of \d+ candidates \(\d+\.\d%\)$",
                     printed.out, re.MULTILINE)
    # [15 15]/400 cruises through light 1 on red on the arc-duration clock
    assert "arc-clock audit: worst drift" in printed.out
    assert "crosses light 1 on red" in printed.out
    assert printed.err == ""
    assert list(out.glob("*_eco.csv")) and list(out.glob("*.svg"))


def test_run_exits_1_on_a_safety_violation(tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_safety", lambda traj, c, bounds, budget_s=None: ["too fast"])
    code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
    assert code == EXIT_FAILED
    err = capsys.readouterr().err
    assert "safety violation: regular: too fast" in err
    assert "safety violation: eco: too fast" in err


def test_run_with_overrides(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(tiny_config),
        "--timing", "0", "15", "--spacing", "600", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "timing_0_15_s600_eco.csv").exists()


def test_sweep_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(tiny_config), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "table2.csv").exists()
    printed = capsys.readouterr().out
    assert "cells: 1" in printed
    assert "arc-clock audit: 1 of 1 plans cross on red, 0 of 1 arrive after" in printed


def test_advisory_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "advisory", "--config", str(CONFIG_DIR / "field_test.json"),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "advisory_advised.csv").exists()
    assert "recommendations issued" in capsys.readouterr().out


def test_verify_command(capsys):
    code = main(["verify", "--cases", "3", "--seed", "1"])
    assert code == EXIT_OK
    assert "matches enumeration" in capsys.readouterr().out


def test_verify_report_is_pinned(capsys):
    report = oracle.run_oracle_suite(cases=50, seed=0, verbose=True)
    assert (report.cases, report.failures, len(report.lines)) == (50, 0, 50)
    digest = hashlib.sha256("\n".join(report.lines).encode()).hexdigest()
    assert digest == VERIFY_SEED_0_LINES_SHA256
    assert report.paths_total == VERIFY_SEED_0_PATHS
    assert main(["verify", "--cases", "50", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "ok: optimizer matches enumeration on all 50 cases\n"


@pytest.mark.parametrize("seed", sorted(VERIFY_PINS))
def test_verify_reports_of_other_seeds_are_pinned(seed):
    report = oracle.run_oracle_suite(cases=50, seed=seed, verbose=True)
    assert (report.cases, report.failures, len(report.lines)) == (50, 0, 50)
    digest = hashlib.sha256("\n".join(report.lines).encode()).hexdigest()
    assert (digest, report.paths_total) == VERIFY_PINS[seed]


@pytest.mark.parametrize("argv", [
    ["verify", "--cases", "0"],
    ["verify", "--cases", "-3"],
    ["verify", "--cases", "two"],
    ["sweep", "--config", "unread.json", "--jobs", "0"],
    ["sweep", "--config", "unread.json", "--jobs", "-2"],
])
def test_bad_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "one", "1.5"])
def test_bad_seed_exits_2(seed, capsys):
    # numpy refuses a negative seed; that is a usage error, not a mismatch
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cases", "1", "--seed", seed])
    assert exc.value.code == EXIT_VALIDATION
    assert "must be an integer >= 0" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"corridor": {"spacing_m": -1}}))
    code = main(["run", "--config", str(bad)])
    assert code == EXIT_VALIDATION
    assert "configuration error" in capsys.readouterr().err
    # an acceleration bound of the wrong sign is a configuration error, not
    # an infeasible scenario
    bad.write_text(json.dumps({"grid": {"accel_max_m_s2": -1}}))
    assert main(["run", "--config", str(bad)]) == EXIT_VALIDATION
    assert "accel_max" in capsys.readouterr().err


@pytest.mark.parametrize("argv, edit, key", [
    # each used to end in a ValueError traceback with exit 1, and the sweep
    # spacing aborted the sweep's other cells
    (["run"], {"corridor": {"spacing_m": 205}}, "corridor.spacing_m"),
    (["sweep"], {"sweep": {"spacings_m": [400, 205]}}, "sweep.spacings_m"),
    (["run", "--spacing", "205"], {}, "--spacing"),
])
def test_off_grid_corridor_exits_2(tiny_config, tmp_path, capsys, argv, edit, key):
    payload = json.loads(tiny_config.read_text())
    for block, values in edit.items():
        payload[block].update(values)
    tiny_config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == EXIT_VALIDATION
    assert f"configuration error: '{key}' must be a whole number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["sweep"]])
@pytest.mark.parametrize("grid, which", [
    # each used to end in a ValueError traceback with exit 1
    ({"distance_step_m": 5}, "time bins"),
    # only the retry's grid, at half the speed step, breaks the rule
    ({"distance_step_m": 5, "speed_step_m_s": 1.0}, "time bins of the halved-speed-step retry"),
])
def test_distance_step_too_short_exits_2(tiny_config, tmp_path, capsys, argv, grid, which):
    payload = json.loads(tiny_config.read_text())
    payload["grid"].update(grid)
    tiny_config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("configuration error: 'grid.distance_step_m' (5 m) is too short for the "
                          f"{which}: an arc from ")
    assert not out.exists()


def test_infeasible_exits_3(tmp_path, capsys):
    # with almost no braking authority the entering vehicle cannot stop
    # for a light that is red on arrival, so no feasible plan exists
    payload = {
        "corridor": {"signals": {"time_to_red_first_s": 0,
                                 "time_to_red_second_s": 0}},
        "grid": {"accel_max_m_s2": 0.01, "decel_min_m_s2": -0.01},
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(payload))
    code = main(["run", "--config", str(path)])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_out_env_var(tiny_config, tmp_path, monkeypatch, capsys):
    out = tmp_path / "envout"
    monkeypatch.setenv("ECOCORRIDOR_OUT", str(out))
    code = main(["run", "--config", str(tiny_config)])
    assert code == EXIT_OK
    assert list(out.glob("*_eco.csv"))
