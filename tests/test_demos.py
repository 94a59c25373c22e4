"""The demos run on the current API and report what the command line
reports for the same shipped config. `battery_size` is left out: it runs
the 64-cell sweep twice."""
import importlib.util
import re
from pathlib import Path

import pytest

from ecocorridor.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
PAPER_CELL = ["run", "--config", str(ROOT / "configs" / "paper_sweep.json"),
              "--timing", "15", "15", "--spacing", "800"]
FIELD_TEST = ["advisory", "--config", str(ROOT / "configs" / "field_test.json")]


def _cli_reduction(args, out: Path, capsys) -> str:
    """The `reduction <pct>%` the command prints."""
    assert main([*args, "--out", str(out)]) == EXIT_OK
    return re.search(r"reduction (\d+\.\d%)", capsys.readouterr().out).group(1)


@pytest.mark.parametrize("name, cli_args, line", [
    ("single_scenario", PAPER_CELL, "cost reduction: {}"),
    ("decay_sensitivity", PAPER_CELL, "reduction {}\ndecay multiplier 10:"),
    ("field_test_advisory", FIELD_TEST, "total cost reduction: {}"),
])
def test_demo_matches_the_command_line(name, cli_args, line, tmp_path, monkeypatch, capsys):
    expected = _cli_reduction(cli_args, tmp_path / "cli", capsys)
    spec = importlib.util.spec_from_file_location(f"demo_{name}", ROOT / "demos" / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path / "demo")
    demo.main()
    assert line.format(expected) in capsys.readouterr().out
