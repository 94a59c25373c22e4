"""Time one benchmark set-up and print it in seconds.

A set-up is what every run of a workload pays before its first op: import
ecocorridor, load configs/paper_sweep.json and generate the workload's
inputs. ``run.py`` runs this script several times in fresh interpreters and
reports the median as ``setup_s``.

    python3 perfbench/setup_time.py <workload> <seed>
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ecocorridor.report  # noqa: E402,F401
import inputs  # noqa: E402

inputs.make_inputs(sys.argv[1], inputs.load_paper_config(ROOT), int(sys.argv[2]))
print(f"{time.perf_counter() - T0!r}")
