"""Walk through one corridor scenario end to end.

A vehicle enters the control zone at the speed limit, 100 m before the first
of two traffic lights. The regular driver has no timing information: it
cruises, brakes hard when it sees a red within 75 m, waits, and accelerates
flat out on green. The optimizer knows the full signal schedule and plans a
minimum-cost trajectory (electricity plus battery wear) that arrives no later
than the regular driver, plus the paper's 3% buffer."""
from pathlib import Path

from ecocorridor import load_config, run_scenario
from ecocorridor.config import override_cell
from ecocorridor.report import render_scenario_svg, write_trajectories

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_sweep.json"
OUT = Path(__file__).resolve().parent / "output"


def main() -> None:
    # The paper sweep's cell where both lights turn red 15 s after the
    # vehicle enters, 800 m apart.
    spec = override_cell(load_config(CONFIG), (15.0, 15.0), 800.0)
    result = run_scenario(spec)

    reg, eco = result.regular_cost, result.eco_cost
    print(f"trip length: {spec.corridor().length_m:.0f} m, "
          f"time budget {result.budget_s:.1f} s")
    print(f"regular driver: ${reg.total_usd:.4f} "
          f"({reg.energy_kwh * 1000:.0f} Wh, trip {reg.trip_time_s:.1f} s)")
    print(f"eco driver:     ${eco.total_usd:.4f} "
          f"({eco.energy_kwh * 1000:.0f} Wh, trip {eco.trip_time_s:.1f} s)")
    print(f"cost reduction: {result.reduction_pct:.1f}%")
    print(f"  energy saving    {result.energy_reduction_pct:.1f}%")
    print(f"  decay reduction  {result.decay_reduction_pct:.1f}%")

    paths = write_trajectories(result, OUT)
    paths.append(render_scenario_svg(result, OUT / "single_scenario.svg"))
    for p in paths:
        print(f"wrote {p}")


if __name__ == "__main__":
    main()
