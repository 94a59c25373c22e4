"""How sensitive is the optimal trajectory to the battery decay rate?

Scaling the capacity-decay rate by 10 (a stand-in for a more fragile
chemistry) barely changes the optimal speed profile — the smooth, low-power
trajectory that minimizes energy already minimizes wear — but it greatly
amplifies the cost advantage of eco-driving, because battery replacement
dominates the bill."""
from dataclasses import replace
from pathlib import Path

import numpy as np

from ecocorridor import load_config, run_scenario
from ecocorridor.config import override_cell

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_sweep.json"


def main() -> None:
    base = override_cell(load_config(CONFIG), (15.0, 15.0), 800.0)
    r1 = run_scenario(base)
    r10 = run_scenario(replace(base, battery=base.battery.with_multiplier(10.0)))

    t_max = min(r1.eco.t[-1], r10.eco.t[-1])
    grid = np.arange(0.0, t_max, 0.5)
    dv = np.interp(grid, r1.eco.t, r1.eco.v) - np.interp(grid, r10.eco.t, r10.eco.v)
    rms = float(np.sqrt(np.mean(dv**2)))

    print("decay multiplier 1:")
    print(f"  regular ${r1.regular_cost.total_usd:.4f}  "
          f"eco ${r1.eco_cost.total_usd:.4f}  reduction {r1.reduction_pct:.1f}%")
    print("decay multiplier 10:")
    print(f"  regular ${r10.regular_cost.total_usd:.4f}  "
          f"eco ${r10.eco_cost.total_usd:.4f}  reduction {r10.reduction_pct:.1f}%")
    print(f"RMS speed difference between the two optimal trajectories: "
          f"{rms:.2f} m/s ({100 * rms / base.speed_limit_m_s:.1f}% of the limit)")


if __name__ == "__main__":
    main()
