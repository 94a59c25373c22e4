"""Compare battery wear for two pack sizes over the full sweep.

The long-range variant (75 kWh, heavier) runs each trip at a lower C-rate
than the standard pack (54 kWh), so the same drive consumes a smaller slice
of the pack's lifetime Ah throughput. The study runs every timing/spacing
combination for both variants and reports the average reduction in per-trip
capacity decay, separately for the regular and the eco driver."""
from pathlib import Path

from ecocorridor import battery_size_study, load_config
from ecocorridor.report import write_decay_comparison_csv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_sweep.json"
OUT = Path(__file__).resolve().parent / "output"


def main() -> None:
    cfg = load_config(CONFIG)
    print("running 2 x 64 scenarios, this takes a few minutes...")
    res = battery_size_study(cfg.base, cfg.timings_s, cfg.spacings_m)
    print(f"average decay reduction of the 75 kWh pack vs 54 kWh:")
    print(f"  regular driver: {res.average('regular'):.1f}%")
    print(f"  eco driver:     {res.average('eco'):.1f}%")
    path = write_decay_comparison_csv(res, OUT / "battery_size.csv")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
