"""Replay of the phone-app advisory scenario with an imperfect driver.

The first light turns green 15 s after the vehicle enters the zone; the
second turns red at 30 s. A rule-based advisory (cruise if the current green
is reachable, otherwise slow down to arrive at the next green onset) is
issued once per second. The simulated driver reacts with a one-second delay,
tracks the target speed sluggishly, and drifts a little fast at low speeds —
mirroring how a human followed the audio prompts. A safety override applies
the regular stopping rule so the car never runs a red."""
from pathlib import Path

from ecocorridor import load_config
from ecocorridor.study import percent_saving, run_advisory_scenario

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "field_test.json"


def main() -> None:
    cfg = load_config(CONFIG)
    res = run_advisory_scenario(cfg.base, cfg.driver, cfg.advisory)
    rc, ac = res["regular_cost"], res["advised_cost"]
    print(f"regular driver: ${rc.total_usd:.4f}, trip {rc.trip_time_s:.1f} s")
    print(f"advised driver: ${ac.total_usd:.4f}, trip {ac.trip_time_s:.1f} s")
    print(f"total cost reduction: {percent_saving(rc.total_usd, ac.total_usd):.1f}%")
    print(f"  energy: {percent_saving(rc.energy_kwh, ac.energy_kwh):.1f}%")
    print(f"  decay:  {percent_saving(abs(rc.soh_delta), abs(ac.soh_delta)):.1f}%")
    print(f"{len(res['log'])} recommendations issued; first five:")
    for t, x, v, action, target in res["log"][:5]:
        print(f"  t={t:5.1f}s x={x:6.1f}m v={v:5.1f}  {action:10s} target {target:.1f} m/s")


if __name__ == "__main__":
    main()
