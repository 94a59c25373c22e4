"""Output checks. Each returns a list of failure messages; empty means pass.

The trajectory checks are the safety invariants of the acceptance suite's
criterion 8, with the same tolerances, so the benchmark flags exactly the
cases that criterion flags.
"""
from __future__ import annotations

import numpy as np

from ecocorridor.corridor import crossing_allowed

ECO_COST_SLACK = 1.01  # eco cost may exceed the regular cost by at most 1%


def check_trajectory(tag, traj, corridor, rules, grid, budget_s=None) -> list[str]:
    """Validates, never crosses on red, stays within the speed limit and the
    acceleration bounds, and (for optimizer plans) arrives within budget."""
    try:
        traj.validate()
    except ValueError as exc:
        return [f"{tag}: validate failed: {exc}"]
    failures = []
    if float(np.max(traj.v)) > corridor.speed_limit_m_s + 1e-6:
        failures.append(f"{tag}: exceeds speed limit")
    for i, line in enumerate(corridor.stop_lines_m):
        t_cross = traj.crossing_time(line)
        if t_cross is None:
            failures.append(f"{tag}: never crosses stop line {i}")
        elif not any(crossing_allowed(corridor, i, t_cross + d) for d in (0.0, 0.1, 0.2)):
            failures.append(f"{tag}: crosses light {i} on red at t={t_cross:.2f}")
    if traj.time_quantization_s > 0.0:
        # optimizer plan: accelerations from the arc kinematics
        dx = np.diff(traj.x)
        dv2 = traj.v[1:] ** 2 - traj.v[:-1] ** 2
        moving = dx > 1e-9
        acc = dv2[moving] / (2.0 * dx[moving])
        lo, hi = grid.decel_min_m_s2, grid.accel_max_m_s2
        slack = grid.signal_margin_s + 0.5 * grid.time_step_s
        if budget_s is not None and traj.trip_time_s > budget_s + slack + 1e-6:
            failures.append(f"{tag}: trip {traj.trip_time_s:.2f} s over budget {budget_s:.2f} s")
    else:
        dt = np.diff(traj.t)
        acc = np.diff(traj.v) / np.where(dt > 0, dt, 1.0)
        # an emergency stop right at the line may brake harder, but only
        # down to standstill
        lo, hi = rules.decel_min_m_s2, rules.accel_max_m_s2
        if np.any((acc < lo - 1e-6) & ~(traj.v[1:] <= 1e-9)):
            failures.append(f"{tag}: braking below {lo} m/s^2")
        acc = acc[acc >= lo - 1e-6]
    if len(acc) and (np.min(acc) < lo - 0.05 or np.max(acc) > hi + 0.05):
        failures.append(f"{tag}: acceleration outside [{lo}, {hi}]")
    return failures


def check_scenario(tag, spec, res) -> list[str]:
    """Eco plan of one sweep cell: safety invariants and cost dominance."""
    failures = check_trajectory(f"{tag} eco", res.eco, spec.corridor(), spec.rules,
                                spec.grid, res.budget_s)
    eco, reg = res.eco_cost.total_usd, res.regular_cost.total_usd
    if eco > ECO_COST_SLACK * reg:
        failures.append(f"{tag}: eco ${eco:.5f} > {ECO_COST_SLACK} x regular ${reg:.5f}")
    return failures
