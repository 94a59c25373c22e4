"""Trajectory container with per-step power/energy/SOH bookkeeping, and the
one safety check every trajectory through a corridor must pass."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corridor import Corridor, crossing_allowed

CSV_HEADER = ["t_s", "x_m", "v_m_s", "a_m_s2", "p_batt_w", "energy_j_cum", "soh_delta_cum"]
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f,%.3f,%.3f,%.12e\r\n"


class TrajectoryValidationError(ValueError):
    def __init__(self, index: int, message: str) -> None:
        self.index = index
        super().__init__(f"sample {index}: {message}")


@dataclass
class Trajectory:
    """Time-stamped (distance, speed, acceleration) samples.

    `a[k]` is the constant acceleration over the interval [t[k], t[k+1]);
    the last entry is zero. The power/energy/SOH columns start out as zeros
    and are filled by `costs.record_arcs`: `dp.optimize` fills a plan's from
    the arcs it sums into its breakdown, `study.evaluate_trajectory` a
    driver's from its time steps.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    p_batt: np.ndarray = None  # type: ignore[assignment]
    energy_cum: np.ndarray = None  # type: ignore[assignment]
    soh_delta_cum: np.ndarray = None  # type: ignore[assignment]
    emergency_stop: bool = False
    # nonzero for plans whose sample times live on a discrete clock; each
    # interval may then deviate from the constant-acceleration duration by
    # up to half this amount
    time_quantization_s: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("x", "v", "a"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        for name in ("p_batt", "energy_cum", "soh_delta_cum"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(n))

    def __len__(self) -> int:
        return len(self.t)

    @property
    def trip_time_s(self) -> float:
        return float(self.t[-1] - self.t[0])

    def validate(self, tol_m: float = 1e-3) -> None:
        """Kinematic consistency: monotone time, nonnegative speed and the
        per-interval distance consistent with the endpoint speeds.

        When `time_quantization_s` is nonzero, each interval duration may sit
        up to half a clock tick away from the constant-acceleration duration,
        so the distance check is widened accordingly."""
        for k in range(len(self) - 1):
            dt = float(self.t[k + 1] - self.t[k])
            if dt <= 0.0:
                raise TrajectoryValidationError(k + 1, "time not strictly increasing")
            if self.v[k] < 0.0:
                raise TrajectoryValidationError(k, "negative speed")
            dx = float(self.x[k + 1] - self.x[k])
            if dx < -tol_m:
                raise TrajectoryValidationError(k + 1, "position decreases")
            v_mid = 0.5 * float(self.v[k] + self.v[k + 1])
            # semi-implicit integration puts dx within |dv|*dt/2 of v_mid*dt
            slack = 0.5 * abs(float(self.v[k + 1] - self.v[k])) * dt + tol_m
            slack += 0.5 * self.time_quantization_s * max(v_mid, 1.0)
            if abs(dx - v_mid * dt) > slack:
                raise TrajectoryValidationError(k, "distance inconsistent with speeds")
        if len(self) and self.v[-1] < 0.0:
            raise TrajectoryValidationError(len(self) - 1, "negative speed")

    def crossing_time(self, line_m: float) -> float | None:
        """Interpolated instant the vehicle's position passes `line_m`.

        For a dwell exactly at the line, the crossing is the departure
        instant (last sample at or before the line). None if never crossed.
        """
        if self.x[-1] <= line_m:
            return None
        beyond = np.nonzero(self.x > line_m + 1e-9)[0]
        if len(beyond) == 0:
            return None
        j = int(beyond[0])
        if j == 0:
            return float(self.t[0])
        x0, x1 = float(self.x[j - 1]), float(self.x[j])
        t0, t1 = float(self.t[j - 1]), float(self.t[j])
        if x1 <= x0 + 1e-12:
            return t0
        w = (line_m - x0) / (x1 - x0)
        w = min(max(w, 0.0), 1.0)
        return t0 + w * (t1 - t0)

    def to_csv(self, path) -> None:
        """One row per sample, with ``\\r\\n`` line ends as a ``csv.writer``
        writes them; the whole file is one format over the flattened values."""
        columns = (self.t, self.x, self.v, self.a, self.p_batt, self.energy_cum, self.soh_delta_cum)
        values = np.column_stack(columns).ravel().tolist()
        rows = _CSV_ROW * len(self) % tuple(values)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n" + rows)


def check_safety(traj: Trajectory, corridor: Corridor, bounds, budget_s: float | None = None) -> list[str]:
    """Every safety rule `traj` breaks in `corridor`; empty when it is safe.

    `bounds` gives `accel_max_m_s2` and `decel_min_m_s2`, and `signal_margin_s`
    if it has one (a `RegularDriverRules` or a `DpGridSpec`). The rules:
    `validate` passes; the speed never exceeds the limit; each stop line is
    crossed on green at the exact `crossing_time` instant; acceleration stays
    within the bounds; and, when `budget_s` is given, the trip ends by the
    budget plus the signal margin plus half a clock tick. A plan on a discrete
    clock (`time_quantization_s > 0`) is held to its arc kinematics
    (v1^2 - v0^2) / 2 dx, as the optimizer's feasibility test is; any other
    trajectory to dv against bound * dt, where only a stop to standstill may
    brake harder.
    """
    try:
        traj.validate()
    except TrajectoryValidationError as exc:
        return [f"validate failed: {exc}"]
    failures = []
    v, limit = traj.v, corridor.speed_limit_m_s
    if v.max() > limit:
        failures.append(f"speed {v.max():.9f} m/s over the limit {limit} m/s")
    for i, line in enumerate(corridor.stop_lines_m):
        t_cross = traj.crossing_time(line)
        if t_cross is None:
            failures.append(f"never crosses stop line {i}")
        elif not crossing_allowed(corridor, i, t_cross):
            failures.append(f"crosses light {i} on red at t={t_cross:.3f} s")
    lo, hi = bounds.decel_min_m_s2, bounds.accel_max_m_s2
    if traj.time_quantization_s > 0.0:
        dx = np.diff(traj.x)
        moving = dx > 0.0
        acc = (v[1:] ** 2 - v[:-1] ** 2)[moving] / (2.0 * dx[moving])
        too_hard, too_soft = acc > hi + 1e-9, acc < lo - 1e-9
    else:
        dv, dt = np.diff(v), np.diff(traj.t)
        too_hard = dv > hi * dt + 1e-9
        too_soft = (dv < lo * dt - 1e-9) & (v[1:] != 0.0)
    if too_hard.any():
        failures.append(f"accelerates harder than {hi} m/s^2")
    if too_soft.any():
        failures.append(f"brakes harder than {lo} m/s^2")
    if budget_s is not None:
        allowed = budget_s + getattr(bounds, "signal_margin_s", 0.0) + 0.5 * traj.time_quantization_s
        if traj.trip_time_s > allowed:
            failures.append(f"trip {traj.trip_time_s:.3f} s over budget ({allowed:.3f} s allowed)")
    return failures


@dataclass(frozen=True)
class ClockAudit:
    """A plan replayed on the durations its arcs are priced over."""

    replay: Trajectory      # the plan on that clock
    drift_s: float          # worst |t_arc - t_bin| over the samples
    late_s: float           # replayed trip time past budget + signal margin
    violations: list[str]   # check_safety of the replay, with the budget


def audit_arc_clock(plan: Trajectory, corridor: Corridor, grid, budget_s: float) -> ClockAudit:
    """Replay a binned plan with each motion interval lasting 2 dx / (v0 + v1)
    and each wait interval its binned duration, and run `check_safety` on it
    against the optimizer's `grid` (a `DpGridSpec`) and `budget_s`.

    A reported number, not a check: the optimizer still searches, stamps and
    checks its plans on the binned clock.
    """
    dx = np.diff(plan.x)
    dur = np.diff(plan.t)
    moving = dx > 0.0
    dur[moving] = 2.0 * dx[moving] / (plan.v[1:] + plan.v[:-1])[moving]
    replay = replace(plan, t=plan.t[0] + np.concatenate(([0.0], np.cumsum(dur))),
                     time_quantization_s=0.0)
    return ClockAudit(
        replay=replay,
        drift_s=float(np.max(np.abs(replay.t - plan.t))),
        late_s=replay.trip_time_s - budget_s - grid.signal_margin_s,
        violations=check_safety(replay, corridor, grid, budget_s),
    )


def from_samples(t, x, v, a=None, **kwargs) -> Trajectory:
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if a is None:
        a = np.zeros_like(t)
        if len(t) > 1:
            # degenerate spacing is caught later by validate()
            with np.errstate(divide="ignore", invalid="ignore"):
                a[:-1] = np.diff(v) / np.diff(t)
    else:
        a = np.asarray(a, dtype=float)
    return Trajectory(t=t, x=x, v=v, a=a, **kwargs)
