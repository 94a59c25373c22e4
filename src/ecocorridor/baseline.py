"""Rule-based regular driver: the reference trajectory and trip-time budget."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .corridor import Corridor, Phase, lights_ahead, phase_at
from .powertrain import VehicleParams
from .trajectory import Trajectory, from_samples

_MAX_SIM_TIME_S = 3600.0
# how far ahead a driver sees a red light, and the closed-loop time step
SIGHT_DISTANCE_M = 75.0
TIMESTEP_S = 0.1


@dataclass(frozen=True)
class RegularDriverRules:
    accel_max_m_s2: float = 2.0
    decel_min_m_s2: float = -4.0

    def __post_init__(self) -> None:
        if not (self.accel_max_m_s2 > 0.0 > self.decel_min_m_s2):
            raise ValueError("need accel_max > 0 > decel_min")


def _visible_red_light(c: Corridor, x: float, t: float):
    """Nearest stop line ahead, as (signal index, gap), if it is Red and
    within sight; None if it is green or out of sight, or there is none."""
    ahead = lights_ahead(c, x)
    if ahead:
        idx, line = ahead[0]
        d = line - x
        if d <= SIGHT_DISTANCE_M and phase_at(c.signals[idx], t) is Phase.RED:
            return idx, d
    return None


def _red_line_crossed(c: Corridor, t: float, x: float, x_new: float, v_new: float):
    """Stop line that the step x -> x_new reaches while it is Red, or None.

    Only the nearest line ahead can be reached in one step. The
    semi-implicit step moves at v_new throughout, so the vehicle reaches the
    line at t + (line - x) / v_new exactly; the phase is read at that instant,
    not at either end of the step.
    """
    if v_new <= 0.0:
        return None
    ahead = lights_ahead(c, x)
    if not ahead:
        return None
    idx, line = ahead[0]
    if x_new < line - 1e-9:
        return None
    t_cross = t + max(line - x, 0.0) / v_new
    return line if phase_at(c.signals[idx], t_cross) is Phase.RED else None


def _trim_last_step(ts, xs, vs, accs, length: float, limit: float) -> None:
    """Redo the step that overshoots the corridor end as a partial step ending
    exactly at `length`, keeping the step's constant-acceleration kinematics
    (so the speed stays consistent with the shortened time)."""
    if xs[-1] > length and len(xs) > 1 and xs[-1] > xs[-2]:
        rem = length - xs[-2]
        v0, a = vs[-2], accs[-1]
        disc = v0 * v0 + 2.0 * a * rem
        if abs(a) > 1e-12 and disc >= 0.0:
            dt_p = (math.sqrt(disc) - v0) / a
        else:
            dt_p = rem / max(v0, 1e-9)
        ts[-1] = ts[-2] + dt_p
        xs[-1] = length
        vs[-1] = min(max(v0 + a * dt_p, 0.0), limit)


def stopping_acceleration(v: float, gap_m: float, rules: RegularDriverRules) -> float:
    """Constant-rate deceleration that stops exactly at the line, clamped."""
    if gap_m <= 0.0:
        return rules.decel_min_m_s2
    return max(-v * v / (2.0 * gap_m), rules.decel_min_m_s2)


def _drive(c: Corridor, policy) -> Trajectory:
    """Closed-loop integrator shared by the regular and advised drivers.

    Enters at the speed limit at t=0 and asks `policy(t, x, speed, seen)` for
    an acceleration on every step, where `seen` is the red stop line within
    sight, as `(signal index, gap)`, or None. A vehicle crawling at a red
    line holds there until green, whatever the policy asked. Semi-implicit
    integration; never crosses a stop line on Red: every step that reaches a
    stop line reads its phase at the crossing instant, and a vehicle that
    would cross on red is pinned at the line (flagged `emergency_stop` when
    it was still moving). The step that overshoots the corridor end is redone
    as a constant-acceleration partial step.
    """
    dt = TIMESTEP_S
    limit = c.speed_limit_m_s
    length = c.length_m

    t, x, speed = 0.0, 0.0, limit
    ts, xs, vs, accs = [t], [x], [speed], []
    emergency = False

    while x < length:
        if t > _MAX_SIM_TIME_S:
            raise RuntimeError("driver simulation did not terminate")
        seen = _visible_red_light(c, x, t)
        a = policy(t, x, speed, seen)
        # crawl has effectively converged; stand until green
        holding = seen is not None and speed <= 0.25 and seen[1] <= 1.0
        if holding:
            a = -speed / dt

        v_new = min(max(speed + a * dt, 0.0), limit)
        x_new = x + v_new * dt

        line = None if holding else _red_line_crossed(c, t, x, x_new, v_new)
        if line is not None:
            # the step would cross on red: pin the vehicle at the line
            emergency = emergency or v_new > 0.05
            x_new, v_new, a = line, 0.0, -speed / dt

        accs.append(a)
        t += dt
        x, speed = x_new, v_new
        ts.append(t)
        xs.append(x)
        vs.append(speed)

    _trim_last_step(ts, xs, vs, accs, length, limit)
    accs.append(0.0)

    traj = from_samples(ts, xs, vs, accs)
    traj.emergency_stop = emergency
    return traj


def simulate_regular(
    c: Corridor, v: VehicleParams, r: RegularDriverRules | None = None
) -> Trajectory:
    """Closed-loop regular-driver simulation.

    Brakes at v^2/(2d) toward a red light seen within the sight distance,
    holds at the line until green, otherwise accelerates at the maximum rate
    toward the speed limit; `_drive` integrates it and keeps it off red.
    """
    r = r or RegularDriverRules()
    limit = c.speed_limit_m_s

    def policy(t: float, x: float, speed: float, seen) -> float:
        if seen is not None:
            return stopping_acceleration(speed, seen[1], r)
        if speed < limit:
            return min(r.accel_max_m_s2, (limit - speed) / TIMESTEP_S)
        return 0.0

    return _drive(c, policy)
