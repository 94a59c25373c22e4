"""Rule-based speed advisory and an imperfect driver-following model."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .baseline import TIMESTEP_S, RegularDriverRules, _drive, stopping_acceleration
from .corridor import (
    Corridor, Phase, SignalSchedule, lights_ahead, next_green_onset, next_red_onset, phase_at,
)
from .powertrain import VehicleParams
from .trajectory import Trajectory

# The advice aims this far inside a green window, at either end: the
# discrete dynamics track a pace imperfectly, and reaching the line even a
# fraction outside the window forces a full stop.
ONSET_MARGIN_S = 0.5
# below this target speed a driver drifts a little fast
DRIFT_BELOW_M_S = 10.0


class Action(Enum):
    ACCELERATE = "accelerate"
    CRUISE = "cruise"
    BRAKE = "brake"


@dataclass(frozen=True)
class Advisory:
    target_speed_m_s: float
    action: Action


@dataclass(frozen=True)
class AdvisoryConfig:
    update_rate_hz: float = 1.0
    min_cruise_m_s: float = 4.5
    accel_m_s2: float = 2.0  # assumed when judging whether a window is makeable

    def __post_init__(self) -> None:
        if self.update_rate_hz <= 0.0:
            raise ValueError("update rate must be > 0")
        if self.min_cruise_m_s <= 0.0:
            raise ValueError("min_cruise must be > 0")
        if self.accel_m_s2 <= 0.0:
            raise ValueError("accel must be > 0")

    def check_limit(self, speed_limit_m_s: float) -> None:
        """Reject a speed limit (the corridor's) not above the cruise floor."""
        if not self.min_cruise_m_s < speed_limit_m_s:
            raise ValueError(f"need min_cruise_m_s < speed limit {speed_limit_m_s:.3f} m/s")


@dataclass(frozen=True)
class DriverFollowingModel:
    reaction_delay_s: float = 1.0
    speed_tracking_time_constant_s: float = 2.0
    low_speed_drift_m_s: float = 0.5

    def __post_init__(self) -> None:
        if self.reaction_delay_s < 0.0:
            raise ValueError("reaction delay must be >= 0")
        if self.speed_tracking_time_constant_s <= 0.0:
            raise ValueError("tracking time constant must be > 0")


IDEAL_DRIVER = DriverFollowingModel(
    reaction_delay_s=0.0, speed_tracking_time_constant_s=1e-6, low_speed_drift_m_s=0.0
)


def _min_travel_time(d: float, v: float, limit: float, cfg: AdvisoryConfig) -> float:
    """Quickest time to cover d starting at v: accelerate, then cruise."""
    a = cfg.accel_m_s2
    v = min(max(v, 0.0), limit)
    d_accel = (limit * limit - v * v) / (2.0 * a)
    if d_accel >= d:
        return (math.sqrt(v * v + 2.0 * a * d) - v) / a
    return (limit - v) / a + (d - d_accel) / limit


def _light_target(
    sig: SignalSchedule, d: float, v: float, t: float, limit: float, cfg: AdvisoryConfig
) -> tuple[float, float]:
    """(cruise target, floor) for one light. The floor is the pace that
    reaches the line ONSET_MARGIN_S before the green window it aims at
    closes, or the limit when that window is too short."""
    if phase_at(sig, t) is Phase.GREEN:
        remaining_green = next_red_onset(sig, t) - t
        if _min_travel_time(d, v, limit, cfg) <= remaining_green:
            window = remaining_green - ONSET_MARGIN_S
            return limit, (d / window if window > 0 else limit)
        t_on = next_green_onset(sig, next_red_onset(sig, t))
    else:
        t_on = next_green_onset(sig, t)
    target = d / (t_on - t) if t_on > t else limit
    window = t_on + sig.green_s - ONSET_MARGIN_S - t
    return target, (d / window if window > 0 else limit)


def recommend(
    x: float, v: float, t: float, c: Corridor, cfg: AdvisoryConfig
) -> Advisory:
    """Target cruising speed to pass the upcoming lights on green.

    The nearest unpassed light sets the primary target (arrive at the next
    green onset, or keep the limit if the current green window is makeable);
    the rule is re-applied to the second light from the projected arrival
    state, and the slower of the two wins as long as it still makes the
    first light's window.
    """
    limit = c.speed_limit_m_s
    cfg.check_limit(limit)
    unpassed = [(c.signals[idx], line) for idx, line in lights_ahead(c, x)]
    if not unpassed:
        target = limit
    else:
        first, line1 = unpassed[0]
        d1 = line1 - x
        target1, floor1 = _light_target(first, d1, v, t, limit, cfg)
        target = target1
        if len(unpassed) > 1:
            second, line2 = unpassed[1]
            v_plan = min(max(target1, cfg.min_cruise_m_s), limit)
            t1 = t + d1 / v_plan
            d2 = line2 - line1
            target2, _ = _light_target(second, d2, v_plan, t1, limit, cfg)
            # slowing for the second light must not forfeit the first window
            target = max(min(target1, target2), floor1)
    target = min(max(target, cfg.min_cruise_m_s), limit)
    if target < v - 0.25:
        action = Action.BRAKE
    elif target > v + 0.25:
        action = Action.ACCELERATE
    else:
        action = Action.CRUISE
    return Advisory(target, action)


def simulate_advised_driver(
    c: Corridor,
    v: VehicleParams,
    d: DriverFollowingModel | None = None,
    cfg: AdvisoryConfig | None = None,
    rules: RegularDriverRules | None = None,
    log: list | None = None,
) -> Trajectory:
    """Closed-loop simulation of a driver following the advisory.

    The driver tracks the reaction-delayed recommendation with first-order
    dynamics plus a low-speed drift bias. A red stop line within sight
    overrides the advisory with a paced approach or the regular-driver
    stopping rule. `_drive` integrates it, as it does the regular driver, and
    keeps it off red.
    """
    d = d or DriverFollowingModel()
    cfg = cfg or AdvisoryConfig()
    rules = rules or RegularDriverRules()
    limit = c.speed_limit_m_s
    update_dt = 1.0 / cfg.update_rate_hz

    issued: list[tuple[float, float]] = []  # (time issued, target)
    next_update = 0.0

    def policy(t: float, x: float, speed: float, seen) -> float:
        nonlocal next_update
        if t >= next_update - 1e-9:
            adv = recommend(x, speed, t, c, cfg)
            issued.append((t, adv.target_speed_m_s))
            if log is not None:
                log.append((t, x, speed, adv.action.value, adv.target_speed_m_s))
            next_update += update_dt

        target = limit
        for t_issue, tgt in issued:
            if t_issue <= t - d.reaction_delay_s + 1e-9:
                target = tgt
        if target < DRIFT_BELOW_M_S:
            target = target + d.low_speed_drift_m_s

        stopping = False
        if seen is not None:
            idx, gap = seen
            # unlike the regular driver, the advised one knows the signal
            # schedule: approach a visible red at the pace that reaches the
            # stop line just after it turns green; when that pace is a
            # crawl, stopping and waiting is cheaper than inching forward
            onset = next_green_onset(c.signals[idx], t)
            pace = gap / max(onset + ONSET_MARGIN_S - t, TIMESTEP_S)
            if pace < 2.0:
                stopping = True
            else:
                target = min(target, pace)

        # floor the tracking time constant at the simulation step so a
        # highly responsive driver settles on the target instead of
        # overshooting it every step and chattering between full throttle
        # and full brake
        a = (target - speed) / max(d.speed_tracking_time_constant_s, TIMESTEP_S)
        a = min(max(a, rules.decel_min_m_s2), rules.accel_max_m_s2)
        if stopping:
            a = min(a, stopping_acceleration(speed, gap, rules))
        return a

    return _drive(c, policy)
