"""Cost accounting shared by the optimizer and the trajectory evaluator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .battery import BatteryModel, decay_cost_rate, soh_decay_rate
from .powertrain import VehicleParams, power_demand
from .trajectory import Trajectory

J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class Prices:
    electricity_usd_per_kwh: float = 0.12

    def __post_init__(self) -> None:
        if self.electricity_usd_per_kwh < 0.0:
            raise ValueError("electricity price must be >= 0")


@dataclass(frozen=True)
class CostBreakdown:
    electricity_usd: float
    battery_usd: float
    trip_time_s: float
    energy_kwh: float
    soh_delta: float

    @property
    def total_usd(self) -> float:
        return self.electricity_usd + self.battery_usd


class ArcCost(NamedTuple):
    """Bookkeeping for one constant-acceleration interval (a tuple, since
    every driver step builds one)."""

    duration_s: float
    power_w: float
    energy_j: float
    electricity_usd: float
    decay_usd: float
    soh_delta: float

    @property
    def total_usd(self) -> float:
        return self.electricity_usd + self.decay_usd


def interval_cost(
    v0: float,
    v1: float,
    duration_s: float,
    vp: VehicleParams,
    bat: BatteryModel,
    prices: Prices,
) -> ArcCost:
    """Electricity + battery-decay cost of one constant-acceleration interval.

    The one pricing rule for every trajectory: battery power is the demand
    at the midpoint speed with a = (v1 - v0) / duration_s (zero at
    standstill), held over duration_s.
    """
    power = 0.0
    if v0 + v1 > 0.0:
        power = power_demand(0.5 * (v0 + v1), (v1 - v0) / duration_s, vp)
    energy_j = power * duration_s
    elec = prices.electricity_usd_per_kwh * energy_j / J_PER_KWH
    rate = soh_decay_rate(power, bat)
    decay = decay_cost_rate(rate, bat) * duration_s
    return ArcCost(duration_s, power, energy_j, elec, decay, rate * duration_s)


def motion_arc_cost(
    v_start: float,
    v_end: float,
    length_m: float,
    vp: VehicleParams,
    bat: BatteryModel,
    prices: Prices,
) -> ArcCost:
    """Cost of one distance step over its constant-acceleration duration."""
    duration = 2.0 * length_m / (v_start + v_end)
    return interval_cost(v_start, v_end, duration, vp, bat, prices)


def record_arcs(traj: Trajectory, arcs: list[ArcCost]) -> CostBreakdown:
    """Write one priced arc per interval into the trajectory's power, energy
    and SOH columns and return their sum, accumulated in trajectory order."""
    elec = decay = 0.0
    energy, soh = [0.0], [0.0]
    for arc in arcs:
        elec += arc.electricity_usd
        decay += arc.decay_usd
        energy.append(energy[-1] + arc.energy_j)
        soh.append(soh[-1] + arc.soh_delta)
    traj.p_batt = np.array([arc.power_w for arc in arcs] + [0.0])
    traj.energy_cum = np.array(energy)
    traj.soh_delta_cum = np.array(soh)
    return CostBreakdown(elec, decay, traj.trip_time_s, energy[-1] / J_PER_KWH, soh[-1])
