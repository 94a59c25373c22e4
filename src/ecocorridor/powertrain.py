"""Longitudinal EV power model: road load and battery-side power demand."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VehicleParams:
    """Road-load and efficiency-chain parameters of the simulated EV."""

    mass_kg: float = 1611.0
    rolling_c1: float = 0.0065
    rolling_c2: float = 4.92e-5  # s/m
    frontal_area_m2: float = 2.22
    drag_coeff: float = 0.23
    air_density_kg_m3: float = 1.2
    gravity_m_s2: float = 9.81
    eff_trans: float = 0.8536
    eff_motor: float = 0.90
    eff_inverter: float = 0.95
    regen_enabled: bool = True
    regen_power_cap_w: float = 60e3

    def __post_init__(self) -> None:
        for name in ("eff_trans", "eff_motor", "eff_inverter"):
            e = getattr(self, name)
            if not 0.0 < e <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {e}")
        for name in ("mass_kg", "frontal_area_m2", "air_density_kg_m3", "gravity_m_s2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.rolling_c1 < 0.0 or self.rolling_c2 < 0.0:
            raise ValueError("rolling coefficients must be >= 0")
        if self.regen_power_cap_w < 0.0:
            raise ValueError("regen_power_cap_w must be >= 0")

    @property
    def eff_chain(self) -> float:
        return self.eff_trans * self.eff_motor * self.eff_inverter


def wheel_power(v: float, a: float, p: VehicleParams) -> float:
    """Tractive power at the wheels on a flat road (signed, W)."""
    m, g = p.mass_kg, p.gravity_m_s2
    force = (
        m * a
        + (p.rolling_c1 + p.rolling_c2 * v) * m * g
        + 0.5 * p.air_density_kg_m3 * p.frontal_area_m2 * p.drag_coeff * v * v
    )
    return force * v


def power_demand(v: float, a: float, p: VehicleParams) -> float:
    """Battery-side power demand (W).

    Positive wheel power is divided by the efficiency chain; negative wheel
    power is recuperated through the same chain multiplicatively, limited by
    the regen power cap (the excess is dissipated by friction brakes), or
    discarded entirely when regen is disabled.
    """
    if v < 0.0:
        raise ValueError("speed must be >= 0")
    p_w = wheel_power(v, a, p)
    if p_w >= 0.0:
        return p_w / p.eff_chain
    if not p.regen_enabled:
        return 0.0
    return max(p_w * p.eff_chain, -p.regen_power_cap_w)
