"""Longitudinal EV power model: road load and battery-side power demand."""
from __future__ import annotations

from dataclasses import dataclass

# Road-load and efficiency-chain coefficients of the simulated EV. No study
# varies them, so they are constants; the mass belongs to the vehicle variant.
ROLLING_C1 = 0.0065
ROLLING_C2 = 4.92e-5  # s/m
FRONTAL_AREA_M2 = 2.22
DRAG_COEFF = 0.23
AIR_DENSITY_KG_M3 = 1.2
GRAVITY_M_S2 = 9.81
# transmission x motor x inverter efficiency
EFF_CHAIN = 0.8536 * 0.90 * 0.95
REGEN_POWER_CAP_W = 60e3


@dataclass(frozen=True)
class VehicleParams:
    """The settings of the simulated EV that a study varies."""

    mass_kg: float = 1611.0
    regen_enabled: bool = True

    def __post_init__(self) -> None:
        if self.mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")


def wheel_power(v: float, a: float, p: VehicleParams) -> float:
    """Tractive power at the wheels on a flat road (signed, W)."""
    m, g = p.mass_kg, GRAVITY_M_S2
    force = (
        m * a
        + (ROLLING_C1 + ROLLING_C2 * v) * m * g
        + 0.5 * AIR_DENSITY_KG_M3 * FRONTAL_AREA_M2 * DRAG_COEFF * v * v
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
        return p_w / EFF_CHAIN
    if not p.regen_enabled:
        return 0.0
    return max(p_w * EFF_CHAIN, -REGEN_POWER_CAP_W)
