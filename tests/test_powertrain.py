"""Vehicle longitudinal power and arc-energy model tests."""

import pytest

from ecocorridor.battery import BatteryModel
from ecocorridor.costs import Prices, motion_arc_cost
from ecocorridor.powertrain import (
    DRAG_COEFF,
    EFF_CHAIN,
    FRONTAL_AREA_M2,
    REGEN_POWER_CAP_W,
    ROLLING_C1,
    ROLLING_C2,
    VehicleParams,
    power_demand,
    wheel_power,
)


def test_default_parameters():
    p = VehicleParams()
    assert p.mass_kg == 1611.0
    assert FRONTAL_AREA_M2 == 2.22
    assert DRAG_COEFF == 0.23
    assert p.regen_enabled


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        VehicleParams(mass_kg=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(mass_kg=0.0)


def test_cruise_power_at_limit():
    # rolling resistance + drag at 88.5 km/h on flat ground, through the
    # driveline efficiencies: 10.34 kW, computed by hand from the parameters
    p = VehicleParams()
    assert power_demand(24.583, 0.0, p) == pytest.approx(10340.1, abs=1.0)


def test_power_zero_at_standstill():
    assert power_demand(0.0, 0.0, VehicleParams()) == 0.0


def test_wheel_power_components():
    p = VehicleParams()
    v, a = 10.0, 1.0
    inertial = p.mass_kg * a * v
    rolling = (ROLLING_C1 + ROLLING_C2 * v) * p.mass_kg * 9.81 * v
    drag = 0.5 * 1.2 * FRONTAL_AREA_M2 * DRAG_COEFF * v**3
    assert wheel_power(v, a, p) == pytest.approx(inertial + rolling + drag)


def test_regen_cap_and_disable():
    p = VehicleParams()
    braking = power_demand(24.0, -4.0, p)
    assert braking < 0.0
    assert braking >= -REGEN_POWER_CAP_W
    off = VehicleParams(regen_enabled=False)
    assert power_demand(24.0, -4.0, off) == 0.0


def test_regen_less_than_wheel_power():
    # recovered electrical power is the wheel power shrunk by the driveline,
    # here well inside the regen cap
    p = VehicleParams()
    v, a = 10.0, -1.0
    pw = wheel_power(v, a, p)
    assert -REGEN_POWER_CAP_W < pw * EFF_CHAIN < 0.0
    assert power_demand(v, a, p) == pytest.approx(pw * EFF_CHAIN)


def test_segment_duration_and_energy():
    # 100 m cruise at the speed limit: duration 100/24.583, energy P*t
    p = VehicleParams()
    arc = motion_arc_cost(24.583, 24.583, 100.0, p, BatteryModel(), Prices())
    assert arc.duration_s == pytest.approx(100.0 / 24.583)
    assert arc.energy_j == pytest.approx(
        power_demand(24.583, 0.0, p) * arc.duration_s, rel=1e-9
    )
    assert arc.power_w == pytest.approx(arc.energy_j / arc.duration_s)


def test_segment_energy_closed_form_relative():
    # constant-speed arc must match P*L/v to high precision
    p = VehicleParams()
    for v in (5.0, 12.0, 20.0, 24.583):
        arc = motion_arc_cost(v, v, 50.0, p, BatteryModel(), Prices())
        expected = power_demand(v, 0.0, p) * 50.0 / v
        assert abs(arc.energy_j - expected) / expected < 1e-9
