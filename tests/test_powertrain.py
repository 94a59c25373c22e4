"""Vehicle longitudinal power and segment-energy model tests."""

import pytest

from ecocorridor.powertrain import (
    KinematicSegment,
    VehicleParams,
    power_demand,
    segment_acceleration,
    segment_energy,
    wheel_power,
)


def test_default_parameters():
    p = VehicleParams()
    assert p.mass_kg == 1611.0
    assert p.frontal_area_m2 == 2.22
    assert p.drag_coeff == 0.23
    assert p.regen_enabled


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        VehicleParams(mass_kg=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(eff_motor=0.0)
    with pytest.raises(ValueError):
        VehicleParams(eff_motor=1.5)


def test_cruise_power_at_limit():
    # rolling resistance + drag at 88.5 km/h on flat ground, through the
    # driveline efficiencies: 10.34 kW, computed by hand from the parameters
    p = VehicleParams()
    assert power_demand(24.583, 0.0, 0.0, p) == pytest.approx(10340.1, abs=1.0)


def test_power_zero_at_standstill():
    assert power_demand(0.0, 0.0, 0.0, VehicleParams()) == 0.0


def test_wheel_power_components():
    p = VehicleParams()
    v, a = 10.0, 1.0
    inertial = p.mass_kg * a * v
    rolling = (p.rolling_c1 + p.rolling_c2 * v) * p.mass_kg * 9.81 * v
    drag = 0.5 * 1.2 * p.frontal_area_m2 * p.drag_coeff * v**3
    assert wheel_power(v, a, 0.0, p) == pytest.approx(inertial + rolling + drag)


def test_grade_increases_power():
    p = VehicleParams()
    flat = power_demand(15.0, 0.0, 0.0, p)
    uphill = power_demand(15.0, 0.0, 0.03, p)
    downhill = power_demand(15.0, 0.0, -0.03, p)
    assert uphill > flat > downhill


def test_regen_cap_and_disable():
    p = VehicleParams()
    braking = power_demand(24.0, -4.0, 0.0, p)
    assert braking < 0.0
    assert braking >= -p.regen_power_cap_w
    off = VehicleParams(regen_enabled=False)
    assert power_demand(24.0, -4.0, 0.0, off) == 0.0


def test_regen_less_than_wheel_power():
    # recovered electrical power is the wheel power shrunk by the driveline
    p = VehicleParams(regen_power_cap_w=1e12)
    v, a = 10.0, -1.0
    pw = wheel_power(v, a, 0.0, p)
    assert pw < 0.0
    assert power_demand(v, a, 0.0, p) == pytest.approx(pw * p.eff_chain)


def test_segment_duration_and_energy():
    # 100 m cruise at the speed limit: duration 100/24.583, energy P*t
    p = VehicleParams()
    seg = KinematicSegment(24.583, 24.583, 100.0)
    duration, energy, mean_power = segment_energy(seg, p)
    assert duration == pytest.approx(100.0 / 24.583)
    assert energy == pytest.approx(power_demand(24.583, 0.0, 0.0, p) * duration, rel=1e-9)
    assert mean_power == pytest.approx(energy / duration)


def test_segment_energy_closed_form_relative():
    # constant-speed arc must match P*L/v to high precision
    p = VehicleParams()
    for v in (5.0, 12.0, 20.0, 24.583):
        seg = KinematicSegment(v, v, 50.0)
        duration, energy, _ = segment_energy(seg, p)
        expected = power_demand(v, 0.0, 0.0, p) * 50.0 / v
        assert abs(energy - expected) / expected < 1e-9


def test_segment_acceleration_sign():
    assert segment_acceleration(10.0, 14.0, 48.0) == pytest.approx(1.0)
    assert segment_acceleration(14.0, 10.0, 48.0) == pytest.approx(-1.0)


def test_zero_duration_segment_rejected():
    from ecocorridor.powertrain import ZeroDurationSegmentError

    with pytest.raises(ZeroDurationSegmentError):
        segment_energy(KinematicSegment(0.0, 0.0, 10.0), VehicleParams())
