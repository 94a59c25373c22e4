"""Battery capacity-decay model tests."""

import pytest

from ecocorridor.battery import (
    BatteryModel,
    CoefficientTableError,
    DecayCoefficientRow,
    c_rate,
    current,
    decay_cost_rate,
    default_coefficient_table,
    lifetime_ah_throughput,
    load_coefficient_table,
    soh_decay_rate,
)


def test_c_rate_and_current():
    b = BatteryModel()
    assert c_rate(54000.0, b) == pytest.approx(1.0)
    assert c_rate(-27000.0, b) == pytest.approx(0.5)
    assert current(35000.0) == pytest.approx(100.0)


def test_throughput_power_law_ratio():
    # halving the end-of-life capacity loss scales lifetime throughput by
    # (1/2)^(1/z); equivalently doubling the loss scales it by 2^(1/0.55)
    b1 = BatteryModel(eol_capacity_loss=0.10)
    b2 = BatteryModel(eol_capacity_loss=0.20)
    ratio = lifetime_ah_throughput(1.0, b2) / lifetime_ah_throughput(1.0, b1)
    assert abs(ratio - 2.0 ** (1.0 / 0.55)) < 1e-9
    assert ratio == pytest.approx(3.527, abs=2e-3)


def test_throughput_collapses_at_high_c_rate():
    # the fitted coefficients are non-monotone at moderate rates but fall
    # off sharply once the draw exceeds roughly 2C
    b = BatteryModel()
    assert lifetime_ah_throughput(2.5, b) < 0.2 * lifetime_ah_throughput(2.0, b)
    assert lifetime_ah_throughput(10.0, b) < lifetime_ah_throughput(2.5, b)


def test_coefficients_clamped_outside_table():
    b = BatteryModel()
    assert lifetime_ah_throughput(0.1, b) == lifetime_ah_throughput(0.5, b)
    assert lifetime_ah_throughput(50.0, b) == lifetime_ah_throughput(10.0, b)


def test_soh_decay_sign_and_symmetry():
    b = BatteryModel()
    discharging = soh_decay_rate(30e3, b)
    charging = soh_decay_rate(-30e3, b)
    assert discharging < 0.0
    assert charging == discharging  # wear depends on |current| only
    assert soh_decay_rate(0.0, b) == 0.0


def test_decay_scales_linearly_in_multiplier():
    b1 = BatteryModel(decay_multiplier=1.0)
    b10 = BatteryModel(decay_multiplier=10.0)
    for p in (5e3, 20e3, 60e3):
        assert soh_decay_rate(p, b10) == pytest.approx(10.0 * soh_decay_rate(p, b1), rel=1e-12)


def test_decay_cost_full_pack_value():
    # wearing the whole pack costs capacity * pack price
    b = BatteryModel()
    rate = decay_cost_rate(soh_decay_rate(30e3, b), b)
    assert rate == pytest.approx(
        b.pack_price_per_kwh * b.capacity_kwh * abs(soh_decay_rate(30e3, b))
    )
    assert b.pack_price_per_kwh * b.capacity_kwh == pytest.approx(6750.0)


def test_larger_pack_wears_slower_per_trip():
    # same power draw is a lower C-rate for a bigger pack
    small = BatteryModel(capacity_kwh=54.0)
    large = BatteryModel(capacity_kwh=75.0)
    for p in (5e3, 40e3, 60e3, 80e3):
        assert abs(soh_decay_rate(p, large)) < abs(soh_decay_rate(p, small))
    # throughput scales with the number of parallel cell strings
    ratio = lifetime_ah_throughput(1.0, large) / lifetime_ah_throughput(1.0, small)
    assert ratio > 1.0


def test_default_table_loaded():
    table = default_coefficient_table()
    assert table[0].c_rate == 0.5
    assert table[-1].c_rate == 10.0
    assert [row.c_rate for row in table] == sorted(row.c_rate for row in table)
    assert all(isinstance(row, DecayCoefficientRow) for row in table)


def test_load_rejects_bad_table(tmp_path):
    bad = tmp_path / "coeffs.csv"
    bad.write_text("c_rate,M,Ea_J_per_mol\n2,-100,30000\n")
    with pytest.raises(CoefficientTableError):
        load_coefficient_table(bad)  # non-positive M

    bad.write_text("wrong,header\n1,2\n")
    with pytest.raises(CoefficientTableError):
        load_coefficient_table(bad)


def test_invalid_model_params():
    with pytest.raises(ValueError):
        BatteryModel(capacity_kwh=0.0)
    with pytest.raises(ValueError):
        BatteryModel(eol_capacity_loss=0.0)
    with pytest.raises(ValueError):
        BatteryModel(decay_multiplier=-1.0)
