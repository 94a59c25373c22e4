"""Rule-based speed advisory and driver-following tests."""
import numpy as np
import pytest

from ecocorridor.advisory import (
    IDEAL_DRIVER,
    AdvisoryConfig,
    DriverFollowingModel,
    recommend,
    simulate_advised_driver,
)
from ecocorridor.baseline import RegularDriverRules
from ecocorridor.corridor import Phase, make_corridor, phase_at
from ecocorridor.powertrain import VehicleParams
from ecocorridor.trajectory import check_safety

RULES = RegularDriverRules()


def test_green_wave_recommends_limit():
    c = make_corridor(500.0, 500.0, red_s=30.0, green_s=1000.0)
    cfg = AdvisoryConfig()
    adv = recommend(0.0, c.speed_limit_m_s, 0.0, c, cfg)
    assert adv.target_speed_m_s == pytest.approx(c.speed_limit_m_s)


def test_red_ahead_recommends_slowdown():
    # light 1 red on [0, 30): pace the approach to arrive at the onset
    c = make_corridor(0.0, 0.0, spacing_m=400.0)
    cfg = AdvisoryConfig()
    adv = recommend(0.0, c.speed_limit_m_s, 0.0, c, cfg)
    assert cfg.min_cruise_m_s <= adv.target_speed_m_s < c.speed_limit_m_s
    # 100 m to cover in the 30 s wait
    assert adv.target_speed_m_s == pytest.approx(100.0 / 30.0, abs=2.0)


def test_target_never_below_floor():
    c = make_corridor(0.0, -29.0, spacing_m=200.0)
    cfg = AdvisoryConfig()
    adv = recommend(0.0, c.speed_limit_m_s, 0.0, c, cfg)
    assert adv.target_speed_m_s >= cfg.min_cruise_m_s


def test_past_both_lights_recommends_limit():
    c = make_corridor(0.0, 0.0, spacing_m=400.0)
    cfg = AdvisoryConfig()
    adv = recommend(550.0, 10.0, 40.0, c, cfg)
    assert adv.target_speed_m_s == pytest.approx(c.speed_limit_m_s)


def test_vehicle_at_a_stop_line_has_not_passed_it():
    # light 0 is red on [0, 30): a vehicle pinned at its line is before it,
    # as the drivers' stop-line guard holds it
    c = make_corridor(0.0, 15.0, spacing_m=400.0)
    cfg = AdvisoryConfig()
    line = c.stop_lines_m[0]
    for v in (0.0, 3.0):
        assert recommend(line, v, 5.0, c, cfg) == recommend(line - 1e-6, v, 5.0, c, cfg)


def test_advised_driver_never_crosses_red():
    for x, y in ((0.0, 0.0), (-15.0, 15.0), (15.0, -30.0)):
        c = make_corridor(x, y, spacing_m=400.0)
        assert check_safety(simulate_advised_driver(c, VehicleParams()), c, RULES) == []


def _pin_index(traj, line):
    """First sample where the vehicle stands pinned at `line`."""
    j = int(np.argmax(traj.x >= line))
    assert traj.x[j] == line and traj.v[j] == 0.0
    assert traj.x[j - 1] < line
    return j


def test_ideal_driver_pinned_when_red_starts_before_the_crossing_instant():
    # light 0 stands 20 m past the entry and turns red at 0.81 s: at the
    # limit the line is 0.814 s away, and a stop from the limit needs 75 m,
    # so no advice helps; the driver reaches the line inside the step that
    # starts on green
    c = make_corridor(0.81, 8.991, spacing_m=250.0, entry_buffer_m=20.0, exit_buffer_m=200.0)
    traj = simulate_advised_driver(c, VehicleParams(), IDEAL_DRIVER)
    sig = c.signals[0]
    j = _pin_index(traj, c.stop_lines_m[0])
    assert phase_at(sig, traj.t[j - 1]) is Phase.GREEN
    assert traj.emergency_stop
    assert check_safety(traj, c, RULES) == []


def test_ideal_driver_reaches_the_line_before_the_red_onset():
    # light 0 turns red at 5.046 s; the advice paces the approach to
    # ONSET_MARGIN_S before that, so an exact follower crosses on green
    c = make_corridor(5.046, 8.991, spacing_m=250.0, exit_buffer_m=200.0)
    traj = simulate_advised_driver(c, VehicleParams(), IDEAL_DRIVER)
    assert not traj.emergency_stop
    assert check_safety(traj, c, RULES) == []


def test_advised_driver_not_crossing_when_green_starts_after_the_crossing_instant():
    # light 0 is red until 5.783 s; the driver reaches the line inside a step
    # that starts on red and ends on green
    c = make_corridor(-24.217, 24.156, spacing_m=470.0, exit_buffer_m=200.0)
    traj = simulate_advised_driver(c, VehicleParams())
    sig = c.signals[0]
    j = _pin_index(traj, c.stop_lines_m[0])
    assert phase_at(sig, traj.t[j - 1]) is Phase.RED
    assert phase_at(sig, traj.t[j]) is Phase.GREEN
    assert check_safety(traj, c, RULES) == []


def test_advised_acceleration_bounds_include_final_step():
    c = make_corridor(-3.797, -17.125, spacing_m=450.0, exit_buffer_m=200.0)
    rules = RegularDriverRules()
    traj = simulate_advised_driver(c, VehicleParams(), rules=rules)
    assert traj.x[-1] == pytest.approx(c.length_m)
    acc = np.diff(traj.v) / np.diff(traj.t)
    assert acc.max() <= rules.accel_max_m_s2 + 1e-6
    assert acc.min() >= rules.decel_min_m_s2 - 1e-6


def test_advisory_log_populated():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    log = []
    simulate_advised_driver(c, VehicleParams(), log=log)
    assert len(log) > 10
    t0 = log[0][0]
    t1 = log[1][0]
    assert t1 - t0 == pytest.approx(1.0)  # default 1 Hz updates


def test_ideal_driver_tracks_faster_than_sluggish():
    c = make_corridor(0.0, 0.0, spacing_m=400.0)
    ideal = simulate_advised_driver(c, VehicleParams(), IDEAL_DRIVER)
    sluggish = simulate_advised_driver(
        c, VehicleParams(), DriverFollowingModel(speed_tracking_time_constant_s=6.0)
    )
    # both feasible; the ideal driver settles to the advised speed sooner
    ideal.validate()
    sluggish.validate()
    assert ideal.trip_time_s <= sluggish.trip_time_s + 5.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        AdvisoryConfig(update_rate_hz=0.0)
    with pytest.raises(ValueError):
        AdvisoryConfig(min_cruise_m_s=0.0)
    # the cruise floor must sit below the corridor's limit (24.583 m/s)
    c = make_corridor(0.0, 0.0)
    with pytest.raises(ValueError, match="min_cruise_m_s < speed limit"):
        simulate_advised_driver(c, VehicleParams(), cfg=AdvisoryConfig(min_cruise_m_s=30.0))
    with pytest.raises(ValueError, match="min_cruise_m_s < speed limit"):
        recommend(0.0, 10.0, 0.0, c, AdvisoryConfig(min_cruise_m_s=30.0))
    with pytest.raises(ValueError):
        DriverFollowingModel(reaction_delay_s=-1.0)
