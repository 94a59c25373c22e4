"""Rule-based regular-driver simulation tests."""
import numpy as np
import pytest

from ecocorridor.baseline import RegularDriverRules, simulate_regular
from ecocorridor.corridor import Phase, make_corridor, phase_at
from ecocorridor.powertrain import VehicleParams
from ecocorridor.trajectory import check_safety

RULES = RegularDriverRules()


def test_all_green_is_constant_speed():
    # both lights red only long after the vehicle has left the zone
    c = make_corridor(500.0, 500.0, red_s=30.0, green_s=1000.0)
    traj = simulate_regular(c, VehicleParams())
    assert np.allclose(traj.v, c.speed_limit_m_s)
    assert traj.trip_time_s == pytest.approx(c.length_m / c.speed_limit_m_s, rel=0.01)
    assert not traj.emergency_stop


def test_stops_at_red_and_departs_on_green():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    traj = simulate_regular(c, VehicleParams())
    # the second light (x=500) is red on [15, 45); the driver must wait
    assert traj.crossing_time(500.0) >= 45.0
    assert check_safety(traj, c, RULES) == []
    # a full stop happened somewhere before the line
    assert traj.v.min() == pytest.approx(0.0, abs=1e-9)


def test_acceleration_bounds_respected():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    rules = RegularDriverRules()
    traj = simulate_regular(c, VehicleParams(), rules)
    dv = np.diff(traj.v)
    dt = np.diff(traj.t)
    a = dv / dt
    assert a.max() <= rules.accel_max_m_s2 + 1e-6
    assert a.min() >= rules.decel_min_m_s2 - 1e-6


def test_braking_starts_within_sight_distance():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    traj = simulate_regular(c, VehicleParams())
    # at full speed before the stop line comes into 75 m view
    k = int(np.searchsorted(traj.x, 500.0 - 80.0))
    assert traj.v[k] == pytest.approx(c.speed_limit_m_s, abs=1e-6)


def test_never_crosses_on_red():
    for x, y in ((-30.0, 0.0), (0.0, -15.0), (15.0, -30.0)):
        c = make_corridor(x, y, spacing_m=200.0)
        assert check_safety(simulate_regular(c, VehicleParams()), c, RULES) == []


def _pin_index(traj, line):
    """First sample where the vehicle stands pinned at `line`."""
    j = int(np.argmax(traj.x >= line))
    assert traj.x[j] == line and traj.v[j] == 0.0
    assert traj.x[j - 1] < line
    return j


def test_pinned_when_red_starts_before_the_crossing_instant():
    # light 1 turns red at 17.809 s; at the limit the driver reaches it at
    # ~17.90 s, inside the step that starts on green at 17.8 s
    c = make_corridor(19.766, 17.809, spacing_m=340.0, exit_buffer_m=200.0)
    traj = simulate_regular(c, VehicleParams())
    sig = c.signals[1]
    j = _pin_index(traj, c.stop_lines_m[1])
    assert phase_at(sig, traj.t[j - 1]) is Phase.GREEN
    assert traj.emergency_stop
    assert check_safety(traj, c, RULES) == []


def test_not_crossing_when_green_starts_after_the_crossing_instant():
    # light 0 is red until 6.385 s; braking toward it, the driver reaches the
    # line at ~6.37 s, inside a step that starts and ends on different phases
    c = make_corridor(-23.615, 29.946, spacing_m=600.0, exit_buffer_m=200.0)
    traj = simulate_regular(c, VehicleParams())
    sig = c.signals[0]
    j = _pin_index(traj, c.stop_lines_m[0])
    assert phase_at(sig, traj.t[j - 1]) is Phase.RED
    assert phase_at(sig, traj.t[j]) is Phase.GREEN
    assert check_safety(traj, c, RULES) == []


def test_invalid_rules_rejected():
    with pytest.raises(ValueError):
        RegularDriverRules(decel_min_m_s2=1.0)
    with pytest.raises(ValueError):
        RegularDriverRules(accel_max_m_s2=0.0)
