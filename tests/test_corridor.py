"""Signal schedule and control-zone geometry tests."""
import numpy as np
import pytest

from ecocorridor.corridor import (
    Corridor,
    Phase,
    SignalSchedule,
    crossing_allowed,
    green_at,
    lights_ahead,
    make_corridor,
    next_green_onset,
    next_red_onset,
    phase_at,
)


def test_phase_boundaries():
    sig = SignalSchedule(time_to_red_s=15.0, red_s=30.0, green_s=30.0)
    # red on [15, 45), green at the onset instant 45
    assert phase_at(sig, 14.999) is Phase.GREEN
    assert phase_at(sig, 15.0) is Phase.RED
    assert phase_at(sig, 44.999) is Phase.RED
    assert phase_at(sig, 45.0) is Phase.GREEN
    # periodic: next red on [75, 105)
    assert phase_at(sig, 75.0) is Phase.RED
    assert phase_at(sig, 105.0) is Phase.GREEN


def test_array_rule_is_phase_at():
    sig = SignalSchedule(time_to_red_s=15.0, red_s=30.0, green_s=30.0)
    period = sig.period_s

    def around(t):
        return [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]

    # a red onset, a green onset, and the snap: an offset within 1e-9 s of a
    # full period, one ulp or 1e-10 s before a red onset, is the onset
    times = around(15.0) + around(45.0) + around(-45.0) + [15.0 + period - 1e-10]
    expected = [False, False, False, False, True, True, False, False, False, False]
    assert [phase_at(sig, t) is Phase.GREEN for t in times] == expected
    assert green_at(sig, np.array(times)).tolist() == expected
    # and on times that are not round, against a start that is not either
    rng = np.random.default_rng(0)
    for ttr in (15.000000000000002, -7.3, 0.1 + 0.2):
        sig = SignalSchedule(time_to_red_s=ttr, red_s=30.0, green_s=25.0)
        t = np.concatenate([rng.uniform(-200.0, 200.0, 500), np.arange(-400, 401) * 0.05])
        assert green_at(sig, t).tolist() == [phase_at(sig, x) is Phase.GREEN for x in t]


def test_phase_extends_to_negative_times():
    sig = SignalSchedule(time_to_red_s=-15.0, red_s=30.0, green_s=30.0)
    # red began 15 s before entry and runs until t=15
    assert phase_at(sig, 0.0) is Phase.RED
    assert phase_at(sig, 14.999) is Phase.RED
    assert phase_at(sig, 15.0) is Phase.GREEN
    # one period earlier the light was also red
    assert phase_at(sig, -60.0) is Phase.RED


def test_next_onsets():
    sig = SignalSchedule(time_to_red_s=15.0, red_s=30.0, green_s=30.0)
    assert next_green_onset(sig, 20.0) == pytest.approx(45.0)
    assert next_green_onset(sig, 50.0) == 50.0  # already green
    assert next_red_onset(sig, 50.0) == pytest.approx(75.0)
    assert next_red_onset(sig, 20.0) == 20.0  # already red


def test_make_corridor_geometry():
    c = make_corridor(15.0, -15.0, spacing_m=600.0, exit_buffer_m=200.0)
    assert c.length_m == pytest.approx(900.0)
    assert c.stop_lines_m == (100.0, 700.0)
    assert c.signals[0].time_to_red_s == 15.0
    assert c.signals[1].time_to_red_s == -15.0


def test_crossing_allowed():
    c = make_corridor(15.0, 15.0)
    assert crossing_allowed(c, 0, 10.0)
    assert not crossing_allowed(c, 0, 15.0)
    assert crossing_allowed(c, 1, 45.0)


def test_lights_ahead_keep_a_vehicle_at_the_line():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    assert lights_ahead(c, 0.0) == [(0, 100.0), (1, 500.0)]
    assert lights_ahead(c, 100.0) == [(0, 100.0), (1, 500.0)]
    assert lights_ahead(c, 100.0 + 1e-6) == [(1, 500.0)]
    assert lights_ahead(c, 500.0) == [(1, 500.0)]
    assert lights_ahead(c, 500.0 + 1e-6) == []


def test_invalid_geometry_rejected():
    sig = SignalSchedule(time_to_red_s=0.0, red_s=30.0, green_s=30.0)
    with pytest.raises(ValueError, match="speed limit"):
        Corridor(signals=(sig, sig), entry_buffer_m=100.0, light_spacing_m=400.0,
                 exit_buffer_m=100.0, speed_limit_m_s=0.0)
    with pytest.raises(ValueError):
        SignalSchedule(time_to_red_s=0.0, red_s=0.0, green_s=30.0)
