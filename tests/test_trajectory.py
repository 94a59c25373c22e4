"""Trajectory container, validation and safety-check tests."""
import ast
from pathlib import Path

import numpy as np
import pytest

from ecocorridor.baseline import RegularDriverRules
from ecocorridor.corridor import make_corridor
from ecocorridor.dp import DpGridSpec
from ecocorridor.trajectory import (
    CSV_HEADER,
    TrajectoryValidationError,
    audit_arc_clock,
    check_safety,
    from_samples,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecocorridor"
RULES, GRID = RegularDriverRules(), DpGridSpec()
# both lights green from entry until 500 s; stop lines at 100 m and 300 m
GREEN = make_corridor(500.0, 500.0, spacing_m=200.0, green_s=1000.0)


def _uniform(v=10.0, n=5, dt=1.0):
    t = np.arange(n) * dt
    return from_samples(t, v * t, np.full(n, v))


def test_valid_trajectory_passes():
    _uniform().validate()


def test_time_must_increase():
    traj = from_samples([0.0, 1.0, 1.0], [0.0, 10.0, 20.0], [10.0, 10.0, 10.0])
    with pytest.raises(TrajectoryValidationError):
        traj.validate()


def test_negative_speed_rejected():
    traj = from_samples([0.0, 1.0], [0.0, 5.0], [10.0, -1.0])
    with pytest.raises(TrajectoryValidationError):
        traj.validate()


def test_position_decrease_rejected():
    traj = from_samples([0.0, 1.0], [10.0, 0.0], [5.0, 5.0])
    with pytest.raises(TrajectoryValidationError):
        traj.validate()


def test_distance_speed_consistency():
    # says 10 m/s but covers 20 m in 1 s
    traj = from_samples([0.0, 1.0], [0.0, 20.0], [10.0, 10.0])
    with pytest.raises(TrajectoryValidationError):
        traj.validate()


def test_quantized_clock_widens_tolerance():
    # 16.5 m/s over 10 m takes 0.606 s; a 0.25 s clock may book it at 0.5 s
    t = [0.0, 0.5, 1.0]
    x = [0.0, 10.0, 20.0]
    v = [16.5, 16.5, 16.5]
    strict = from_samples(t, x, v)
    with pytest.raises(TrajectoryValidationError):
        strict.validate()
    binned = from_samples(t, x, v, time_quantization_s=0.25)
    binned.validate()


def test_crossing_time_interpolates():
    traj = _uniform(v=10.0)
    assert traj.crossing_time(25.0) == pytest.approx(2.5)
    assert traj.crossing_time(0.0) == pytest.approx(0.0)
    assert traj.crossing_time(1e9) is None


def test_trip_time():
    assert _uniform(n=5, dt=2.0).trip_time_s == pytest.approx(8.0)


def test_csv_round_trip(tmp_path):
    traj = _uniform()
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].split(",") == CSV_HEADER
    assert len(rows) == len(traj) + 1
    first = [float(s) for s in rows[1].split(",")]
    assert first[0] == pytest.approx(traj.t[0])
    assert first[2] == pytest.approx(traj.v[0])


def _driven(t, v, **kwargs):
    """Constant acceleration between the (t, v) breakpoints, from x = 0."""
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    x = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))))
    return from_samples(t, x, v, **kwargs)


LIMIT = GREEN.speed_limit_m_s
# one trajectory per safety rule, breaking that rule alone: (trajectory,
# corridor, bounds, budget, the one failure expected)
UNSAFE = {
    # light 0 is red until 5.1 s; a 0.2 s crossing slack used to accept this
    "red 0.1 s before green": (
        _driven([0, 20], [20, 20], time_quantization_s=0.25),
        make_corridor(-24.9, 500.0, spacing_m=200.0, green_s=1000.0), GRID, None,
        "crosses light 0 on red at t=5.000 s"),
    "1e-6 over the limit": (
        _driven([0, 20], [LIMIT + 1e-6] * 2), GREEN, RULES, None,
        f"speed {LIMIT + 1e-6:.9f} m/s over the limit {LIMIT} m/s"),
    "accelerating too hard": (
        _driven([0, 1, 20], [15, 17.5, 17.5]), GREEN, RULES, None,
        "accelerates harder than 2.0 m/s^2"),
    "braking too hard short of standstill": (
        _driven([0, 1, 30], [20, 12, 12]), GREEN, RULES, None,
        "brakes harder than -4.0 m/s^2"),
    # allowed: budget + signal margin + half a tick = 19.8 s
    "plan 0.2 s over budget": (
        _driven([0, 20], [20, 20], time_quantization_s=0.25), GREEN, GRID, 19.425,
        "trip 20.000 s over budget (19.800 s allowed)"),
    "line never crossed": (
        _driven([0, 12.5], [20, 20]), GREEN, RULES, None, "never crosses stop line 1"),
}


@pytest.mark.parametrize("traj, c, bounds, budget_s, failure", UNSAFE.values(), ids=UNSAFE)
def test_check_safety_names_the_one_broken_rule(traj, c, bounds, budget_s, failure):
    assert check_safety(traj, c, bounds, budget_s) == [failure]


def test_check_safety_passes_a_safe_trajectory():
    assert check_safety(_driven([0, 20], [20, 20]), GREEN, RULES) == []
    # exactly on budget + margin + half a tick
    plan = _driven([0, 20], [20, 20], time_quantization_s=0.25)
    assert check_safety(plan, GREEN, GRID, budget_s=19.625) == []
    # the braking that fails short of standstill is allowed down to one
    stop = _driven([0, 4, 5, 7, 17, 30], [8, 8, 0, 0, 20, 20])
    assert check_safety(stop, GREEN, RULES) == []
    # a plan arc at exactly the bound, (20.5^2 - 19.5^2) / 20 m = 2 m/s^2,
    # though its binned 0.375 s gives dv / dt = 2.67 m/s^2
    plan = from_samples([0.0, 0.375, 19.375], [0.0, 10.0, 399.5], [19.5, 20.5, 20.5],
                        time_quantization_s=0.25)
    assert check_safety(plan, GREEN, GRID) == []


def test_only_the_safety_check_reads_the_lights_at_a_crossing():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "crossing_allowed":
                callers.add(path.name)
    assert callers == {"trajectory.py"}


def test_arc_clock_audit_replays_arc_durations():
    # 10 m braking from 8 m/s to a stop takes 2.5 s but is stamped 2.25 s;
    # the wait keeps its binned 0.25 s; 10 m from a stop to 4 m/s takes 5 s.
    # Light 1, where the plan waits, turns red at 2.6 s: after the binned
    # departure and before the arc-clock one
    plan = from_samples([0.0, 2.25, 2.5, 7.5], [0.0, 10.0, 10.0, 20.0], [8.0, 0.0, 0.0, 4.0],
                        time_quantization_s=0.25)
    c = make_corridor(500.0, 2.6, spacing_m=5.0, entry_buffer_m=5.0, exit_buffer_m=10.0,
                      green_s=1000.0)
    assert check_safety(plan, c, GRID, budget_s=7.25) == []
    audit = audit_arc_clock(plan, c, GRID, budget_s=7.25)
    assert audit.replay.t.tolist() == [0.0, 2.5, 2.75, 7.75]
    assert audit.replay.time_quantization_s == 0.0
    assert (audit.drift_s, audit.late_s) == (0.25, 0.25)
    assert audit.violations == ["crosses light 1 on red at t=2.750 s",
                                "trip 7.750 s over budget (7.500 s allowed)"]
