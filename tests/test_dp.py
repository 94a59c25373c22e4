"""Optimizer tests: feasibility, determinism and enumeration agreement."""
import numpy as np
import pytest

from ecocorridor.baseline import simulate_regular
from ecocorridor.battery import BatteryModel
from ecocorridor.corridor import Phase, make_corridor, phase_at
from ecocorridor.dp import DpGridSpec, InfeasibleScenarioError, optimize, time_budget
from ecocorridor.oracle import run_oracle_suite
from ecocorridor.powertrain import VehicleParams


@pytest.fixture(scope="module")
def solved():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    return c, optimize(c, VehicleParams(), BatteryModel())


def test_boundary_speeds(solved):
    _, res = solved
    traj = res.trajectory
    limit = 24.583
    assert traj.v[0] == pytest.approx(limit)
    assert traj.v[-1] == pytest.approx(limit)
    assert traj.x[0] == 0.0
    assert traj.x[-1] == pytest.approx(600.0)


def test_arrival_within_budget(solved):
    _, res = solved
    g = DpGridSpec()
    allowance = g.signal_margin_s + 0.5 * g.time_step_s
    assert res.arrival_time_s <= res.budget_s + allowance
    assert res.trajectory.trip_time_s <= res.budget_s + allowance


def test_crossings_on_green(solved):
    c, res = solved
    for sig in c.signals:
        t_cross = res.trajectory.crossing_time(sig.stop_line_m)
        assert phase_at(sig, t_cross) is Phase.GREEN


def test_trajectory_validates(solved):
    _, res = solved
    res.trajectory.validate()
    assert res.trajectory.time_quantization_s > 0.0


def test_speed_limit_respected(solved):
    _, res = solved
    assert res.trajectory.v.max() <= 24.583 + 1e-9


def test_breakdown_matches_value(solved):
    _, res = solved
    assert res.breakdown.total_usd == pytest.approx(res.value, rel=1e-9)
    assert res.breakdown.electricity_usd > 0.0
    assert res.breakdown.battery_usd > 0.0


def test_deterministic():
    c = make_corridor(0.0, -15.0, spacing_m=400.0)
    a = optimize(c, VehicleParams(), BatteryModel())
    b = optimize(c, VehicleParams(), BatteryModel())
    assert a.value == b.value
    assert np.array_equal(a.trajectory.t, b.trajectory.t)
    assert np.array_equal(a.trajectory.v, b.trajectory.v)


def test_impossible_budget_raises():
    c = make_corridor(15.0, 15.0)
    with pytest.raises(InfeasibleScenarioError):
        optimize(c, VehicleParams(), BatteryModel(), budget_s=10.0)


def test_budget_modes():
    c = make_corridor(500.0, 500.0, red_s=30.0, green_s=1000.0)
    exact = time_budget(simulate_regular(c, VehicleParams()).trip_time_s, DpGridSpec())
    buffered = time_budget(
        simulate_regular(c, VehicleParams()).trip_time_s, DpGridSpec(time_budget_mode="buffered")
    )
    assert buffered == pytest.approx(1.03 * exact)


def test_grid_validation():
    with pytest.raises(ValueError):
        DpGridSpec(time_step_s=0.0)
    with pytest.raises(ValueError):
        DpGridSpec(boundary_time_step_s=0.5, time_step_s=0.25)
    with pytest.raises(ValueError):
        DpGridSpec(time_buffer_frac=0.5)


def test_matches_enumeration_on_tiny_instances():
    report = run_oracle_suite(cases=12, seed=7)
    assert report.cases == 12
    assert report.failures == 0
    assert report.paths_total > 0
