"""Tests for scenario runs, sweeps, and report generation."""
from dataclasses import replace

import pytest

from ecocorridor.report import (
    cell_basename,
    render_reports,
    write_decay_comparison_csv,
    write_sweep_csv,
)
from ecocorridor import study
from ecocorridor.baseline import simulate_regular
from ecocorridor.costs import interval_cost
from ecocorridor.dp import DpGridSpec, InfeasibleScenarioError
from ecocorridor.powertrain import VehicleParams
from ecocorridor.study import (
    ScenarioSpec,
    battery_size_study,
    evaluate_trajectory,
    run_scenario,
    sweep,
)


@pytest.fixture(scope="module")
def base_spec():
    # regen off and a long exit buffer: the regular driver then ends near
    # the limit too, so the optimizer genuinely dominates it
    return ScenarioSpec(
        time_to_red_first_s=15.0,
        time_to_red_second_s=15.0,
        spacing_m=400.0,
        exit_buffer_m=200.0,
        vehicle=VehicleParams(regen_enabled=False),
        grid=DpGridSpec(time_buffer_frac=0.03),
    )


@pytest.fixture(scope="module")
def small_sweep(base_spec):
    return sweep(base_spec, timings_s=(0.0, 15.0), spacings_m=(400.0,))


def test_run_scenario_consistency(base_spec):
    res = run_scenario(base_spec)
    assert res.eco_cost.total_usd <= res.regular_cost.total_usd + 1e-9
    expected = 100.0 * (1.0 - res.eco_cost.total_usd / res.regular_cost.total_usd)
    assert res.reduction_pct == pytest.approx(expected)
    res.eco.validate()
    res.regular.validate()


def test_evaluate_trajectory_multiplier_linearity(base_spec):
    res = run_scenario(base_spec)
    vp = base_spec.resolved_vehicle()
    b1 = base_spec.resolved_battery()
    b10 = replace(b1, decay_multiplier=10.0 * b1.decay_multiplier)
    c1 = evaluate_trajectory(res.regular, vp, b1, base_spec.prices)
    c10 = evaluate_trajectory(res.regular, vp, b10, base_spec.prices)
    assert c10.battery_usd == pytest.approx(10.0 * c1.battery_usd, rel=1e-9)
    assert c10.soh_delta == pytest.approx(10.0 * c1.soh_delta, rel=1e-9)
    assert c10.electricity_usd == pytest.approx(c1.electricity_usd, rel=1e-9)


def test_sweep_shape_and_lookup(small_sweep):
    assert len(small_sweep.cells) == 4  # 2x2 timing pairs, one spacing
    cell = small_sweep.cell(15.0, 0.0, 400.0)
    assert cell.timing == (15.0, 0.0)
    assert cell.result is not None
    with pytest.raises(KeyError):
        small_sweep.cell(99.0, 0.0, 400.0)


def test_sweep_job_count_does_not_change_csv(base_spec, small_sweep, tmp_path):
    parallel = sweep(
        base_spec, timings_s=(0.0, 15.0), spacings_m=(400.0,), jobs=2
    )
    p1 = write_sweep_csv(small_sweep, tmp_path / "serial.csv")
    p2 = write_sweep_csv(parallel, tmp_path / "parallel.csv")
    assert p1.read_bytes() == p2.read_bytes()
    # two spacings: the pool takes the longer corridors first, out of spec
    # order, and the cells must still come back in spec order
    grid = dict(timings_s=(0.0, 15.0), spacings_m=(200.0, 400.0))
    serial, parallel = sweep(base_spec, **grid), sweep(base_spec, **grid, jobs=2)
    specs = study.sweep_specs(base_spec, **grid)
    assert [(c.timing, c.spacing_m) for c in parallel.cells] == [
        ((s.time_to_red_first_s, s.time_to_red_second_s), s.spacing_m) for s in specs]
    p1 = write_sweep_csv(serial, tmp_path / "serial_2x2.csv")
    p2 = write_sweep_csv(parallel, tmp_path / "parallel_2x2.csv")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("timings, jobs, workers", [
    ((0.0, 15.0), 500, [4]),  # four cells
    ((0.0, 15.0), 3, [3]),
    ((15.0,), 500, []),  # one cell runs in this process
])
def test_sweep_starts_at_most_one_worker_per_cell(base_spec, monkeypatch, timings, jobs, workers):
    import multiprocessing

    sizes = []

    class SerialPool:
        """Stand-in for ``multiprocessing.Pool`` that records its process
        count and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(study, "_run_cell", lambda spec: study.SweepCell(
        (spec.time_to_red_first_s, spec.time_to_red_second_s), spec.spacing_m, None, "stub"))
    res = sweep(base_spec, timings_s=timings, spacings_m=(400.0,), jobs=jobs)
    assert sizes == workers
    specs = study.sweep_specs(base_spec, timings, (400.0,))
    assert [(c.timing, c.spacing_m) for c in res.cells] == [
        ((s.time_to_red_first_s, s.time_to_red_second_s), s.spacing_m) for s in specs]


def test_cell_basename():
    assert cell_basename((-30.0, 15.0), 800.0) == "timing_-30_15_s800"


def test_write_sweep_csv_contents(small_sweep, tmp_path):
    path = write_sweep_csv(small_sweep, tmp_path / "sweep.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(small_sweep.cells)
    header = lines[0].split(",")
    assert header[:3] == ["time_to_red_first_s", "time_to_red_second_s", "spacing_m"]


def test_render_reports_files(small_sweep, tmp_path):
    paths = render_reports(small_sweep, tmp_path / "out")
    assert all(p.exists() for p in paths)
    assert (tmp_path / "out" / "table2.csv").exists()
    # one svg plus two trajectory csvs per solved cell
    names = sorted(p.name for p in paths)
    assert "timing_0_0_s400_eco.csv" in names
    assert "timing_0_0_s400.svg" in names


def test_battery_size_study_small(base_spec, tmp_path):
    res = battery_size_study(
        base_spec, timings_s=(15.0,), spacings_m=(400.0,)
    )
    assert len(res.cells) == 1
    cell = res.cells[0]
    assert not cell.error
    # the larger pack always decays less on the same drive
    assert cell.regular_reduction_pct > 0.0
    assert cell.eco_reduction_pct > 0.0
    assert res.average("regular") == pytest.approx(cell.regular_reduction_pct)
    # the two pack sweeps the cells compare are kept on the result
    small, large = res.small.cells[0].result, res.large.cells[0].result
    assert small.spec.variant == "standard" and large.spec.variant == "long_range"
    assert small.spec.battery.decay_multiplier == large.spec.battery.decay_multiplier == 10.0
    sa, sb = abs(small.regular_cost.soh_delta), abs(large.regular_cost.soh_delta)
    assert cell.regular_reduction_pct == 100.0 * (sa - sb) / sa
    path = write_decay_comparison_csv(res, tmp_path / "decay.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_evaluate_trajectory_prices_each_step(base_spec):
    spec = replace(base_spec, time_to_red_second_s=0.0, spacing_m=200.0)
    vp, bat = spec.resolved_vehicle(), spec.resolved_battery()
    traj = simulate_regular(spec.corridor(), vp, spec.rules)
    cost = evaluate_trajectory(traj, vp, bat, spec.prices)
    elec = decay = energy = soh = 0.0
    for k in range(len(traj) - 1):
        arc = interval_cost(float(traj.v[k]), float(traj.v[k + 1]),
                            float(traj.t[k + 1] - traj.t[k]), vp, bat, spec.prices)
        assert traj.p_batt[k] == arc.power_w
        elec += arc.electricity_usd
        decay += arc.decay_usd
        energy += arc.energy_j
        soh += arc.soh_delta
    assert (cost.electricity_usd, cost.battery_usd, cost.soh_delta) == (elec, decay, soh)
    assert traj.energy_cum[-1] == energy
    # pricing again rewrites the same columns and the same sums
    assert evaluate_trajectory(traj, vp, bat, spec.prices) == cost


def test_run_scenario_prices_the_regular_trip_with_evaluate_trajectory(base_spec):
    spec = replace(base_spec, time_to_red_second_s=0.0, spacing_m=200.0)
    res = run_scenario(spec)
    vp, bat = spec.resolved_vehicle(), spec.resolved_battery()
    assert res.regular_cost == evaluate_trajectory(res.regular, vp, bat, spec.prices)


def test_sweep_records_infeasible_cells_and_raises_on_crashes(base_spec, monkeypatch):
    def infeasible(spec):
        raise InfeasibleScenarioError("no feasible eco trajectory: test", binding="test")

    monkeypatch.setattr(study, "run_scenario", infeasible)
    res = sweep(base_spec, timings_s=(15.0,), spacings_m=(400.0,))
    assert res.cells[0].result is None
    assert res.cells[0].error == "no feasible eco trajectory: test"

    def crash(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(study, "run_scenario", crash)
    with pytest.raises(RuntimeError, match="boom"):
        sweep(base_spec, timings_s=(15.0,), spacings_m=(400.0,))
