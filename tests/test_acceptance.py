"""End-to-end acceptance suite.

Each test prints a single ``[criterion N] ... PASS/FAIL`` line.  The heavy
parametric sweeps are computed once per session and shared across tests.
"""
import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecocorridor.advisory import IDEAL_DRIVER, simulate_advised_driver
from ecocorridor.battery import lifetime_ah_throughput, soh_decay_rate
from ecocorridor.baseline import simulate_regular
from ecocorridor.config import load_config
from ecocorridor.costs import J_PER_KWH
from ecocorridor.dp import InfeasibleScenarioError
from ecocorridor.oracle import run_oracle_suite
from ecocorridor.powertrain import power_demand
from ecocorridor.report import render_reports, write_sweep_csv
from ecocorridor.study import (
    SweepResult,
    battery_size_study,
    evaluate_trajectory,
    run_advisory_scenario,
    run_scenario,
    sweep,
)
from ecocorridor.trajectory import audit_arc_clock, check_safety, from_samples

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# sha256 of the paper sweep's table2.csv, as `ecocorridor sweep --config
# configs/paper_sweep.json` writes it. A refactor must leave it as it is. A
# change that moves the paper's numbers on purpose, as ROADMAP item 1 (eco
# plans on a physical clock) will, updates it and says so.
PAPER_TABLE2_SHA256 = "53b089666aafd47138046064b1eb8def7d6707d7a688ed302266bdf6ccb30993"
# sha256 of the files `report.render_reports` writes for the paper cell
# [15 15]/800, pinned as the table is: the trajectory CSVs and the plot.
PAPER_CELL_SHA256 = {
    "trajectories/timing_15_15_s800_eco.csv":
        "c4937db3f9f608724bc0742fbe63ed02ca2b54aae7f5566f694a9ae9be266159",
    "trajectories/timing_15_15_s800_regular.csv":
        "cf4cbd9c42e078e22d3c09f6eb5daf1c323de742a2b0b69bcb9ce3982067a1f7",
    "plots/timing_15_15_s800.svg":
        "3680b298d3477e56844ec719351dfcc128a4baa87cb0ad2952aedf381a985d4e",
}


def _report(num: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    extra = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{extra}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


@pytest.fixture(scope="session")
def paper_cfg():
    return load_config(CONFIG_DIR / "paper_sweep.json")


@pytest.fixture(scope="session")
def main_sweep(paper_cfg):
    t0 = time.monotonic()
    res = sweep(paper_cfg.base, paper_cfg.timings_s, paper_cfg.spacings_m)
    res.elapsed_s = time.monotonic() - t0
    return res


@pytest.fixture(scope="session")
def pack_sweeps(paper_cfg):
    """Standard and long-range pack sweeps at the high decay rate."""
    study = battery_size_study(paper_cfg.base, paper_cfg.timings_s, paper_cfg.spacings_m)
    return {"standard": study.small, "long_range": study.large}


def _reduction(res, x, y, s) -> float:
    cell = res.cell(x, y, s)
    assert cell.result is not None, f"cell ({x},{y},{s}) failed: {cell.error}"
    return cell.result.reduction_pct


def test_criterion_1_oracle_optimality():
    t0 = time.monotonic()
    report = run_oracle_suite(cases=50, seed=0)
    elapsed = time.monotonic() - t0
    failures = []
    if report.failures:
        failures.append(f"{report.failures} of {report.cases} cases disagree")
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f} s (> 60 s)")
    _report(1, "optimizer matches enumeration",
            failures, f"{report.cases} cases, {elapsed:.1f} s")


def test_criterion_2_dominance(main_sweep):
    failures = []
    for cell in main_sweep.cells:
        if cell.result is None:
            failures.append(f"cell {cell.timing}/{cell.spacing_m}: {cell.error}")
            continue
        eco = cell.result.eco_cost.total_usd
        reg = cell.result.regular_cost.total_usd
        if eco > reg * 1.01:
            failures.append(
                f"cell {cell.timing}/{cell.spacing_m}: eco {eco:.5f} > "
                f"regular {reg:.5f} + 1%"
            )
    avg = main_sweep.grand_average_reduction_pct
    if not 15.0 <= avg <= 31.0:
        failures.append(f"grand average {avg:.1f}% outside 23 +/- 8")
    if main_sweep.elapsed_s > 300.0:
        failures.append(f"sweep took {main_sweep.elapsed_s:.0f} s (> 300 s)")
    _report(2, "eco dominates regular, average ~23%",
            failures, f"avg {avg:.1f}%, {main_sweep.elapsed_s:.0f} s")


def test_criterion_3_reduction_pattern(main_sweep):
    failures = []
    quoted = [
        ((15.0, 15.0), 800.0, 41.6, 10.0),
        ((-15.0, -15.0), 600.0, 47.7, 10.0),
        ((-15.0, 15.0), 800.0, 10.8, 10.0),
        ((-30.0, -30.0), 200.0, 0.0, 2.0),
    ]
    for (x, y), s, want, tol in quoted:
        got = _reduction(main_sweep, x, y, s)
        if abs(got - want) > tol:
            failures.append(f"[{x:g} {y:g}]/{s:g}: {got:.1f}% vs {want} +/- {tol}")
    # the -30 and 15 first-light timings are one full cycle apart, so their
    # rows must agree cell by cell (second light 15 s offsets excluded: the
    # published matrix itself differs there)
    for y in (-30.0, -15.0, 0.0):
        for s in main_sweep.spacings:
            a = _reduction(main_sweep, -30.0, y, s)
            b = _reduction(main_sweep, 15.0, y, s)
            if abs(a - b) > 1.0:
                failures.append(
                    f"rows differ at y={y:g}, s={s:g}: {a:.2f} vs {b:.2f}"
                )
    _report(3, "reduction matrix pattern", failures)


def test_criterion_4_cost_decomposition(main_sweep):
    cell = main_sweep.cell(15.0, 15.0, 800.0)
    r = cell.result
    failures = []
    if not 30.0 <= r.energy_reduction_pct <= 50.0:
        failures.append(f"energy reduction {r.energy_reduction_pct:.1f}% vs 40 +/- 10")
    if not 44.0 <= r.decay_reduction_pct <= 64.0:
        failures.append(f"decay reduction {r.decay_reduction_pct:.1f}% vs 54 +/- 10")
    _report(4, "[15 15]/800 energy and decay split", failures,
            f"energy {r.energy_reduction_pct:.1f}%, decay {r.decay_reduction_pct:.1f}%")


def test_criterion_5_decay_rate_insensitivity(main_sweep, paper_cfg):
    failures = []
    limit = paper_cfg.base.speed_limit_m_s
    red800 = None
    for s in main_sweep.spacings:
        spec = replace(
            paper_cfg.base,
            time_to_red_first_s=15.0,
            time_to_red_second_s=15.0,
            spacing_m=s,
            battery=paper_cfg.base.battery.with_multiplier(10.0),
        )
        high = run_scenario(spec)
        low = main_sweep.cell(15.0, 15.0, s).result
        # compare speed profiles on a common position grid
        grid = np.linspace(0.0, float(low.eco.x[-1]), 500)
        v_low = np.interp(grid, low.eco.x, low.eco.v)
        v_high = np.interp(grid, high.eco.x, high.eco.v)
        rms = float(np.sqrt(np.mean((v_low - v_high) ** 2)))
        if rms > 0.05 * limit:
            failures.append(f"s={s:g}: RMS speed gap {rms:.2f} m/s > 5% of limit")
        if s == 800.0:
            red800 = high.reduction_pct
    if not 40.0 <= red800 <= 60.0:
        failures.append(f"multiplier-10 reduction at 800 m {red800:.1f}% vs 50 +/- 10")
    _report(5, "trajectories insensitive to decay rate", failures,
            f"reduction at 800 m {red800:.1f}%")


def test_criterion_6_battery_size_study(pack_sweeps):
    failures = []
    small, large = pack_sweeps["standard"], pack_sweeps["long_range"]

    def decay_red(attr):
        vals = []
        for cs, cl in zip(small.cells, large.cells):
            a = abs(getattr(cs.result, attr).soh_delta)
            b = abs(getattr(cl.result, attr).soh_delta)
            vals.append(100.0 * (a - b) / a)
        return float(np.mean(vals))

    reg_avg = decay_red("regular_cost")
    eco_avg = decay_red("eco_cost")
    for name, avg in (("regular", reg_avg), ("eco", eco_avg)):
        if not 16.0 <= avg <= 26.0:
            failures.append(f"{name} decay reduction {avg:.1f}% vs 21 +/- 5")
    for variant, res in pack_sweeps.items():
        for s in (400.0, 600.0, 800.0):
            red = _reduction(res, 15.0, 15.0, s)
            if not 20.0 <= red <= 55.0:
                failures.append(
                    f"{variant} [15 15]/{s:g}: reduction {red:.1f}% "
                    "outside 30-45 +/- 10"
                )
    _report(6, "larger pack decays ~21% less", failures,
            f"regular {reg_avg:.1f}%, eco {eco_avg:.1f}%")


def test_criterion_7_physics_identities(paper_cfg):
    failures = []
    vp = paper_cfg.base.resolved_vehicle()
    bat = paper_cfg.base.resolved_battery()

    # steady cruise energy equals demand power times duration
    v, horizon = 20.0, 60.0
    t = np.arange(0.0, horizon + 0.5, 0.5)
    traj = from_samples(t, v * t, np.full_like(t, v))
    cost = evaluate_trajectory(traj, vp, bat)
    closed = power_demand(v, 0.0, vp) * horizon / J_PER_KWH
    if abs(cost.energy_kwh - closed) > 1e-9 * closed:
        failures.append(f"cruise energy {cost.energy_kwh} vs closed form {closed}")

    # doubling the end-of-life capacity loss scales lifetime throughput
    # by 2^(1/z)
    doubled = replace(bat, eol_capacity_loss=2.0 * bat.eol_capacity_loss)
    for c_rate in (0.5, 1.0, 2.0, 6.0):
        ratio = lifetime_ah_throughput(c_rate, doubled) / lifetime_ah_throughput(
            c_rate, bat
        )
        want = 2.0 ** (1.0 / bat.power_z)
        if abs(ratio - want) > 1e-9 * want:
            failures.append(f"throughput ratio {ratio} vs {want} at {c_rate}C")

    # decay rate is exactly linear in the multiplier
    for k in (2.0, 7.0, 10.0):
        a = soh_decay_rate(20e3, bat.with_multiplier(k))
        b = k * soh_decay_rate(20e3, bat)
        if abs(a - b) > 1e-12 * abs(b):
            failures.append(f"multiplier {k}: {a} vs {b}")
    _report(7, "closed-form physics identities", failures)


def test_criterion_8_safety_suite(paper_cfg):
    rng = np.random.default_rng(42)
    failures = []
    cases = 200
    for k in range(cases):
        x = float(rng.uniform(-30.0, 30.0))
        y = float(rng.uniform(-30.0, 30.0))
        # keep the spacing on the optimizer's 10 m distance grid
        s = 10.0 * round(float(rng.uniform(200.0, 800.0)) / 10.0)
        spec = replace(
            paper_cfg.base,
            time_to_red_first_s=x,
            time_to_red_second_s=y,
            spacing_m=s,
        )
        c = spec.corridor()
        vp = spec.resolved_vehicle()
        tag = f"case {k} [{x:.1f} {y:.1f}]/{s:.0f}"
        regular = simulate_regular(c, vp, spec.rules)
        failures += [f"{tag} regular: {m}" for m in check_safety(regular, c, spec.rules)]
        advised = simulate_advised_driver(c, vp, paper_cfg.driver,
                                          paper_cfg.advisory, spec.rules)
        failures += [f"{tag} advised: {m}" for m in check_safety(advised, c, spec.rules)]
        if k % 8 == 0:
            try:
                res = run_scenario(spec)
            except InfeasibleScenarioError:
                continue
            failures += [f"{tag} eco: {m}"
                         for m in check_safety(res.eco, c, spec.grid, res.budget_s)]
    _report(8, "randomized safety and constraint checks",
            failures[:10], f"{cases} scenarios")


def test_criterion_9_advisory(main_sweep, paper_cfg):
    failures = []
    field = load_config(CONFIG_DIR / "field_test.json")
    res = run_advisory_scenario(field.base, field.driver, field.advisory)
    rc, ac = res["regular_cost"], res["advised_cost"]
    red = 100.0 * (rc.total_usd - ac.total_usd) / rc.total_usd
    if not 20.0 <= red <= 45.0:
        failures.append(f"field-test advisory reduction {red:.1f}% outside 20-45")
    # a driver that follows the advisory exactly lands between the
    # optimizer and the regular driver everywhere
    for cell in main_sweep.cells:
        spec = replace(
            paper_cfg.base,
            time_to_red_first_s=cell.timing[0],
            time_to_red_second_s=cell.timing[1],
            spacing_m=cell.spacing_m,
        )
        c = spec.corridor()
        vp = spec.resolved_vehicle()
        traj = simulate_advised_driver(c, vp, IDEAL_DRIVER,
                                       paper_cfg.advisory, spec.rules)
        cost = evaluate_trajectory(traj, vp, spec.resolved_battery(), spec.prices)
        eco = cell.result.eco_cost.total_usd
        reg = cell.result.regular_cost.total_usd
        if not eco * (1.0 - 1e-6) - 1e-9 <= cost.total_usd <= reg * (1.0 + 1e-6) + 1e-9:
            failures.append(
                f"cell {cell.timing}/{cell.spacing_m:g}: advised "
                f"{cost.total_usd:.5f} not in [{eco:.5f}, {reg:.5f}]"
            )
    _report(9, "advisory lands between optimal and regular", failures,
            f"field-test reduction {red:.1f}%")


def test_criterion_10_determinism(paper_cfg, tmp_path):
    failures = []
    timings = (0.0, 15.0)
    spacings = (400.0,)
    ref = None
    for run, jobs in (("serial_a", 1), ("serial_b", 1), ("parallel", 2)):
        res = sweep(paper_cfg.base, timings, spacings, jobs=jobs)
        data = write_sweep_csv(res, tmp_path / f"{run}.csv").read_bytes()
        if ref is None:
            ref = data
        elif data != ref:
            failures.append(f"{run} CSV differs from first run")
    _report(10, "byte-identical outputs across runs and workers", failures)


def test_paper_sweep_table_is_pinned(main_sweep, tmp_path):
    data = write_sweep_csv(main_sweep, tmp_path / "table2.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PAPER_TABLE2_SHA256


def test_paper_cell_reports_are_pinned(main_sweep, tmp_path):
    cell = main_sweep.cell(15.0, 15.0, 800.0)
    render_reports(SweepResult([cell.timing], [cell.spacing_m], [cell]), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PAPER_CELL_SHA256}
    assert digests == PAPER_CELL_SHA256


def test_arc_clock_audit_is_pinned(main_sweep):
    # The arc-clock audit as `ecocorridor sweep` prints it, and as README and
    # ROADMAP quote it. ROADMAP item 1 (eco plans on a physical clock) moves
    # these numbers on purpose, as it does PAPER_TABLE2_SHA256, and must say so.
    audits = [
        audit_arc_clock(r.eco, r.spec.corridor(), r.spec.grid, r.budget_s)
        for r in (cell.result for cell in main_sweep.cells)
    ]
    red = sum(any("on red" in m for m in a.violations) for a in audits)
    late = sum(a.late_s > 0.0 for a in audits)
    assert (red, late, len(audits)) == (14, 34, 64)
    assert f"{max(a.late_s for a in audits):+.2f}" == "+9.55"
    assert f"{max(a.drift_s for a in audits):.2f}" == "9.90"
