"""Scenario runner, parametric sweep harness and cost accounting."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .advisory import AdvisoryConfig, DriverFollowingModel, simulate_advised_driver
from .baseline import RegularDriverRules, simulate_regular
from .battery import BatteryModel
from .corridor import Corridor, make_corridor
from .costs import CostBreakdown, Prices, interval_cost, record_arcs
from .dp import DpGridSpec, DpResult, InfeasibleScenarioError, optimize, time_budget
from .powertrain import VehicleParams
from .trajectory import Trajectory

VEHICLE_VARIANTS = {
    "standard": {"capacity_kwh": 54.0, "mass_kg": 1611.0},
    "long_range": {"capacity_kwh": 75.0, "mass_kg": 1726.0},
}

DEFAULT_TIMINGS_S = (-30.0, -15.0, 0.0, 15.0)
DEFAULT_SPACINGS_M = (200.0, 400.0, 600.0, 800.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep cell: corridor timing/geometry plus vehicle and pricing."""

    time_to_red_first_s: float = 0.0
    time_to_red_second_s: float = 0.0
    spacing_m: float = 400.0
    entry_buffer_m: float = 100.0
    exit_buffer_m: float = 100.0
    speed_limit_m_s: float = 24.583
    red_s: float = 30.0
    green_s: float = 30.0
    variant: str = "standard"
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    battery: BatteryModel = field(default_factory=BatteryModel)
    prices: Prices = field(default_factory=Prices)
    rules: RegularDriverRules = field(default_factory=RegularDriverRules)
    grid: DpGridSpec = field(default_factory=DpGridSpec)

    def resolved_vehicle(self) -> VehicleParams:
        return replace(self.vehicle, mass_kg=VEHICLE_VARIANTS[self.variant]["mass_kg"])

    def resolved_battery(self) -> BatteryModel:
        return replace(self.battery, capacity_kwh=VEHICLE_VARIANTS[self.variant]["capacity_kwh"])

    def corridor(self) -> Corridor:
        return make_corridor(
            self.time_to_red_first_s,
            self.time_to_red_second_s,
            spacing_m=self.spacing_m,
            entry_buffer_m=self.entry_buffer_m,
            exit_buffer_m=self.exit_buffer_m,
            speed_limit_m_s=self.speed_limit_m_s,
            red_s=self.red_s,
            green_s=self.green_s,
        )


def evaluate_trajectory(
    traj: Trajectory,
    v: VehicleParams,
    b: BatteryModel,
    prices: Prices | None = None,
) -> CostBreakdown:
    """Price a driven trajectory step by step with `costs.interval_cost`.

    Fills the trajectory's power/energy/SOH columns in place; idempotent.
    """
    prices = prices or Prices()
    traj.validate()
    t, speed = traj.t.tolist(), traj.v.tolist()
    arcs = [
        interval_cost(speed[k], speed[k + 1], t[k + 1] - t[k], v, b, prices)
        for k in range(len(traj) - 1)
    ]
    return record_arcs(traj, arcs)


def percent_saving(before: float, after: float) -> float:
    """How much smaller `after` is than `before`, in percent; 0 if `before` <= 0."""
    return 100.0 * (before - after) / before if before > 0 else 0.0


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    regular: Trajectory
    regular_cost: CostBreakdown
    dp: DpResult

    @property
    def eco(self) -> Trajectory:
        return self.dp.trajectory

    @property
    def eco_cost(self) -> CostBreakdown:
        return self.dp.breakdown

    @property
    def budget_s(self) -> float:
        return self.dp.budget_s

    @property
    def reduction_pct(self) -> float:
        return percent_saving(self.regular_cost.total_usd, self.eco_cost.total_usd)

    @property
    def decay_reduction_pct(self) -> float:
        return percent_saving(abs(self.regular_cost.soh_delta), abs(self.eco_cost.soh_delta))

    @property
    def energy_reduction_pct(self) -> float:
        return percent_saving(self.regular_cost.energy_kwh, self.eco_cost.energy_kwh)


def retry_grid(grid: DpGridSpec) -> DpGridSpec:
    """The grid of ``run_scenario``'s retry: half the speed step."""
    return replace(grid, speed_step_m_s=grid.speed_step_m_s / 2.0)


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Regular driver first; its trip time caps the optimizer's arrival.

    A scenario that is infeasible on the default grid is retried once with
    halved speed bins: quantized acceleration occasionally just misses a
    green window that a finer grid can reach.
    """
    c = spec.corridor()
    vp = spec.resolved_vehicle()
    bat = spec.resolved_battery()
    regular = simulate_regular(c, vp, spec.rules)
    budget = time_budget(regular.trip_time_s, spec.grid)
    try:
        res = optimize(c, vp, bat, spec.grid, spec.prices, budget_s=budget)
    except InfeasibleScenarioError:
        res = None
    # retried outside the handler, whose traceback would keep the failed
    # solve's forward pass alive through the retry
    if res is None:
        res = optimize(c, vp, bat, retry_grid(spec.grid), spec.prices, budget_s=budget)
    regular_cost = evaluate_trajectory(regular, vp, bat, spec.prices)
    # the optimizer prices its plan arc by arc and fills the eco columns
    return ScenarioResult(spec, regular, regular_cost, res)


@dataclass
class SweepCell:
    timing: tuple[float, float]
    spacing_m: float
    result: ScenarioResult | None
    error: str = ""


@dataclass
class SweepResult:
    timings: list[tuple[float, float]]
    spacings: list[float]
    cells: list[SweepCell]

    def cell(self, x: float, y: float, s: float) -> SweepCell:
        for c in self.cells:
            if c.timing == (x, y) and c.spacing_m == s:
                return c
        raise KeyError((x, y, s))

    @property
    def grand_average_reduction_pct(self) -> float:
        vals = [c.result.reduction_pct for c in self.cells if c.result is not None]
        return float(np.mean(vals)) if vals else float("nan")


def sweep_specs(
    base: ScenarioSpec,
    timings_s=DEFAULT_TIMINGS_S,
    spacings_m=DEFAULT_SPACINGS_M,
) -> list[ScenarioSpec]:
    specs = []
    for x in timings_s:
        for y in timings_s:
            for s in spacings_m:
                specs.append(
                    replace(
                        base,
                        time_to_red_first_s=float(x),
                        time_to_red_second_s=float(y),
                        spacing_m=float(s),
                    )
                )
    return specs


def _run_cell(spec: ScenarioSpec) -> SweepCell:
    timing = (spec.time_to_red_first_s, spec.time_to_red_second_s)
    try:
        return SweepCell(timing, spec.spacing_m, run_scenario(spec))
    except InfeasibleScenarioError as exc:  # recorded; any other error is a crash
        return SweepCell(timing, spec.spacing_m, None, error=str(exc))


def sweep(
    base: ScenarioSpec,
    timings_s=DEFAULT_TIMINGS_S,
    spacings_m=DEFAULT_SPACINGS_M,
    jobs: int = 1,
) -> SweepResult:
    """Run the full timing x spacing matrix; cells are independent and the
    aggregation order is fixed, so the result is identical for any job count.

    With ``jobs > 1``, a pool of at most one worker per cell takes one cell
    at a time, the longest corridors first, so that no worker is left with a
    long cell at the end while the others idle; the cells are returned in
    spec order. A single cell runs in this process."""
    specs = sweep_specs(base, timings_s, spacings_m)
    workers = min(jobs, len(specs))
    if workers > 1:
        import multiprocessing

        order = sorted(range(len(specs)), key=lambda k: specs[k].corridor().length_m,
                       reverse=True)
        cells: list = [None] * len(specs)
        with multiprocessing.Pool(workers) as pool:
            for k, cell in zip(order, pool.imap(_run_cell, [specs[k] for k in order])):
                cells[k] = cell
    else:
        cells = [_run_cell(s) for s in specs]
    timings = [(float(x), float(y)) for x in timings_s for y in timings_s]
    return SweepResult(timings, [float(s) for s in spacings_m], cells)


@dataclass
class DecayComparisonCell:
    timing: tuple[float, float]
    spacing_m: float
    regular_reduction_pct: float
    eco_reduction_pct: float
    error: str = ""


@dataclass
class DecayComparisonResult:
    """Battery-size study: SOH decay reduction of the larger pack, plus the
    two pack sweeps it compares."""

    cells: list[DecayComparisonCell]
    small: SweepResult
    large: SweepResult

    def average(self, column: str) -> float:
        vals = [
            getattr(c, f"{column}_reduction_pct") for c in self.cells if not c.error
        ]
        return float(np.mean(vals)) if vals else float("nan")


def battery_size_study(
    base: ScenarioSpec,
    timings_s=DEFAULT_TIMINGS_S,
    spacings_m=DEFAULT_SPACINGS_M,
    small_variant: str = "standard",
    large_variant: str = "long_range",
    decay_multiplier: float = 10.0,
    jobs: int = 1,
) -> DecayComparisonResult:
    # the comparison targets a high-decay chemistry, hence the 10x default
    base = replace(base, battery=base.battery.with_multiplier(decay_multiplier))
    small = sweep(replace(base, variant=small_variant), timings_s, spacings_m, jobs)
    large = sweep(replace(base, variant=large_variant), timings_s, spacings_m, jobs)
    cells = []
    for cs, cl in zip(small.cells, large.cells):
        if cs.result is None or cl.result is None:
            cells.append(
                DecayComparisonCell(cs.timing, cs.spacing_m, float("nan"), float("nan"),
                                    error=cs.error or cl.error)
            )
            continue
        cells.append(
            DecayComparisonCell(
                cs.timing,
                cs.spacing_m,
                percent_saving(abs(cs.result.regular_cost.soh_delta),
                               abs(cl.result.regular_cost.soh_delta)),
                percent_saving(abs(cs.result.eco_cost.soh_delta),
                               abs(cl.result.eco_cost.soh_delta)),
            )
        )
    return DecayComparisonResult(cells, small, large)


def run_advisory_scenario(
    spec: ScenarioSpec,
    driver: DriverFollowingModel | None = None,
    advisory_cfg: AdvisoryConfig | None = None,
):
    """Regular vs advised driver on one scenario (field-test style)."""
    c = spec.corridor()
    vp = spec.resolved_vehicle()
    bat = spec.resolved_battery()
    log: list = []
    regular = simulate_regular(c, vp, spec.rules)
    advised = simulate_advised_driver(c, vp, driver, advisory_cfg, spec.rules, log=log)
    return {
        "regular": regular,
        "advised": advised,
        "regular_cost": evaluate_trajectory(regular, vp, bat, spec.prices),
        "advised_cost": evaluate_trajectory(advised, vp, bat, spec.prices),
        "log": log,
    }
