"""Randomized tiny-instance verification of the optimizer.

Generates small corridors and coarse grids where every feasible path can be
enumerated, then checks that dynamic programming finds exactly the same
minimum. The enumeration checks each arc with `transition`, a scalar
restatement of the solver's arc rules. Both sides read the solver's arc-cost
table, so agreement is exact. The solver is reached as `dp.optimize` and
`dp.DpContext`, so wrappers placed on the `dp` module see the oracle's
solves too."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dp
from .battery import BatteryModel
from .corridor import Corridor, Phase, SignalSchedule, phase_at
from .costs import Prices
from .dp import _EPS, DpGridSpec, InfeasibleScenarioError
from .powertrain import VehicleParams


@dataclass(frozen=True)
class DpState:
    stage: int
    time_bin: int
    speed_bin: int


@dataclass(frozen=True)
class ArcOutcome:
    feasible: bool
    reason: str = ""
    cost_usd: float = 0.0


def _departure_allowed(ctx: dp.DpContext, node: int, t: float) -> bool:
    """Scalar restatement of the solver's green gate at a stop-line node."""
    sig_idx = ctx.stop_nodes.get(node)
    if sig_idx is None:
        return True
    sig = ctx.corridor.signals[sig_idx]
    m = ctx.grid.signal_margin_s
    return phase_at(sig, t) is Phase.GREEN and phase_at(sig, t - m) is Phase.GREEN


def transition(from_state: DpState, to_state: DpState, ctx: dp.DpContext) -> ArcOutcome:
    """Feasibility and cost of a single DP arc (motion or wait)."""
    g = ctx.grid
    i, j = from_state.speed_bin, to_state.speed_bin
    t_from = from_state.time_bin * float(ctx.dt[i])

    if to_state.stage == from_state.stage:
        # wait arc: zero speed, one time bin forward, stop-line nodes only
        if from_state.stage not in ctx.stop_nodes:
            return ArcOutcome(False, "wait arcs allowed only at stop lines")
        if i != 0 or j != 0:
            return ArcOutcome(False, "wait arcs require zero speed")
        if to_state.time_bin != from_state.time_bin + 1:
            return ArcOutcome(False, "wait arcs advance exactly one time bin")
        if to_state.time_bin >= ctx.n_t[0]:
            return ArcOutcome(False, "time budget exceeded")
        return ArcOutcome(True, cost_usd=ctx.wait_cost.total_usd)

    if to_state.stage != from_state.stage + 1:
        return ArcOutcome(False, "arcs advance exactly one stage")
    if not (0 <= i < ctx.n_v and 0 <= j < ctx.n_v):
        return ArcOutcome(False, "speed exceeds the limit")
    vi, vj = float(ctx.speeds[i]), float(ctx.speeds[j])
    if vi + vj <= 0.0:
        return ArcOutcome(False, "zero-duration arc")
    a = (vj * vj - vi * vi) / (2.0 * ctx.dx)
    if a < g.decel_min_m_s2 - _EPS or a > g.accel_max_m_s2 + _EPS:
        return ArcOutcome(False, "acceleration out of bounds")
    expected = ctx.arc_arrival_bin(t_from, float(ctx.lattice.dur[i, j]), j, from_state.stage)
    if to_state.time_bin != expected:
        return ArcOutcome(False, "arrival time does not match the time bin")
    if to_state.time_bin >= ctx.n_t[j]:
        return ArcOutcome(False, "time budget exceeded")
    if not _departure_allowed(ctx, from_state.stage, t_from):
        return ArcOutcome(False, "stop-line crossing on red")
    return ArcOutcome(True, cost_usd=float(ctx.lattice.cost[i, j]))


class EnumerationBudgetExceeded(RuntimeError):
    pass


def _enumerate_min(ctx: dp.DpContext, max_paths: int) -> tuple[float | None, list | None, int]:
    """Exhaustive DFS over all feasible paths; path costs accumulate in path
    order so results are bit-comparable with the DP recursion."""
    counter = {"paths": 0}
    best = {"value": None, "path": None}
    last = ctx.n_nodes - 1

    def recurse(k: int, j: int, tb: int, acc: float, path: list) -> None:
        if k == last:
            counter["paths"] += 1
            if counter["paths"] > max_paths:
                raise EnumerationBudgetExceeded(f"more than {max_paths} paths")
            if j == ctx.top and (best["value"] is None or acc < best["value"]):
                best["value"] = acc
                best["path"] = list(path)
            return
        state = DpState(k, tb, j)
        if k in ctx.stop_nodes and j == 0:
            wait_to = DpState(k, tb + 1, 0)
            out = transition(state, wait_to, ctx)
            if out.feasible:
                path.append((k, 0, tb + 1))
                recurse(k, 0, tb + 1, acc + out.cost_usd, path)
                path.pop()
        cost = ctx.lattice.cost
        for j2 in range(ctx.n_v):
            if not np.isfinite(cost[j, j2]):
                continue
            t_from = tb * float(ctx.dt[j])
            tb2 = ctx.arc_arrival_bin(t_from, float(ctx.lattice.dur[j, j2]), j2, k)
            out = transition(state, DpState(k + 1, tb2, j2), ctx)
            if not out.feasible:
                continue
            path.append((k + 1, j2, tb2))
            recurse(k + 1, j2, tb2, acc + out.cost_usd, path)
            path.pop()

    recurse(0, ctx.top, 0, 0.0, [(0, ctx.top, 0)])
    return best["value"], best["path"], counter["paths"]


def verify_against_enumeration(
    c: Corridor,
    v: VehicleParams,
    b: BatteryModel,
    tiny_grid: DpGridSpec,
    prices: Prices | None = None,
    budget_s: float = 30.0,
    max_paths: int = 10_000_000,
) -> dict:
    """Compare DP against exhaustive path enumeration on a small grid.

    Both sides read the same arc-cost table and must agree exactly.
    """
    prices = prices or Prices()
    ctx = dp.DpContext(c, v, b, tiny_grid, prices, budget_s)
    enum_value, enum_path, n_paths = _enumerate_min(ctx, max_paths)

    dp_value = None
    dp_states = None
    try:
        res = dp.optimize(c, v, b, tiny_grid, prices, budget_s=budget_s)
        dp_value = res.value
        dp_states = res.states
    except InfeasibleScenarioError:
        pass

    return {
        "dp_value": dp_value,
        "enumeration_value": enum_value,
        "enumeration_path": enum_path,
        "dp_path": dp_states,
        "paths_enumerated": n_paths,
        "agree": (dp_value is None and enum_value is None) or dp_value == enum_value,
    }


@dataclass
class OracleReport:
    cases: int = 0
    failures: int = 0
    paths_total: int = 0
    lines: list[str] = field(default_factory=list)


def random_tiny_instance(rng: np.random.Generator):
    """A corridor/grid pair small enough for exhaustive enumeration.

    Bounds: at most 5 distance stages, 6 speed bins and 25 time bins.
    """
    step_m = 50.0
    n_stages = int(rng.integers(3, 6))  # 3..5 arcs
    length = n_stages * step_m
    # both stop lines on interior nodes
    first = int(rng.integers(1, n_stages - 1))
    second = int(rng.integers(first + 1, n_stages))
    limit = float(rng.choice([8.0, 10.0, 12.0]))
    speed_step = limit / int(rng.integers(3, 6))  # 4..6 speed bins incl. zero
    red = float(rng.choice([4.0, 6.0, 8.0]))
    signals = (
        SignalSchedule(float(rng.uniform(-red, red)), red, red),
        SignalSchedule(float(rng.uniform(-red, red)), red, red),
    )
    c = Corridor(
        entry_buffer_m=first * step_m,
        light_spacing_m=(second - first) * step_m,
        exit_buffer_m=(n_stages - second) * step_m,
        speed_limit_m_s=limit,
        signals=signals,
    )
    budget = float(length / limit * rng.uniform(1.5, 2.5))
    dt = 1.0
    while budget / dt + 2 > 25:  # respect the time-bin bound
        dt *= 2.0
    g = DpGridSpec(
        distance_step_m=step_m,
        speed_step_m_s=speed_step,
        time_step_s=dt,
        boundary_time_step_s=dt,  # uniform bins keep enumeration simple
        signal_margin_s=0.0,
    )
    return c, g, budget


def run_oracle_suite(cases: int = 50, seed: int = 0, verbose: bool = False) -> OracleReport:
    """Run randomized DP-vs-enumeration comparisons and collect a report."""
    rng = np.random.default_rng(seed)
    v = VehicleParams()
    b = BatteryModel()
    report = OracleReport()
    while report.cases < cases:
        c, g, budget = random_tiny_instance(rng)
        out = verify_against_enumeration(c, v, b, g, budget_s=budget)
        report.cases += 1
        report.paths_total += out["paths_enumerated"]
        tag = "ok" if out["agree"] else "MISMATCH"
        line = (
            f"case {report.cases:3d}: dp={out['dp_value']} "
            f"enum={out['enumeration_value']} "
            f"paths={out['paths_enumerated']} {tag}"
        )
        if not out["agree"]:
            report.failures += 1
            report.lines.append(line)
        elif verbose:
            report.lines.append(line)
    return report
