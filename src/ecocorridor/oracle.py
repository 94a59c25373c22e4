"""Randomized tiny-instance verification of the optimizer.

Generates small corridors and coarse grids where every feasible path can be
enumerated, then checks that dynamic programming finds exactly the same
minimum. The enumeration generates each arc once (`_arcs`) from its own
statement of the solver's arc rules. The rules that hold at any node and
time are evaluated once per context into a per-speed table
(`_motion_arcs`): no zero-duration arc, the acceleration bounds, the
duration 2 dx / (v0 + v1). `_arcs` states the rest: a wait only at zero
speed at a stop line, within the budget; a departure from a stop line only
on green at t and at t - `signal_margin_s` (`phase_at`, never the solver's
gate); one rounded arrival bin per arc, within the budget. The search
caches the arcs of each state it reaches for one case, keyed by (node,
speed bin, time bin), and stores no value or path per state. It shares
with the solver the speeds, the bin widths and bins per speed, the
stop-line nodes, the arrival tie nudge (`forward.tie_eps`) and the
arc-cost table, so agreement is exact. The solver is reached as
`dp.optimize` and `dp.DpContext`, so wrappers placed on the `dp` module see
the oracle's solves too."""
from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .battery import BatteryModel
from .corridor import Corridor, Phase, SignalSchedule, phase_at
from .costs import Prices
from .dp import _EPS, DpGridSpec, InfeasibleScenarioError
from .forward import tie_eps
from .powertrain import VehicleParams

# paths one enumeration may count before it gives up
_MAX_PATHS = 10_000_000


def _departure_allowed(ctx: dp.DpContext, node: int, t: float) -> bool:
    """Scalar restatement of the solver's green gate at a stop-line node."""
    sig_idx = ctx.stop_nodes.get(node)
    if sig_idx is None:
        return True
    sig = ctx.corridor.signals[sig_idx]
    m = ctx.grid.signal_margin_s
    # at a zero margin t - m is t, so one read decides
    return phase_at(sig, t) is Phase.GREEN and (m == 0.0 or phase_at(sig, t - m) is Phase.GREEN)


@functools.lru_cache(maxsize=1)
def _motion_arcs(ctx: dp.DpContext) -> tuple[tuple[tuple[int, float, float, int, float], ...], ...]:
    """Per source speed, the motion arcs that the oracle's rules allow at
    any node and time, by destination speed, each as (destination speed,
    duration, its bin width, its bin count, cost): no zero-duration arc,
    none past the acceleration bounds, the duration 2 dx / (v0 + v1).
    Plain floats, built once per context; ``_arcs`` adds the rules that
    depend on the node and the time."""
    g, dx = ctx.grid, ctx.dx
    speeds, dt, n_t = ctx.speeds.tolist(), ctx.dt.tolist(), ctx.n_t.tolist()
    cost = ctx.lattice.cost.tolist()
    table = []
    for j, vi in enumerate(speeds):
        row = []
        for j2, vj in enumerate(speeds):
            if vi + vj <= 0.0:
                continue  # zero duration
            a = (vj * vj - vi * vi) / (2.0 * dx)
            if a < g.decel_min_m_s2 - _EPS or a > g.accel_max_m_s2 + _EPS:
                continue
            row.append((j2, 2.0 * dx / (vi + vj), dt[j2], n_t[j2], cost[j][j2]))
        table.append(tuple(row))
    return tuple(table)


def _arcs(ctx: dp.DpContext, k: int, j: int, tb: int) -> Iterator[tuple[int, int, int, float]]:
    """The arcs out of bin ``tb`` at speed ``j`` of node ``k`` under the arc
    rules as the oracle states them, each as (node, speed bin, time bin,
    cost): the wait arc first, then the motion arcs of ``_motion_arcs`` that
    leave on green and arrive within the budget. The arrival bin rounds half
    to even, as the solver's ``np.rint`` does."""
    if k in ctx.stop_nodes and j == 0 and tb + 1 < ctx.n_t[0]:
        yield k, 0, tb + 1, ctx.wait_cost.total_usd
    t = tb * float(ctx.dt[j])
    if not _departure_allowed(ctx, k, t):
        return
    eps = tie_eps(k)
    for j2, dur, dt2, n_t2, cost in _motion_arcs(ctx)[j]:
        tb2 = round((t + dur) / dt2 + eps)
        if tb2 < n_t2:
            yield k + 1, j2, tb2, cost


class EnumerationBudgetExceeded(RuntimeError):
    pass


def _enumerate_min(ctx: dp.DpContext) -> tuple[float | None, int]:
    """Exhaustive depth-first search over all feasible paths: the minimum
    cost of those that exit at the speed limit, and the number of paths.
    Costs accumulate in path order, so results are bit-comparable with the
    DP recursion. A state's arcs depend only on (k, j, tb), so the arcs of
    each reached state are generated once and walked again on every later
    visit."""
    paths, best = 0, None
    last = ctx.n_nodes - 1
    arcs_of: dict[tuple[int, int, int], tuple[tuple[int, int, int, float], ...]] = {}

    def recurse(k: int, j: int, tb: int, acc: float) -> None:
        nonlocal paths, best
        if k == last:
            paths += 1
            if paths > _MAX_PATHS:
                raise EnumerationBudgetExceeded(f"more than {_MAX_PATHS} paths")
            if j == ctx.top and (best is None or acc < best):
                best = acc
            return
        out = arcs_of.get((k, j, tb))
        if out is None:
            out = arcs_of[k, j, tb] = tuple(_arcs(ctx, k, j, tb))
        for k2, j2, tb2, cost in out:
            recurse(k2, j2, tb2, acc + cost)

    recurse(0, ctx.top, 0, 0.0)
    return best, paths


def verify_against_enumeration(
    c: Corridor,
    v: VehicleParams,
    b: BatteryModel,
    tiny_grid: DpGridSpec,
    prices: Prices | None = None,
    budget_s: float = 30.0,
) -> dict:
    """Compare DP against exhaustive path enumeration on a small grid.

    Both sides read the same arc-cost table and must agree exactly.
    """
    prices = prices or Prices()
    ctx = dp.DpContext(c, v, b, tiny_grid, prices, budget_s)
    enum_value, n_paths = _enumerate_min(ctx)

    dp_value = None
    try:
        dp_value = dp.optimize(c, v, b, tiny_grid, prices, budget_s=budget_s).value
    except InfeasibleScenarioError:
        pass

    return {
        "dp_value": dp_value,
        "enumeration_value": enum_value,
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
