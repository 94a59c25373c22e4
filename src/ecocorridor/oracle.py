"""Randomized tiny-instance verification of the optimizer.

Generates small corridors and coarse grids where every feasible path can be
enumerated, then checks that dynamic programming finds exactly the same
minimum. The enumeration (`_enumerate_min`) advances every partial path
together, one node at a time, under its own statement of the solver's arc
rules: a motion arc only where `_motion_durations`, a per-case table by
source and destination speed, allows one (no zero-duration arc, the
acceleration bounds, the duration 2 dx / (v0 + v1)); a wait only at zero
speed at a stop line, within the budget; a departure from a stop line only
on green at t and at t - `signal_margin_s` (`phase_at`, never the solver's
gate); one rounded arrival bin per arc, within the budget. It keeps no
cache keyed by state or bin. It shares with the solver the speeds, the bin
widths and bins per speed, the stop-line nodes, the arrival tie nudge
(`forward.tie_eps`) and the arc-cost table, so agreement is exact. The
solver is reached as `dp.optimize` and `dp.DpContext`, so wrappers placed
on the `dp` module see the oracle's solves too."""
from __future__ import annotations

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


class EnumerationBudgetExceeded(RuntimeError):
    pass


def _motion_durations(ctx: dp.DpContext) -> np.ndarray:
    """Per (source, destination) speed, the duration of the motion arc that
    the oracle's rules allow at any node and time, ``inf`` where they allow
    none: no zero-duration arc, none past the acceleration bounds, the
    duration 2 dx / (v0 + v1). Built for each case in a few numpy calls."""
    g, dx = ctx.grid, ctx.dx
    v0, v1 = ctx.speeds[:, None], ctx.speeds
    a = (v1 * v1 - v0 * v0) / (2.0 * dx)
    ok = (v0 + v1 > 0.0) & (a >= g.decel_min_m_s2 - _EPS) & (a <= g.accel_max_m_s2 + _EPS)
    return np.divide(2.0 * dx, v0 + v1, out=np.full(ok.shape, np.inf), where=ok)


def _enumerate_min(ctx: dp.DpContext) -> tuple[float | None, int]:
    """Exhaustive enumeration of all feasible paths: the minimum cost of
    those that exit at the speed limit, and the number of paths.

    The partial paths advance together one node at a time, held as arrays
    of speed bin, time bin and cost so far. At a stop line, a path at zero
    speed may first wait one bin at a time within the budget, and a path
    departs only on green at t and at t - ``signal_margin_s`` (the scalar
    ``phase_at`` on each distinct time, never the solver's gate). Each path
    then takes every motion arc of ``_motion_durations`` whose rounded
    arrival bin (half to even, as the solver's ``np.rint``) is within the
    budget. Costs accumulate in path order, so results are bit-comparable
    with the DP recursion; memory grows with the number of paths."""
    dur, cost, dt, n_t = _motion_durations(ctx), ctx.lattice.cost, ctx.dt, ctx.n_t
    m = ctx.grid.signal_margin_s
    j, tb, acc = np.array([ctx.top]), np.zeros(1), np.zeros(1)
    for k in range(ctx.n_nodes - 1):
        if not len(j):
            return None, 0
        t = tb * dt[j]
        sig_idx = ctx.stop_nodes.get(k)
        if sig_idx is not None:
            stopped = np.flatnonzero(j == 0)
            if len(stopped):
                # waits of 1, 2, ... bins, their costs summed one bin at a time
                bins = tb[stopped, None] + np.arange(1.0, n_t[0])
                waited = np.full((len(stopped), n_t[0]), ctx.wait_cost.total_usd)
                waited[:, 0] = acc[stopped]
                np.cumsum(waited, axis=1, out=waited)
                row, w = np.nonzero(bins < n_t[0])
                j = np.concatenate((j, np.zeros(len(row), dtype=j.dtype)))
                t = np.concatenate((t, bins[row, w] * dt[0]))
                acc = np.concatenate((acc, waited[row, w + 1]))
            sig = ctx.corridor.signals[sig_idx]
            times = np.sort(t)
            times = times[np.concatenate(([True], times[1:] != times[:-1]))]
            green = np.array([
                phase_at(sig, x) is Phase.GREEN and (m == 0.0 or phase_at(sig, x - m) is Phase.GREEN)
                for x in times.tolist()], dtype=bool)
            go = green[np.searchsorted(times, t)]
            j, t, acc = j[go], t[go], acc[go]
        # the binned arrival, rounded half to even as the solver rounds, within the budget
        arrive = np.rint((t[:, None] + dur[j]) / dt + tie_eps(k))
        row, j2 = np.nonzero(arrive < n_t)
        j, tb, acc = j2, arrive[row, j2], acc[row] + cost[j[row], j2]
    if len(j) > _MAX_PATHS:
        raise EnumerationBudgetExceeded(f"more than {_MAX_PATHS} paths")
    exits = acc[j == ctx.top]
    return (float(exits.min()) if len(exits) else None), len(j)


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
