"""Dynamic-programming speed-trajectory optimizer.

Stages are distance nodes; the state at a stage is an (arrival-time bin,
speed bin) pair. Time resolution is refined inside a speed band near the
speed limit, which is what lets the solver track the feasibility boundary
when the time budget is tight. Wait arcs (time advances at zero speed)
exist only at stop-line nodes. A ``Lattice`` holds what depends only on
the grid and the cost model, and a ``DpContext`` what one scenario adds.
``forward`` runs the value recursion over them; ``optimize`` backtracks its
result into a priced trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import BatteryModel
from .corridor import Corridor, green_at
from .costs import ArcCost, CostBreakdown, Prices, interval_cost, motion_arc_cost, record_arcs
from .forward import Pairs, SolveStats, bins_within, build_plan, forward_pass, time_order
from .powertrain import VehicleParams
from .trajectory import Trajectory, from_samples

_EPS = 1e-9
# width of the band below the speed limit whose speeds get the fine time bins
BOUNDARY_BAND_M_S = 1.0


class InfeasibleScenarioError(RuntimeError):
    def __init__(self, message: str, binding: str) -> None:
        self.binding = binding
        super().__init__(message)


@dataclass(frozen=True)
class DpGridSpec:
    distance_step_m: float = 10.0
    speed_step_m_s: float = 0.5
    time_step_s: float = 0.25
    boundary_time_step_s: float = 0.05
    time_buffer_frac: float = 0.0  # 0: the regular driver's trip time
    accel_max_m_s2: float = 2.0
    decel_min_m_s2: float = -4.0
    signal_margin_s: float = 0.25

    def __post_init__(self) -> None:
        for name in ("distance_step_m", "speed_step_m_s", "time_step_s", "boundary_time_step_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.boundary_time_step_s > self.time_step_s + _EPS:
            raise ValueError("boundary_time_step_s must be <= time_step_s")
        if not 0.0 <= self.time_buffer_frac <= 0.1:
            raise ValueError("time_buffer_frac must be in [0, 0.1]")
        if not (self.accel_max_m_s2 > 0.0 > self.decel_min_m_s2):
            raise ValueError("need accel_max > 0 > decel_min")
        if self.signal_margin_s < 0.0:
            raise ValueError("signal_margin_s must be >= 0")


def time_budget(trip_time_s: float, g: DpGridSpec) -> float:
    """Regular driver's trip time stretched by the grid's buffer fraction."""
    return trip_time_s * (1.0 + g.time_buffer_frac)


def off_grid(corridor: Corridor, dx: float) -> str | None:
    """The grid's geometry rule: every segment length of the corridor is a
    whole number of distance steps ``dx``, so the stop lines lie on nodes.
    Returns the ``Corridor`` field of the first segment that breaks it."""
    for name in ("entry_buffer_m", "light_spacing_m", "exit_buffer_m"):
        length = getattr(corridor, name)
        if abs(round(length / dx) * dx - length) > 1e-6:
            return name
    return None


def speed_bins(grid: DpGridSpec, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid's speeds up to ``limit`` and each speed's time-bin width:
    the fine ``boundary_time_step_s`` within ``BOUNDARY_BAND_M_S`` of the
    limit, ``time_step_s`` below it."""
    speeds = list(np.arange(0.0, limit, grid.speed_step_m_s))
    if not speeds or limit - speeds[-1] > 1e-9:
        speeds.append(limit)
    speeds = np.array(speeds)
    band_lo = limit - BOUNDARY_BAND_M_S - 1e-9
    return speeds, np.where(speeds >= band_lo, grid.boundary_time_step_s, grid.time_step_s)


def motion_pairs(grid: DpGridSpec, speeds: np.ndarray) -> np.ndarray:
    """Per (source, destination) speed, whether one distance step joins
    them: an arc of nonzero duration within the acceleration bounds."""
    v0, v1 = speeds[:, None], speeds
    a = (v1 * v1 - v0 * v0) / (2.0 * grid.distance_step_m)
    return (v0 + v1 > 0.0) & (a >= grid.decel_min_m_s2 - _EPS) & (a <= grid.accel_max_m_s2 + _EPS)


def early_arc(grid: DpGridSpec, limit: float) -> tuple[float, float] | None:
    """The grid's clock rule: every arc lands in a bin that starts after its
    source bin does, however its arrival rounds, so that states in time
    order only feed later states. A distance step too short for the time
    bins breaks it. Returns the source and destination speeds of the first
    arc that breaks it."""
    speeds, dt = speed_bins(grid, limit)
    pairs = motion_pairs(grid, speeds)
    dur = np.divide(2.0 * grid.distance_step_m, speeds[:, None] + speeds,
                    out=np.full(pairs.shape, np.inf), where=pairs)
    i, j = np.nonzero(dur - dt + 0.5 * dt[:, None] <= 1e-6 * dt)
    return (float(speeds[i[0]]), float(speeds[j[0]])) if len(i) else None


class Lattice:
    """What a solve needs that depends only on the grid and the cost model:
    the speeds and their bin widths, the feasible speed pairs' priced arcs
    (``arcs``, by source and destination speed) with their durations and
    costs as tables, the wait cost, the state numbering over the longest
    time a solve has needed, and the two stage-parity plans.
    ``_lattice`` keeps the lattices of the last ``_KEPT_LATTICES`` keys,
    and the plans of those not in use within ``_PLAN_BUDGET_BYTES``."""

    def __init__(self, grid: DpGridSpec, limit: float, vehicle: VehicleParams,
                 battery: BatteryModel, prices: Prices) -> None:
        early = early_arc(grid, limit)
        if early:
            raise ValueError(
                "distance_step_m is too short for the time bins: an arc from "
                "%g to %g m/s could land in an earlier bin than it leaves" % early)
        self.speeds, self.dt = speed_bins(grid, limit)
        self.n_v = n = len(self.speeds)

        dx = grid.distance_step_m
        self.cost = np.full((n, n), np.inf)  # by (source, destination) speed
        self.dur = np.full((n, n), np.nan)
        self.arcs: dict[tuple[int, int], ArcCost] = {}
        speeds = self.speeds.tolist()
        src, dst = np.nonzero(motion_pairs(grid, self.speeds))
        for i, j in zip(src.tolist(), dst.tolist()):
            arc = self.arcs[i, j] = motion_arc_cost(speeds[i], speeds[j], dx, vehicle, battery, prices)
            self.cost[i, j] = arc.total_usd
            self.dur[i, j] = arc.duration_s
        j, i = np.nonzero(np.isfinite(self.dur.T))  # the feasible pairs, destination-major
        self.pairs = Pairs(i, j, self.dt[i], self.dt[j], self.dur[i, j])
        self.sources = np.split(i, np.cumsum(np.bincount(j, minlength=n))[:-1])
        self.wait_cost = interval_cost(0.0, 0.0, float(self.dt[0]), vehicle, battery, prices)
        self.n_t = np.full(n, -1)  # below any count: nothing is numbered yet
        self._plans: tuple | None = None
        self.plan_bytes = 0  # of the plan arrays held

    def cover(self, allowed_s: float) -> np.ndarray:
        """The per-speed bin counts of the states whose bins start by
        ``allowed_s`` (``bins_within``). A time that gives some speed another
        bin renumbers the states and drops the plans; a shorter time's states
        keep their numbers (``time_order``), a prefix of the numbering."""
        n_t = bins_within(self.dt, allowed_s)
        if (n_t > self.n_t).any():
            self.n_t = n_t
            # speed-major index: bin tb of speed j is offsets[j] + tb
            self.offsets = np.concatenate(([0], np.cumsum(n_t)))
            self.state_speed, self.state_bin, self.state_at = time_order(self.dt, n_t)
            self._plans, self.plan_bytes = None, 0
        return n_t

    def plans(self) -> tuple:
        """Both stage parities' plans over the numbered states, built whole
        on the first call after ``cover`` numbered them. A solve reads only
        the groups of its budget's states. The plans stay until ``cover``
        renumbers or ``_lattice`` drops them to make room."""
        if self._plans is None:
            self._plans = tuple(build_plan(self, parity) for parity in (0, 1))
            self.plan_bytes = sum(a.nbytes for plan in self._plans for a in plan)
        return self._plans


class _Key(tuple):
    """A lattice key that hashes its fields once: the battery's hash walks
    its coefficient table, and a lookup hashes its key twice (the pop and
    the insert that moves it last)."""

    def __new__(cls, fields: tuple) -> _Key:
        key = super().__new__(cls, fields)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


# The kept lattices by key, least recently used first (a plain dict: an
# OrderedDict hashes every key again as it iterates). The oracle's
# `random_tiny_instance` draws one of 27 grids, and a study solves on the
# paper grid and its halved-speed-step retry, so each keeps the priced arcs
# and the numbering of every grid it uses.
_KEPT_LATTICES = 32
_lattices: dict[tuple, Lattice] = {}
# Bytes of plans that the lattices not in use may hold between them. Sized
# between the two kinds of grid: the plans of all 27 tiny grids take 144 KB
# at their longest budgets (the largest 9 KB), so all of them stay; the
# paper grid's take 3.5 MB at its longest budget, and 6.4 MB on the retry's
# grid, so no two paper grids hold plans together. 1 MiB, between the two,
# worked in a prototype.
_PLAN_BUDGET_BYTES = 1 << 20


def _lattice(grid: DpGridSpec, limit: float, vehicle: VehicleParams,
             battery: BatteryModel, prices: Prices) -> Lattice:
    """The lattice of a key, now in use: built on the key's first use, with
    the least recently used of ``_KEPT_LATTICES`` out when a new one comes
    in. Then the other lattices drop their plans, least recently used
    first, until they hold at most ``_PLAN_BUDGET_BYTES`` between them."""
    key = _Key((grid, limit, vehicle, battery, prices))
    lat = _lattices.pop(key, None)
    if lat is None:
        lat = Lattice(*key)
        if len(_lattices) >= _KEPT_LATTICES:
            del _lattices[next(iter(_lattices))]
    _lattices[key] = lat
    held = [other for other in _lattices.values() if other.plan_bytes and other is not lat]
    excess = sum(other.plan_bytes for other in held) - _PLAN_BUDGET_BYTES
    for other in held:
        if excess <= 0:
            break
        excess -= other.plan_bytes
        other._plans, other.plan_bytes = None, 0
    return lat


class DpContext:
    """One scenario on its lattice: nodes, stop lines, and the budget's
    states, a prefix of the lattice's numbering."""

    def __init__(
        self,
        corridor: Corridor,
        vehicle: VehicleParams,
        battery: BatteryModel,
        grid: DpGridSpec,
        prices: Prices,
        budget_s: float,
    ) -> None:
        self.corridor = corridor
        self.grid = grid
        self.budget_s = float(budget_s)

        dx = grid.distance_step_m
        segment = off_grid(corridor, dx)
        if segment:
            raise ValueError(f"{segment} must be a whole number of distance_step_m ({dx:g} m)")
        self.n_nodes = round(corridor.length_m / dx) + 1
        self.dx = dx
        self.stop_nodes = {round(line / dx): sig_idx
                           for sig_idx, line in enumerate(corridor.stop_lines_m)}

        lat = self.lattice = _lattice(grid, corridor.speed_limit_m_s, vehicle, battery, prices)
        self.speeds, self.dt, self.n_v, self.wait_cost = lat.speeds, lat.dt, lat.n_v, lat.wait_cost
        self.top = self.n_v - 1

        # The departure gate refuses the first signal_margin_s of every green
        # window, so a driver who leaves exactly at an onset is delayed by the
        # margin; the allowance below returns that slack to the arrival check.
        allowed_s = self.budget_s + grid.signal_margin_s
        self.n_t = lat.cover(allowed_s)
        self.n_states = int(self.n_t.sum())
        # bin tb of speed j is state state_at[offsets[j] + tb]
        self.offsets, self.state_at = lat.offsets, lat.state_at
        self.state_speed = lat.state_speed[:self.n_states]
        self.state_bin = lat.state_bin[:self.n_states]

    def pair_sources(self, stage: int) -> list[np.ndarray]:
        """Feasible source speeds per destination speed; the same at every stage."""
        return self.lattice.sources

    # ------------------------------------------------------------------
    def green_states(self, node: int) -> np.ndarray | None:
        """Departure legality per state for arcs leaving a stop-line node."""
        sig_idx = self.stop_nodes.get(node)
        if sig_idx is None:
            return None
        sig = self.corridor.signals[sig_idx]
        t = self.state_bin * self.dt[self.state_speed]
        return green_at(sig, t) & green_at(sig, t - self.grid.signal_margin_s)

    def unflatten(self, state: int) -> tuple[int, int]:
        """(speed bin, time bin) of a state."""
        return int(self.state_speed[state]), int(self.state_bin[state])

    def state(self, speed_idx: int, time_bin: int) -> int:
        """The state of a (speed bin, time bin) pair."""
        return int(self.state_at[self.offsets[speed_idx] + time_bin])


@dataclass
class DpResult:
    trajectory: Trajectory
    breakdown: CostBreakdown
    value: float  # objective of the optimal path (path-ordered sum)
    budget_s: float
    stats: SolveStats
    states: np.ndarray  # (n, 3) int32: the path's (node, speed_bin, time_bin) rows


def _diagnose_infeasibility(ctx: DpContext) -> str:
    if ctx.budget_s < ctx.corridor.length_m / ctx.corridor.speed_limit_m_s:
        return "time budget shorter than the minimum transit time"
    return "signal windows and time budget leave no feasible exit at the speed limit"


def optimize(
    c: Corridor,
    v: VehicleParams,
    b: BatteryModel,
    g: DpGridSpec | None = None,
    prices: Prices | None = None,
    *,
    budget_s: float,
) -> DpResult:
    """Minimum-cost feasible speed trajectory through the corridor.

    Enters at the speed limit at t=0 and must exit at the speed limit within
    `budget_s` (`study.run_scenario` passes `time_budget` of the regular
    driver's trip). Deterministic: cost ties at the exit are broken by
    earlier arrival.
    """
    g = g or DpGridSpec()
    prices = prices or Prices()
    ctx = DpContext(c, v, b, g, prices, budget_s)

    fp = forward_pass(ctx)
    vals, waits = fp.vals, fp.waits
    exits = ctx.state_at[ctx.offsets[ctx.top]:ctx.offsets[ctx.top] + ctx.n_t[ctx.top]]
    final = vals[exits]
    finite = np.isfinite(final)
    if not finite.any():
        binding = _diagnose_infeasibility(ctx)
        raise InfeasibleScenarioError(f"no feasible eco trajectory: {binding}", binding=binding)
    best_val = final[finite].min()
    # earlier arrival wins ties
    tb = int(np.nonzero(finite & (final <= best_val))[0][0])

    # backtrack
    path = []
    start = ctx.state(ctx.top, 0)
    k, s = ctx.n_nodes - 1, int(exits[tb])
    while True:
        j, tb = ctx.unflatten(s)
        path.append((k, j, tb))
        if k == 0 and s == start:
            break
        if j == 0 and k in waits and waits[k][tb]:
            s = ctx.state(0, tb - 1)
            continue
        s = fp.pred(k, s)
        if s < 0:
            raise AssertionError("broken predecessor chain")
        k -= 1
    path.reverse()

    # Sample times come straight off the recursion's clock: each node is
    # stamped with its time bin, so the emitted trajectory satisfies the
    # same signal and budget checks the search performed.  Each interval
    # sits within half a bin of the constant-acceleration duration, over
    # which the lattice priced its arc for the search.
    ts, xs, vs, accs, arcs = [0.0], [0.0], [float(ctx.speeds[ctx.top])], [], []
    for (k0, j0, t0), (k1, j1, t1) in zip(path, path[1:]):
        v0, v1 = float(ctx.speeds[j0]), float(ctx.speeds[j1])
        if k1 == k0:  # wait arc
            arcs.append(ctx.wait_cost)
            accs.append(0.0)
        else:
            arcs.append(ctx.lattice.arcs[j0, j1])
            accs.append((v1 ** 2 - v0 ** 2) / (2.0 * ctx.dx))
        ts.append(t1 * float(ctx.dt[j1]))
        xs.append(k1 * ctx.dx)
        vs.append(v1)
    accs.append(0.0)

    traj = from_samples(ts, xs, vs, accs, time_quantization_s=g.time_step_s)
    breakdown = record_arcs(traj, arcs)
    return DpResult(
        trajectory=traj,
        breakdown=breakdown,
        value=float(best_val),
        budget_s=budget_s,
        stats=fp.stats,
        states=np.array(path, dtype=np.int32),
    )
