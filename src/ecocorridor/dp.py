"""Dynamic-programming speed-trajectory optimizer.

Stages are distance nodes; the state at a stage is an (arrival-time bin,
speed bin) pair. Time resolution is refined inside a speed band near the
speed limit, which is what lets the solver track the feasibility boundary
when the time budget is tight. Wait arcs (time advances at zero speed)
exist only at stop-line nodes.

A node's states are stored flat, speed-major: state (speed j, time bin tb)
sits at ``offsets[j] + tb``. An arc's arrival bin depends only on the
stage's grade and parity, so each (grade, parity) pair gets one plan per
solve that lists every candidate arc grouped by destination state, and a
stage is a gather, an add and a segment minimum over that plan. Ties between
equal-cost arcs go to the lowest source speed, then the latest source bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import RegularDriverRules, simulate_regular
from .battery import BatteryModel
from .corridor import Corridor
from .costs import ArcCost, CostBreakdown, Prices, hold_arc_cost, motion_arc_cost
from .powertrain import VehicleParams
from .trajectory import Trajectory, from_samples

_EPS = 1e-9
# Candidate arcs per numpy call in the forward pass. It bounds each stage
# temporary to about 128 KiB of float64 whatever the grid size; at 2**16 the
# temporaries left the allocator's heap for fresh pages, and the page faults
# cost more time and memory than the extra calls at 2**14.
_CHUNK = 1 << 14


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
    boundary_band_m_s: float = 1.0
    time_budget_mode: str = "exact"  # or "buffered"
    time_buffer_frac: float = 0.03
    accel_max_m_s2: float = 2.0
    decel_min_m_s2: float = -4.0
    idle_load_w: float = 0.0
    signal_margin_s: float = 0.25

    def __post_init__(self) -> None:
        for name in ("distance_step_m", "speed_step_m_s", "time_step_s", "boundary_time_step_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.boundary_time_step_s > self.time_step_s + _EPS:
            raise ValueError("boundary_time_step_s must be <= time_step_s")
        if not 0.0 <= self.time_buffer_frac <= 0.1:
            raise ValueError("time_buffer_frac must be in [0, 0.1]")
        if self.time_budget_mode not in ("exact", "buffered"):
            raise ValueError("time_budget_mode must be 'exact' or 'buffered'")


def time_budget(trip_time_s: float, g: DpGridSpec) -> float:
    """Regular driver's trip time, optionally stretched by the buffer."""
    if g.time_budget_mode == "buffered":
        trip_time_s *= 1.0 + g.time_buffer_frac
    return trip_time_s


class DpContext:
    """Precomputed grid, arc tables and signal masks for one scenario."""

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
        self.vehicle = vehicle
        self.battery = battery
        self.grid = grid
        self.prices = prices
        self.budget_s = float(budget_s)

        dx = grid.distance_step_m
        n_stages = round(corridor.length_m / dx)
        if abs(n_stages * dx - corridor.length_m) > 1e-6:
            raise ValueError("distance_step_m must divide the corridor length")
        self.n_nodes = n_stages + 1
        self.dx = dx

        self.stop_nodes: dict[int, int] = {}
        for sig_idx, line in enumerate(corridor.stop_lines_m):
            node = round(line / dx)
            if abs(node * dx - line) > 1e-6:
                raise ValueError("stop lines must fall on distance nodes")
            self.stop_nodes[node] = sig_idx

        limit = corridor.speed_limit_m_s
        speeds = list(np.arange(0.0, limit, grid.speed_step_m_s))
        if not speeds or limit - speeds[-1] > 1e-9:
            speeds.append(limit)
        self.speeds = np.array(speeds)
        self.n_v = len(speeds)
        self.top = self.n_v - 1

        band_lo = limit - grid.boundary_band_m_s - 1e-9
        self.dt = np.where(self.speeds >= band_lo, grid.boundary_time_step_s, grid.time_step_s)
        # The departure gate refuses the first signal_margin_s of every green
        # window, so a driver who leaves exactly at an onset is delayed by the
        # margin; the allowance below returns that slack to the arrival check.
        allowed = self.budget_s + grid.signal_margin_s
        self.n_t = np.array(
            [int(math.floor(allowed / d + 0.5)) + 1 for d in self.dt], dtype=int
        )
        # flat state layout: speed j holds states offsets[j]:offsets[j + 1]
        self.offsets = np.concatenate(([0], np.cumsum(self.n_t)))

        self.grade_by_stage = np.array(
            [corridor.grade_profile.at((k + 0.5) * dx) for k in range(n_stages)]
        )
        self._tables: dict[float, dict[str, np.ndarray]] = {}
        self._pairs: dict[float, list[np.ndarray]] = {}
        for grade in sorted(set(self.grade_by_stage.tolist())):
            self._build_tables(grade)
        self.wait_cost = hold_arc_cost(float(self.dt[0]), grid.idle_load_w, battery, prices)

    # ------------------------------------------------------------------
    def _build_tables(self, grade: float) -> None:
        g = self.grid
        n = self.n_v
        cost = np.full((n, n), np.inf)
        dur = np.full((n, n), np.nan)
        elec = np.zeros((n, n))
        decay = np.zeros((n, n))
        soh = np.zeros((n, n))
        energy = np.zeros((n, n))
        power = np.zeros((n, n))
        srcs_by_dest: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            vi = float(self.speeds[i])
            for j in range(n):
                vj = float(self.speeds[j])
                if vi + vj <= 0.0:
                    continue
                a = (vj * vj - vi * vi) / (2.0 * self.dx)
                if a < g.decel_min_m_s2 - _EPS or a > g.accel_max_m_s2 + _EPS:
                    continue
                arc = motion_arc_cost(vi, vj, self.dx, grade, self.vehicle, self.battery, self.prices)
                cost[i, j] = arc.total_usd
                dur[i, j] = arc.duration_s
                elec[i, j] = arc.electricity_usd
                decay[i, j] = arc.decay_usd
                soh[i, j] = arc.soh_delta
                energy[i, j] = arc.energy_j
                power[i, j] = arc.power_w
                srcs_by_dest[j].append(i)
        self._tables[grade] = {
            "cost": cost, "dur": dur, "elec": elec, "decay": decay,
            "soh": soh, "energy": energy, "power": power,
        }
        self._pairs[grade] = [np.array(s, dtype=int) for s in srcs_by_dest]

    def tables(self, stage: int) -> dict[str, np.ndarray]:
        return self._tables[self.grade_by_stage[stage]]

    def pair_sources(self, stage: int) -> list[np.ndarray]:
        return self._pairs[self.grade_by_stage[stage]]

    # ------------------------------------------------------------------
    def green_mask(self, node: int, speed_idx: int) -> np.ndarray | None:
        """Departure legality per time bin for arcs leaving a stop-line node."""
        sig_idx = self.stop_nodes.get(node)
        if sig_idx is None:
            return None
        sig = self.corridor.signals[sig_idx]
        dt_i = float(self.dt[speed_idx])
        t = np.arange(self.n_t[speed_idx]) * dt_i
        margin = self.grid.signal_margin_s
        return self._green_at(sig, t) & self._green_at(sig, t - margin)

    @staticmethod
    def _green_at(sig, t: np.ndarray) -> np.ndarray:
        u = np.mod(t - sig.time_to_red_s, sig.period_s)
        return u >= sig.red_s - 1e-12

    @staticmethod
    def tie_eps(stage: int) -> float:
        """Nudge applied before rounding an arrival time to a bin.

        An arc whose duration is an exact half-bin multiple (cruise at a
        resonant speed) would otherwise round the same way at every stage and
        the binned clock would drift from the physical one without bound;
        alternating the tie direction by stage parity keeps the drift bounded.
        """
        return 1e-7 if stage % 2 == 0 else -1e-7

    def unflatten(self, state: int) -> tuple[int, int]:
        """(speed bin, time bin) of a flat state index."""
        j = int(np.searchsorted(self.offsets, state, side="right")) - 1
        return j, state - int(self.offsets[j])

    def arc_arrival_bin(self, t_from: float, dur: float, dest_speed: int, stage: int) -> int:
        return int(np.rint((t_from + dur) / self.dt[dest_speed] + self.tie_eps(stage)))


@dataclass
class DpResult:
    trajectory: Trajectory
    breakdown: CostBreakdown
    value: float            # objective of the optimal path (path-ordered sum)
    arrival_time_s: float   # binned arrival time at the exit node
    budget_s: float
    states: list = field(default_factory=list)  # (node, speed_bin, time_bin) path


def _build_plan(ctx: DpContext, stage: int) -> list[tuple[np.ndarray, ...]]:
    """Every motion arc leaving a node of this stage's grade and parity.

    Candidates are grouped by destination state and, within a group, ordered
    by source speed ascending, then source bin descending, so a group's first
    minimum breaks cost ties toward the lowest source speed, then the latest
    source bin. The plan is a list of chunks ``(src, pair, dest, starts,
    sizes)`` of whole destination speeds, each closed once it holds
    ``_CHUNK`` candidates: candidate ``c`` relaxes flat state ``src[c]`` at
    cost ``cost.ravel()[pair[c]]``, and group ``g`` starts at ``starts[g]``,
    holds ``sizes[g]`` candidates and lands on flat state ``dest[g]``.
    """
    dur = ctx.tables(stage)["dur"]
    eps = ctx.tie_eps(stage)
    pair_type = np.min_scalar_type(ctx.n_v * ctx.n_v)
    plan, pending, n_pending = [], [], 0
    for j, sources in enumerate(ctx.pair_sources(stage)):
        dt_j, n_j = float(ctx.dt[j]), ctx.n_t[j]
        for i in sources:
            tb = np.arange(ctx.n_t[i] - 1, -1, -1)
            dest = np.rint((tb * float(ctx.dt[i]) + dur[i, j]) / dt_j + eps).astype(np.int64)
            ok = dest < n_j
            n_ok = int(np.count_nonzero(ok))
            pending.append((ctx.offsets[j] + dest[ok], ctx.offsets[i] + tb[ok],
                            np.full(n_ok, i * ctx.n_v + j, dtype=pair_type)))
            n_pending += n_ok
        if n_pending and (n_pending >= _CHUNK or j == ctx.top):
            dest, src, pair = map(np.concatenate, zip(*pending))
            # stable, so sources keep their (speed ascending, bin descending) order
            order = np.argsort(dest, kind="stable")
            dest, src, pair = dest[order], src[order], pair[order]
            starts = np.flatnonzero(np.r_[True, dest[1:] != dest[:-1]])
            sizes = np.diff(np.r_[starts, len(dest)])
            plan.append((src.astype(np.int32), pair, dest[starts].astype(np.int32), starts, sizes))
            pending, n_pending = [], 0
    return plan


def _relax(plan: list, vals: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stage of motion arcs: each state's minimum and its first argmin."""
    new = np.full(len(vals), np.inf)
    pred = np.full(len(vals), -1, dtype=np.int32)
    for src, pair, dest, starts, sizes in plan:
        cand = vals[src] + cost[pair]
        best = np.minimum.reduceat(cand, starts)
        # every group holds its own minimum (inf too), so the first hit at
        # or after a group's start lies inside that group
        hits = np.flatnonzero(cand == np.repeat(best, sizes))
        new[dest] = best
        pred[dest] = src[hits[np.searchsorted(hits, starts)]]
    pred[np.isinf(new)] = -1
    return new, pred


def _run_dp(ctx: DpContext) -> tuple[np.ndarray, list[np.ndarray], dict[int, np.ndarray]]:
    """Forward value recursion over flat states.

    Returns the exit node's values, each node's predecessors (the flat state
    at the previous node, -1 where unreached) and, per stop-line node, a flag
    per zero-speed time bin that is set where a wait arc gave the value.
    """
    vals = np.full(int(ctx.offsets[-1]), np.inf)
    vals[ctx.offsets[ctx.top]] = 0.0
    preds = [np.full(len(vals), -1, dtype=np.int32)]
    waits: dict[int, np.ndarray] = {}
    plans: dict[tuple[float, int], list] = {}

    for k in range(ctx.n_nodes - 1):
        if k in ctx.stop_nodes:
            # wait arcs at a stop-line node, applied on arrival before
            # departure to the zero-speed states (the first n_t[0] flat
            # states); each one extends the previous, so they run in order
            w = ctx.wait_cost.total_usd
            waited = waits[k] = np.zeros(ctx.n_t[0], dtype=bool)
            for tb in range(1, ctx.n_t[0]):
                cand = vals[tb - 1] + w
                if cand < vals[tb]:
                    vals[tb] = cand
                    waited[tb] = True
            green = np.concatenate([ctx.green_mask(k, i) for i in range(ctx.n_v)])
            vals = np.where(green, vals, np.inf)
        key = (ctx.grade_by_stage[k], k % 2)
        if key not in plans:
            plans[key] = _build_plan(ctx, k)
        vals, pred = _relax(plans[key], vals, ctx.tables(k)["cost"].ravel())
        preds.append(pred)
    return vals, preds, waits


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
    rules: RegularDriverRules | None = None,
    budget_s: float | None = None,
) -> DpResult:
    """Minimum-cost feasible speed trajectory through the corridor.

    Enters at the speed limit at t=0 and must exit at the speed limit within
    the time budget (the regular driver's trip time unless overridden).
    Deterministic: cost ties at the exit are broken by earlier arrival.
    """
    g = g or DpGridSpec()
    prices = prices or Prices()
    if budget_s is None:
        budget_s = time_budget(simulate_regular(c, v, rules).trip_time_s, g)
    ctx = DpContext(c, v, b, g, prices, budget_s)

    vals, preds, waits = _run_dp(ctx)
    start = int(ctx.offsets[ctx.top])
    final = vals[start:ctx.offsets[ctx.top + 1]]
    finite = np.isfinite(final)
    if not finite.any():
        binding = _diagnose_infeasibility(ctx)
        raise InfeasibleScenarioError(f"no feasible eco trajectory: {binding}", binding=binding)
    best_val = final[finite].min()
    # earlier arrival wins ties
    tb = int(np.nonzero(finite & (final <= best_val))[0][0])

    # backtrack
    path = []
    k, s = ctx.n_nodes - 1, start + tb
    while True:
        j, tb = ctx.unflatten(s)
        path.append((k, j, tb))
        if k == 0 and s == start:
            break
        if j == 0 and k in waits and waits[k][tb]:
            s -= 1
            continue
        s = int(preds[k][s])
        if s < 0:
            raise AssertionError("broken predecessor chain")
        k -= 1
    path.reverse()

    # Sample times come straight off the recursion's clock: each node is
    # stamped with its time bin, so the emitted trajectory satisfies the
    # same signal and budget checks the search performed.  Each interval
    # sits within half a bin of the constant-acceleration duration.
    ts, xs, vs, accs = [0.0], [0.0], [float(ctx.speeds[ctx.top])], []
    elec = decay = energy = soh = 0.0
    for (k0, j0, t0), (k1, j1, t1) in zip(path, path[1:]):
        if k1 == k0:  # wait arc
            arc = ctx.wait_cost
            a = 0.0
        else:
            tab = ctx.tables(k0)
            arc = ArcCost(
                float(tab["dur"][j0, j1]),
                float(tab["power"][j0, j1]),
                float(tab["energy"][j0, j1]),
                float(tab["elec"][j0, j1]),
                float(tab["decay"][j0, j1]),
                float(tab["soh"][j0, j1]),
            )
            a = (float(ctx.speeds[j1]) ** 2 - float(ctx.speeds[j0]) ** 2) / (2.0 * ctx.dx)
        elec += arc.electricity_usd
        decay += arc.decay_usd
        energy += arc.energy_j
        soh += arc.soh_delta
        accs.append(a)
        ts.append(t1 * float(ctx.dt[j1]))
        xs.append(k1 * ctx.dx)
        vs.append(float(ctx.speeds[j1]))
    accs.append(0.0)

    arrival_bin_time = path[-1][2] * float(ctx.dt[ctx.top])
    traj = from_samples(ts, xs, vs, accs, time_quantization_s=g.time_step_s)
    traj.notes["arrival_time_bin_s"] = arrival_bin_time
    traj.notes["budget_s"] = budget_s
    breakdown = CostBreakdown(elec, decay, arrival_bin_time, energy / 3.6e6, soh)
    return DpResult(
        trajectory=traj,
        breakdown=breakdown,
        value=float(best_val),
        arrival_time_s=arrival_bin_time,
        budget_s=budget_s,
        states=path,
    )
