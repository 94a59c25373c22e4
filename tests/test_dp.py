"""Optimizer tests: feasibility, determinism and enumeration agreement."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecocorridor import dp, oracle
from ecocorridor.baseline import simulate_regular
from ecocorridor.battery import BatteryModel
from ecocorridor.config import load_config, override_cell
from ecocorridor.corridor import (
    Corridor, Phase, SignalSchedule, green_at, make_corridor, phase_at,
)
from ecocorridor.costs import J_PER_KWH, Prices, interval_cost, motion_arc_cost
from ecocorridor.dp import DpGridSpec, InfeasibleScenarioError, optimize, time_budget
from ecocorridor.forward import bins_within, forward_pass, tie_eps
from ecocorridor.oracle import random_tiny_instance, run_oracle_suite, verify_against_enumeration
from ecocorridor.powertrain import VehicleParams
from ecocorridor.study import VEHICLE_VARIANTS
from ecocorridor.trajectory import check_safety


def _optimize(c):
    """Default-grid plan within the regular driver's trip time."""
    budget = time_budget(simulate_regular(c, VehicleParams()).trip_time_s, DpGridSpec())
    return optimize(c, VehicleParams(), BatteryModel(), budget_s=budget)


@pytest.fixture(scope="module")
def solved():
    c = make_corridor(15.0, 15.0, spacing_m=400.0)
    return c, _optimize(c)


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
    assert res.trajectory.trip_time_s <= res.budget_s + allowance


def test_crossings_on_green(solved):
    c, res = solved
    for sig, line in zip(c.signals, c.stop_lines_m):
        t_cross = res.trajectory.crossing_time(line)
        assert phase_at(sig, t_cross) is Phase.GREEN


def test_trajectory_validates(solved):
    _, res = solved
    res.trajectory.validate()
    assert res.trajectory.time_quantization_s > 0.0


def test_speed_limit_respected(solved):
    _, res = solved
    assert res.trajectory.v.max() <= 24.583 + 1e-9


def test_plan_is_safe(solved):
    c, res = solved
    assert res.trajectory.time_quantization_s > 0.0
    assert check_safety(res.trajectory, c, DpGridSpec(), res.budget_s) == []


def test_breakdown_matches_value(solved):
    _, res = solved
    assert res.breakdown.total_usd == pytest.approx(res.value, rel=1e-9)
    assert res.breakdown.electricity_usd > 0.0
    assert res.breakdown.battery_usd > 0.0


def test_deterministic():
    c = make_corridor(0.0, -15.0, spacing_m=400.0)
    a = _optimize(c)
    b = _optimize(c)
    assert a.value == b.value
    assert np.array_equal(a.trajectory.t, b.trajectory.t)
    assert np.array_equal(a.trajectory.v, b.trajectory.v)


def test_impossible_budget_raises():
    c = make_corridor(15.0, 15.0)
    with pytest.raises(InfeasibleScenarioError):
        optimize(c, VehicleParams(), BatteryModel(), budget_s=10.0)


def test_budget_modes():
    c = make_corridor(500.0, 500.0, red_s=30.0, green_s=1000.0)
    trip = simulate_regular(c, VehicleParams()).trip_time_s
    # the default buffer of 0 is the regular driver's trip time itself
    exact = time_budget(trip, DpGridSpec())
    assert exact == trip
    buffered = time_budget(trip, DpGridSpec(time_buffer_frac=0.03))
    assert buffered == pytest.approx(1.03 * exact)


def test_grid_validation():
    with pytest.raises(ValueError):
        DpGridSpec(time_step_s=0.0)
    with pytest.raises(ValueError):
        DpGridSpec(boundary_time_step_s=0.5, time_step_s=0.25)
    with pytest.raises(ValueError):
        DpGridSpec(time_buffer_frac=0.5)
    for bad in ({"accel_max_m_s2": -1.0}, {"accel_max_m_s2": 0.0},
                {"decel_min_m_s2": 0.0}, {"decel_min_m_s2": 1.0}, {"signal_margin_s": -0.1}):
        with pytest.raises(ValueError):
            DpGridSpec(**bad)


def test_arcs_must_advance_the_clock():
    # at 1 s bins a 10 m arc near the limit (0.41 s) could round into a bin
    # that starts before its source bin, so no order by time could number
    # the states; at 0.25 s bins it cannot
    c = make_corridor(15.0, 15.0)
    args = (c, VehicleParams(), BatteryModel())
    with pytest.raises(ValueError, match="too short for the time bins"):
        dp.DpContext(*args, DpGridSpec(time_step_s=1.0, boundary_time_step_s=1.0), Prices(), 60.0)
    dp.DpContext(*args, DpGridSpec(time_step_s=0.25, boundary_time_step_s=0.25), Prices(), 60.0)


def test_departure_gate_is_the_phase_rule():
    # the first red starts one ulp after 15 s, so at t = 15.0 the light's
    # offset is one ulp short of a full period: the red onset, by the snap
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "paper_sweep.json")
    spec = override_cell(cfg, (15.000000000000002, 15.0), 200.0)
    c, vp = spec.corridor(), spec.resolved_vehicle()
    budget = time_budget(simulate_regular(c, vp, spec.rules).trip_time_s, spec.grid)
    ctx = dp.DpContext(c, vp, spec.resolved_battery(), spec.grid, spec.prices, budget)
    m = spec.grid.signal_margin_s
    t = (ctx.state_bin * ctx.dt[ctx.state_speed]).tolist()
    assert 15.0 in t
    for node, sig_idx in ctx.stop_nodes.items():
        sig = c.signals[sig_idx]
        gate = [phase_at(sig, x) is Phase.GREEN and phase_at(sig, x - m) is Phase.GREEN
                for x in t]
        assert ctx.green_states(node).tolist() == gate, node


def test_matches_enumeration_on_tiny_instances():
    report = run_oracle_suite(cases=12, seed=7)
    assert report.cases == 12
    assert report.failures == 0
    assert report.paths_total > 0


def _reference_arcs(ctx, k, j, tb):
    """The arcs out of bin ``tb`` at speed ``j`` of node ``k``, one arc at a
    time in plain floats, under the oracle's arc rules, each as (node, speed
    bin, time bin, cost): a wait at zero speed at a stop line within the
    budget; then, on green at t and at t - ``signal_margin_s`` at a stop
    line (``phase_at``), every motion arc of nonzero duration within the
    acceleration bounds, lasting 2 dx / (v0 + v1), whose arrival bin,
    rounded half to even, is within the budget."""
    g, dx = ctx.grid, ctx.dx
    if k in ctx.stop_nodes and j == 0 and tb + 1 < ctx.n_t[0]:
        yield k, 0, tb + 1, ctx.wait_cost.total_usd
    t = tb * float(ctx.dt[j])
    sig_idx = ctx.stop_nodes.get(k)
    if sig_idx is not None:
        sig, m = ctx.corridor.signals[sig_idx], g.signal_margin_s
        if phase_at(sig, t) is not Phase.GREEN or phase_at(sig, t - m) is not Phase.GREEN:
            return
    vi = float(ctx.speeds[j])
    for j2, vj in enumerate(ctx.speeds.tolist()):
        if vi + vj <= 0.0:
            continue  # zero duration
        a = (vj * vj - vi * vi) / (2.0 * dx)
        if a < g.decel_min_m_s2 - dp._EPS or a > g.accel_max_m_s2 + dp._EPS:
            continue
        tb2 = round((t + 2.0 * dx / (vi + vj)) / float(ctx.dt[j2]) + tie_eps(k))
        if tb2 < ctx.n_t[j2]:
            yield k + 1, j2, tb2, float(ctx.lattice.cost[j, j2])


def _reference_walk(ctx):
    """Exhaustive depth-first search over `_reference_arcs`, summing costs
    in path order: the minimum cost of the paths that exit at the speed
    limit, the number of paths, and the number of departures from stop
    lines (states left at a stop-line node)."""
    paths, best, stop_departures = 0, None, 0
    last = ctx.n_nodes - 1

    def recurse(k, j, tb, acc):
        nonlocal paths, best, stop_departures
        if k == last:
            paths += 1
            if j == ctx.top and (best is None or acc < best):
                best = acc
            return
        stop_departures += k in ctx.stop_nodes
        for k2, j2, tb2, cost in _reference_arcs(ctx, k, j, tb):
            recurse(k2, j2, tb2, acc + cost)

    recurse(0, ctx.top, 0, 0.0)
    return best, paths, stop_departures


def test_motion_table_is_built_once_per_case(monkeypatch):
    # the node- and time-free arc rules are evaluated once per case, and
    # the gate reads each distinct departure time at a stop line once,
    # however many paths leave at that time
    built, gated = [], []
    build, phase = oracle._motion_durations, oracle.phase_at

    def spy_build(ctx):
        built.append(ctx)
        return build(ctx)

    def spy_phase(sig, t):
        gated.append((sig, t))
        return phase(sig, t)

    monkeypatch.setattr(oracle, "_motion_durations", spy_build)
    monkeypatch.setattr(oracle, "phase_at", spy_phase)
    report = run_oracle_suite(cases=12, seed=7)
    assert report.failures == 0
    assert len(built) == 12
    assert len(set(gated)) == len(gated)
    departures = sum(_reference_walk(ctx)[2] for ctx in built)
    assert departures > len(gated)


def _cases_for_the_walks():
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            yield random_tiny_instance(rng)
    rng = np.random.default_rng(0)
    for _ in range(100):
        yield _binding_tiny_instance(rng)


def test_enumeration_matches_the_reference_walk():
    # the same minimum, bit for bit, over the same number of paths
    vp, bat = VehicleParams(), BatteryModel()
    for c, g, budget in _cases_for_the_walks():
        ctx = dp.DpContext(c, vp, bat, g, Prices(), budget)
        assert oracle._enumerate_min(ctx) == _reference_walk(ctx)[:2]


def test_enumeration_gives_up_past_the_path_cap(monkeypatch):
    c, g, budget = random_tiny_instance(np.random.default_rng(3))
    args = (c, VehicleParams(), BatteryModel(), g)
    paths = verify_against_enumeration(*args, budget_s=budget)["paths_enumerated"]
    assert paths > 1
    monkeypatch.setattr(oracle, "_MAX_PATHS", paths)
    assert verify_against_enumeration(*args, budget_s=budget)["paths_enumerated"] == paths
    monkeypatch.setattr(oracle, "_MAX_PATHS", paths - 1)
    with pytest.raises(oracle.EnumerationBudgetExceeded, match=f"more than {paths - 1} paths"):
        verify_against_enumeration(*args, budget_s=budget)


def _departures_never_allowed(monkeypatch):
    monkeypatch.setattr(dp.DpContext, "green_states", lambda self, node: None)


def _departures_always_allowed(monkeypatch):
    monkeypatch.setattr(dp.DpContext, "green_states",
                        lambda self, node: np.ones(self.n_states, dtype=bool))


def _arcs_timed_at_the_faster_speed(monkeypatch):
    arc_cost = dp.motion_arc_cost
    monkeypatch.setattr(dp, "motion_arc_cost", lambda v0, v1, dx, *rest: arc_cost(
        v0, v1, dx, *rest)._replace(duration_s=dx / max(v0, v1)))


@pytest.mark.parametrize("plant", [
    _departures_never_allowed, _departures_always_allowed, _arcs_timed_at_the_faster_speed,
])
def test_enumeration_catches_planted_solver_defects(monkeypatch, plant):
    # the oracle states the green gate and the arc durations for itself, so
    # a solver that breaks either must disagree with it
    plant(monkeypatch)
    _forget_lattices()
    try:
        report = run_oracle_suite(cases=12, seed=7)
    finally:
        _forget_lattices()
    assert report.cases == 12
    assert report.failures > 0


def _binding_tiny_instance(rng):
    """A tiny instance that binds the rules `random_tiny_instance` never
    binds: a departure margin of 0.5-1.5 s, and a 16 or 20 m/s limit in four
    speed steps over 50 m, so that arcs reach and pass the acceleration
    bounds. The corridor's geometry and signals come from a
    `random_tiny_instance` draw, with the budget rescaled to the new limit."""
    c, g, budget = random_tiny_instance(rng)
    limit = float(rng.choice([16.0, 20.0]))
    budget *= c.speed_limit_m_s / limit
    g = replace(g, speed_step_m_s=limit / 4.0,
                signal_margin_s=float(rng.choice([0.5, 1.0, 1.5])))
    return replace(c, speed_limit_m_s=limit), g, budget


def _binding_mismatches(seed: int, cases: int = 100) -> int:
    rng = np.random.default_rng(seed)
    vp, bat = VehicleParams(), BatteryModel()
    mismatches = 0
    for _ in range(cases):
        c, g, budget = _binding_tiny_instance(rng)
        mismatches += not verify_against_enumeration(c, vp, bat, g, budget_s=budget)["agree"]
    return mismatches


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_enumeration_where_margin_and_acceleration_bind(seed):
    assert _binding_mismatches(seed) == 0


def _gate_without_the_margin(monkeypatch):
    def green_states(self, node):
        sig_idx = self.stop_nodes.get(node)
        if sig_idx is None:
            return None
        return green_at(self.corridor.signals[sig_idx], self.state_bin * self.dt[self.state_speed])
    monkeypatch.setattr(dp.DpContext, "green_states", green_states)


def _acceleration_bound_looser(monkeypatch):
    lattice = dp.Lattice
    monkeypatch.setattr(dp, "_lattice", lambda grid, *rest: lattice(
        replace(grid, accel_max_m_s2=grid.accel_max_m_s2 + 1.0), *rest))


@pytest.mark.parametrize("plant", [_gate_without_the_margin, _acceleration_bound_looser])
def test_binding_instances_catch_planted_solver_defects(monkeypatch, plant):
    # `verify --cases 50 --seed 0` agrees with either defect planted
    plant(monkeypatch)
    try:
        assert _binding_mismatches(0) > 0
    finally:
        monkeypatch.undo()
        _forget_lattices()


@pytest.mark.parametrize("limit, reachable", [
    (24.0, {18.0, 24.0}),  # not 12 m/s: -4.32 m/s²
    (20.0, {0.0, 5.0, 10.0, 15.0, 20.0}),  # 20 -> 0 m/s is -4.0 m/s² exactly
])
def test_both_arc_rules_bind_the_deceleration_bound(limit, reachable):
    # neither tiny-instance draw brakes harder than the bound, so the rule is
    # checked here directly: the speeds the top speed reaches over one 50 m
    # step with four speed steps, for the oracle and for the solver
    signals = (SignalSchedule(0.0, 10.0, 10.0),) * 2
    c = Corridor(entry_buffer_m=100.0, light_spacing_m=100.0, exit_buffer_m=100.0,
                 speed_limit_m_s=limit, signals=signals)
    g = DpGridSpec(distance_step_m=50.0, speed_step_m_s=limit / 4.0, time_step_s=1.0,
                   boundary_time_step_s=1.0, signal_margin_s=0.0)
    assert g.decel_min_m_s2 == -4.0
    ctx = dp.DpContext(c, VehicleParams(), BatteryModel(), g, Prices(), 60.0)
    by_reference = {float(ctx.speeds[j]) for _, j, _, _ in _reference_arcs(ctx, 0, ctx.top, 0)}
    by_oracle = {float(ctx.speeds[j])
                 for j in np.flatnonzero(np.isfinite(oracle._motion_durations(ctx)[ctx.top]))}
    by_solver = {float(ctx.speeds[j]) for j in np.flatnonzero(np.isfinite(ctx.lattice.cost[ctx.top]))}
    assert by_reference == reachable
    assert by_oracle == reachable
    assert by_solver == reachable


def _green_bins(ctx, node):
    """Per speed, departure legality by time bin at a stop-line node: the
    per-state mask read through the state numbering."""
    green = ctx.green_states(node)
    return [green[ctx.state_at[ctx.offsets[i] + np.arange(ctx.n_t[i])]] for i in range(ctx.n_v)]


def _reference_forward_pass(ctx):
    """The per-pair loop forward pass, kept as the reference.

    Relaxes one (source speed, destination speed) pair at a time over the
    reachable source bins; a pair writes its candidates in descending cost,
    so the pair minimum lands last on a shared destination bin, and a later
    pair replaces a value only when strictly cheaper. Returns per-speed
    values at the exit node and per-node, per-speed predecessor stores.
    """
    n_v = ctx.n_v
    vals = [np.full(ctx.n_t[j], np.inf) for j in range(n_v)]
    vals[ctx.top][0] = 0.0

    def new_pred_store():
        return [
            {
                "v": np.full(ctx.n_t[j], -1, dtype=np.int16),
                "t": np.full(ctx.n_t[j], -1, dtype=np.int32),
                "wait": np.zeros(ctx.n_t[j], dtype=bool),
            }
            for j in range(n_v)
        ]

    preds = [new_pred_store()]
    for k in range(ctx.n_nodes - 1):
        if k in ctx.stop_nodes:
            v0 = vals[0]
            w = ctx.wait_cost.total_usd
            for tb in range(1, len(v0)):
                cand = v0[tb - 1] + w
                if cand < v0[tb]:
                    v0[tb] = cand
                    preds[k][0]["wait"][tb] = True

        cost, dur = ctx.lattice.cost, ctx.lattice.dur
        masks = _green_bins(ctx, k) if k in ctx.stop_nodes else None
        new_vals = [np.full(ctx.n_t[j], np.inf) for j in range(n_v)]
        pred_next = new_pred_store()
        for j in range(n_v):
            dt_j = float(ctx.dt[j])
            n_j = ctx.n_t[j]
            best = new_vals[j]
            for i in ctx.pair_sources(k)[j]:
                va = vals[i]
                finite = np.isfinite(va)
                if masks is not None:
                    finite &= masks[i]
                src_bins = np.nonzero(finite)[0]
                if len(src_bins) == 0:
                    continue
                t_src = src_bins * float(ctx.dt[i])
                dest = np.rint((t_src + dur[i, j]) / dt_j + tie_eps(k)).astype(np.int64)
                ok = dest < n_j
                if not ok.all():
                    src_bins = src_bins[ok]
                    if len(src_bins) == 0:
                        continue
                    dest = dest[ok]
                cand = va[src_bins] + cost[i, j]
                order = np.argsort(-cand, kind="stable")
                d2, c2, s2 = dest[order], cand[order], src_bins[order]
                m = c2 < best[d2]
                if not m.any():
                    continue
                d2, c2, s2 = d2[m], c2[m], s2[m]
                best[d2] = c2
                pred_next[j]["v"][d2] = i
                pred_next[j]["t"][d2] = s2
        vals = new_vals
        preds.append(pred_next)
    return vals, preds


def _paper_cell(x, y, spacing, speed_step_m_s=0.5, regen=False, variant="standard",
                decay_multiplier=1.0):
    """Corridor, vehicle, battery, grid and budget of a paper-sweep cell,
    built as `run_scenario` builds them."""
    c = make_corridor(x, y, spacing_m=spacing, exit_buffer_m=200.0)
    sizes = VEHICLE_VARIANTS[variant]
    vp = VehicleParams(regen_enabled=regen, mass_kg=sizes["mass_kg"])
    bat = BatteryModel(capacity_kwh=sizes["capacity_kwh"]).with_multiplier(decay_multiplier)
    g = DpGridSpec(time_buffer_frac=0.03, speed_step_m_s=speed_step_m_s)
    budget = time_budget(simulate_regular(c, vp).trip_time_s, g)
    return c, vp, bat, g, budget


def _paper_cell_context(*args, **kwargs):
    """Solver context of a paper-sweep cell, built as `run_scenario` builds it."""
    c, vp, bat, g, budget = _paper_cell(*args, **kwargs)
    return dp.DpContext(c, vp, bat, g, Prices(), budget)


def _reaches_exit(ctx, signals=True):
    """Per node and speed, the time bins from which the exit can be reached
    at the speed limit, over the reference loop's arcs: a backward boolean
    pass with the signals, their margin and the wait arcs included, or with
    neither when ``signals`` is false."""
    n_v = ctx.n_v
    can = [[np.zeros(ctx.n_t[j], dtype=bool) for j in range(n_v)]]
    can[0][ctx.top][:] = True
    for k in range(ctx.n_nodes - 2, -1, -1):
        dur = ctx.lattice.dur
        green = _green_bins(ctx, k) if signals and k in ctx.stop_nodes else None
        nxt, cur = can[0], [np.zeros(ctx.n_t[i], dtype=bool) for i in range(n_v)]
        for j in range(n_v):
            for i in ctx.pair_sources(k)[j]:
                tb = np.arange(ctx.n_t[i])
                dest = np.rint((tb * float(ctx.dt[i]) + dur[i, j]) / float(ctx.dt[j])
                               + tie_eps(k)).astype(np.int64)
                ok = dest < ctx.n_t[j]
                hit = np.zeros(ctx.n_t[i], dtype=bool)
                hit[ok] = nxt[j][dest[ok]]
                if green is not None:
                    hit &= green[i]
                cur[i] |= hit
        if green is not None:
            # a wait arc moves a zero-speed state one bin later at this node
            for tb in range(ctx.n_t[0] - 2, -1, -1):
                cur[0][tb] |= cur[0][tb + 1]
        can.insert(0, cur)
    return can


def _assert_matches_reference(ctx):
    """The windowed pass against the loop: identical on every state inside
    a node's window, unset outside it, and no state the loop reaches outside
    the window can reach the exit. Predecessors come from ``fp.pred`` and
    are read back as (speed, bin) through ``ctx.unflatten``. Returns the pass
    and how many reached states fell outside the windows."""
    ref_vals, ref_preds = _reference_forward_pass(ctx)
    fp = forward_pass(ctx)
    reaches = _reaches_exit(ctx)
    assert len(fp.lo) == len(fp.latest) == len(ref_preds) == ctx.n_nodes
    states = [[ctx.state(j, tb) for tb in range(ctx.n_t[j])] for j in range(ctx.n_v)]
    for j in range(ctx.n_v):
        assert [ctx.unflatten(s) for s in states[j]] == [(j, tb) for tb in range(ctx.n_t[j])]
    dropped = 0
    for k, ref in enumerate(ref_preds):
        for j in range(ctx.n_v):
            preds = [fp.pred(k, s) for s in states[j]]
            v, t = np.array([ctx.unflatten(p) if p >= 0 else (-1, -1) for p in preds]).T
            wait = np.zeros(ctx.n_t[j], dtype=bool)
            if k in fp.waits and j == 0:
                wait[:] = fp.waits[k]
            tb = np.arange(ctx.n_t[j])
            inside = (tb >= fp.lo[k, j]) & (tb <= fp.latest[k, j])
            for key, got in (("v", v), ("t", t), ("wait", wait)):
                assert np.array_equal(ref[j][key][inside], got[inside]), (k, j, key)
            assert (v[~inside] == -1).all(), (k, j)
            assert not wait[~inside].any(), (k, j)
            reached = (ref[j]["v"] >= 0) | ref[j]["wait"]
            if k == 0 and j == ctx.top:
                reached[0] = True
            assert not (reached & ~inside & reaches[k][j]).any(), (k, j)
            dropped += int((reached & ~inside).sum())
            if k == ctx.n_nodes - 1:
                got = fp.vals[states[j]]
                assert ref_vals[j][inside].tobytes() == got[inside].tobytes(), j
                assert np.isinf(got[~inside]).all(), j
    return fp, dropped


def test_forward_pass_matches_reference_with_waits_at_both_lines():
    # with regeneration on, wait arcs win some zero-speed bins at both lines
    ctx = _paper_cell_context(-30.0, 0.0, 200.0, regen=True)
    fp, dropped = _assert_matches_reference(ctx)
    assert sorted(fp.waits) == sorted(ctx.stop_nodes)
    assert all(w.any() for w in fp.waits.values())
    # dead-end states the loop reaches are left out, so the check bites
    assert dropped > 0


def test_forward_pass_matches_reference_on_halved_speed_step():
    # the paper cell whose default grid is infeasible and is solved again
    # with half the speed step; some of its stages relax several chunks
    ctx = _paper_cell_context(0.0, -15.0, 200.0, speed_step_m_s=0.25)
    fp, _ = _assert_matches_reference(ctx)
    assert fp.chunks > ctx.n_nodes - 1


def _assert_latest_bins_exact(ctx):
    # without signals and waits the bins that reach the exit are the ones up
    # to the latest-bin bound, rounding ties included
    latest = forward_pass(ctx).latest
    for k, per_speed in enumerate(_reaches_exit(ctx, signals=False)):
        for j, reach in enumerate(per_speed):
            top = np.flatnonzero(reach)
            assert latest[k, j] == (top[-1] if len(top) else -1), (k, j)
            assert reach[: latest[k, j] + 1].all(), (k, j)


def test_latest_bins_are_exact():
    # the grid has arcs of exactly 2.5 bins (17 -> 15 m/s in 0.625 s), whose
    # arrivals are half-bin ties that the stage parity breaks
    _assert_latest_bins_exact(_paper_cell_context(-30.0, 0.0, 200.0))
    rng = np.random.default_rng(32)
    for _ in range(10):
        c, g, budget = random_tiny_instance(rng)
        _assert_latest_bins_exact(dp.DpContext(c, VehicleParams(), BatteryModel(), g,
                                               Prices(), budget))


def test_forward_pass_matches_reference_on_tiny_instances():
    rng = np.random.default_rng(32)
    empty_stages = 0
    for _ in range(25):
        c, g, budget = random_tiny_instance(rng)
        ctx = dp.DpContext(c, VehicleParams(), BatteryModel(), g, Prices(), budget)
        fp, _ = _assert_matches_reference(ctx)
        empty_stages += any((fp.lo[k] > fp.latest[k]).all() for k in range(1, ctx.n_nodes))
    assert empty_stages > 0


def test_empty_stage_is_infeasible():
    # the first light stays red for the whole budget, so no state leaves its
    # stop line and every window of the next stage is empty
    c = Corridor(entry_buffer_m=100.0, light_spacing_m=100.0, exit_buffer_m=50.0,
                 speed_limit_m_s=10.0,
                 signals=(SignalSchedule(-1.0, 100.0, 10.0), SignalSchedule(0.0, 4.0, 4.0)))
    g = DpGridSpec(distance_step_m=50.0, speed_step_m_s=2.5, time_step_s=1.0,
                   boundary_time_step_s=1.0, signal_margin_s=0.0)
    ctx = dp.DpContext(c, VehicleParams(), BatteryModel(), g, Prices(), 40.0)
    fp, _ = _assert_matches_reference(ctx)
    assert (fp.lo[3] > fp.latest[3]).all()
    assert fp.stats.relaxed < fp.stats.candidates
    with pytest.raises(InfeasibleScenarioError) as exc:
        optimize(c, VehicleParams(), BatteryModel(), g, budget_s=40.0)
    binding = "signal windows and time budget leave no feasible exit at the speed limit"
    assert exc.value.binding == binding
    assert str(exc.value) == f"no feasible eco trajectory: {binding}"


def _fingerprint(cell):
    """Everything a solve returns, as bytes: value, state path, trajectory
    columns and solve statistics."""
    c, vp, bat, g, budget = cell
    res = optimize(c, vp, bat, g, Prices(), budget_s=budget)
    traj = res.trajectory
    columns = (traj.t, traj.x, traj.v, traj.a, traj.p_batt, traj.energy_cum, traj.soh_delta_cum)
    return (np.float64(res.value).tobytes(), res.states.shape, res.states.tobytes(),
            b"".join(col.tobytes() for col in columns), res.stats)


def _forget_lattices():
    """Drop every lattice, as in a new process."""
    dp._lattices.clear()


def _tiny_cells(count, seed=0):
    """Cells of `random_tiny_instance` draws, in `_fingerprint`'s form."""
    rng = np.random.default_rng(seed)
    return [(c, VehicleParams(), BatteryModel(), g, budget)
            for c, g, budget in (random_tiny_instance(rng) for _ in range(count))]


def test_solve_does_not_depend_on_the_kept_plan():
    long, short = _paper_cell(15.0, 15.0, 800.0), _paper_cell(0.0, 0.0, 200.0)
    # the paper cell that is solved again with half the speed step
    halved = _paper_cell(0.0, -15.0, 200.0, speed_step_m_s=0.25)
    assert long[4] > short[4]
    tiny = _tiny_cells(30)

    def solve(cell, *after):
        _forget_lattices()
        for other in after:
            _fingerprint(other)
        return _fingerprint(cell)

    cold_long, cold_short = solve(long), solve(short)
    assert solve(long, short) == cold_long      # plans rebuilt over a larger budget
    assert solve(long, long) == cold_long       # plan of the same budget
    assert solve(short, long) == cold_short     # prefix of a larger budget's plan
    assert solve(long, halved) == cold_long     # plan of another grid replaced
    assert solve(short, halved) == cold_short
    # lattices of the same grid under another vehicle, battery or variant
    for other in (_paper_cell(15.0, 15.0, 800.0, regen=True),
                  _paper_cell(15.0, 15.0, 800.0, decay_multiplier=10.0),
                  _paper_cell(15.0, 15.0, 800.0, variant="long_range")):
        assert solve(long, other) == cold_long
    # tiny grids keep their plans beside one another and beside the paper grid's
    assert solve(long, *tiny) == cold_long
    warm_tiny = [_fingerprint(cell) for cell in tiny]
    assert warm_tiny == [solve(cell) for cell in tiny]


def test_optimize_builds_its_context_by_name(monkeypatch):
    # a wrapper placed on `dp.DpContext` sees every solve's context
    built, context = [], dp.DpContext

    def wrapped(*args):
        built.append(context(*args))
        return built[-1]

    monkeypatch.setattr(dp, "DpContext", wrapped)
    c, g, budget = random_tiny_instance(np.random.default_rng(3))
    _forget_lattices()
    optimize(c, VehicleParams(), BatteryModel(), g, budget_s=budget)
    assert len(built) == 1


def _holding():
    """The kept lattices that hold plans, least recently used first."""
    return [lat for lat in dp._lattices.values() if lat.plan_bytes]


def test_one_grid_plan_is_kept():
    # the paper grid's largest budget, 107.5 s, keeps its plans within 4 MB,
    # more than lattices not in use may hold
    largest = _paper_cell(0.0, 0.0, 800.0)
    assert largest[4] == pytest.approx(107.46, abs=0.01)
    _forget_lattices()
    _fingerprint(largest)
    [default] = _holding()
    assert dp._PLAN_BUDGET_BYTES < default.plan_bytes <= 4e6
    assert default.plan_bytes == sum(a.nbytes for plan in default.plans() for a in plan)
    # so a paper grid's plans are never held beside another paper grid's
    _fingerprint(_paper_cell(0.0, -15.0, 200.0, speed_step_m_s=0.25))
    [halved] = _holding()
    assert halved is not default and default._plans is None
    c, g, budget = random_tiny_instance(np.random.default_rng(3))
    optimize(c, VehicleParams(), BatteryModel(), g, budget_s=budget)
    [tiny] = _holding()
    assert tiny is not halved and halved._plans is None
    assert (tiny.n_t == bins_within(tiny.dt, budget + g.signal_margin_s)).all()
    # a tiny grid's plans fit in what lattices not in use may hold
    _fingerprint(largest)
    assert _holding() == [tiny, default]
    assert tiny.plan_bytes <= dp._PLAN_BUDGET_BYTES < default.plan_bytes


@pytest.mark.parametrize("budget", [dp._PLAN_BUDGET_BYTES, 20_000])
def test_lattices_not_in_use_hold_at_most_the_plan_budget(monkeypatch, budget):
    shipped = budget == dp._PLAN_BUDGET_BYTES
    monkeypatch.setattr(dp, "_PLAN_BUDGET_BYTES", budget)
    tiny = _tiny_cells(20), _tiny_cells(20, seed=1)
    cells = [_paper_cell(0.0, 0.0, 800.0), *tiny[0],
             _paper_cell(0.0, -15.0, 200.0, speed_step_m_s=0.25), *tiny[1],
             _paper_cell(15.0, 15.0, 400.0), _paper_cell(0.0, 0.0, 200.0, variant="long_range")]
    _forget_lattices()
    for n, (c, vp, bat, g, budget_s) in enumerate(cells, 1):
        forward_pass(dp.DpContext(c, vp, bat, g, Prices(), budget_s))
        *others, in_use = dp._lattices.values()
        assert in_use.plan_bytes > 0
        assert sum(lat.plan_bytes for lat in others) <= budget
        # the least recently used lattices' plans went first
        held = [lat.plan_bytes > 0 for lat in others]
        assert held == sorted(held)
        for lat in dp._lattices.values():
            assert lat.plan_bytes == (0 if lat._plans is None else sum(
                a.nbytes for plan in lat._plans for a in plan))
        if n == len(cells) - 2 and shipped:
            # every tiny grid since the retry's keeps its plans
            grids = {(c.speed_limit_m_s, g) for c, _, _, g, _ in tiny[1]}
            assert len(_holding()) == len(grids)


def test_a_second_oracle_run_builds_nothing(monkeypatch):
    _forget_lattices()
    cold = run_oracle_suite(cases=50, seed=0, verbose=True)
    built = [_spy(monkeypatch, name) for name in ("Lattice", "build_plan", "motion_arc_cost")]
    warm = run_oracle_suite(cases=50, seed=0, verbose=True)
    assert built == [[], [], []]
    assert warm.lines == cold.lines and len(warm.lines) == 50
    assert warm.paths_total == cold.paths_total


def test_a_warm_lattice_lookup_hashes_the_battery_once(monkeypatch):
    # the battery's hash walks its coefficient table
    (c, vp, bat, g, _), other = _tiny_cells(1, seed=3)[0], _tiny_cells(1, seed=4)[0]
    _forget_lattices()
    lat = dp._lattice(g, c.speed_limit_m_s, vp, bat, Prices())
    dp._lattice(other[3], other[0].speed_limit_m_s, vp, bat, Prices())
    hashed, battery_hash = [], BatteryModel.__hash__

    def spy(self):
        hashed.append(self)
        return battery_hash(self)

    monkeypatch.setattr(BatteryModel, "__hash__", spy)
    assert dp._lattice(g, c.speed_limit_m_s, vp, bat, Prices()) is lat
    assert len(hashed) == 1
    # the lookup made the lattice the most recently used
    assert list(dp._lattices.values())[-1] is lat


def _spy(monkeypatch, name):
    """The calls of `dp.<name>` from here on, as (arguments, result)."""
    calls, fn = [], getattr(dp, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(dp, name, spy)
    return calls


def test_a_budget_that_adds_no_bin_renumbers_nothing(monkeypatch):
    c, vp, bat, g, budget = _paper_cell(15.0, 15.0, 800.0)
    _forget_lattices()
    first = optimize(c, vp, bat, g, Prices(), budget_s=budget)
    [lat] = dp._lattices.values()
    longer, n_t = budget + 1e-3, lat.n_t
    assert (bins_within(lat.dt, longer + g.signal_margin_s) == n_t).all()
    numbered, built = _spy(monkeypatch, "time_order"), _spy(monkeypatch, "build_plan")
    again = optimize(c, vp, bat, g, Prices(), budget_s=longer)
    assert numbered == [] and built == []
    assert lat.n_t is n_t
    assert again.value == first.value
    assert np.array_equal(again.states, first.states)


def test_a_budget_that_adds_a_bin_drops_the_plans(monkeypatch):
    # the paper grid's lattice over three budgets, shortest first
    cells = [_paper_cell(0.0, 0.0, s) for s in (200.0, 400.0, 800.0)]
    c, vp, bat, g, _ = cells[0]
    _forget_lattices()
    built = _spy(monkeypatch, "build_plan")
    lat, numbered = dp.Lattice(g, c.speed_limit_m_s, vp, bat, Prices()), 0
    for *_, budget in cells:
        n_t = lat.cover(budget + g.signal_margin_s)
        assert lat.n_t is n_t and len(lat.state_at) > numbered
        assert lat._plans is None and lat.plan_bytes == 0
        built.clear()
        plans = lat.plans()
        # both plans are built whole, one group per numbered state
        assert [(args[1:], len(plan.filled)) for args, plan in built] == [
            ((parity,), len(lat.state_at)) for parity in (0, 1)]
        numbered = len(lat.state_at)
        cold = dp.Lattice(g, c.speed_limit_m_s, vp, bat, Prices())
        cold.cover(budget + g.signal_margin_s)
        for plan, cold_plan in zip(plans, cold.plans()):
            for name, a, b in zip(plan._fields, plan, cold_plan):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
    _forget_lattices()


def test_a_context_counts_its_bins_once(monkeypatch):
    c, g, budget = random_tiny_instance(np.random.default_rng(3))
    _forget_lattices()
    counted = _spy(monkeypatch, "bins_within")
    for _ in range(2):  # on a fresh lattice, then on the warm one
        ctx = dp.DpContext(c, VehicleParams(), BatteryModel(), g, Prices(), budget)
        assert len(counted) == 1
        assert (ctx.n_t == counted[0][1]).all()
        counted.clear()


def test_second_context_prices_no_arc(monkeypatch):
    # the oracle and `optimize` each build a context of the same scenario
    c, vp, bat, g, budget = _paper_cell(15.0, 0.0, 400.0)
    arc_cost, priced = dp.motion_arc_cost, []

    def counted(*args):
        priced.append(args)
        return arc_cost(*args)

    monkeypatch.setattr(dp, "motion_arc_cost", counted)
    _forget_lattices()
    first = dp.DpContext(c, vp, bat, g, Prices(), budget)
    assert len(priced) == sum(len(src) for src in first.pair_sources(0))
    priced.clear()
    dp.DpContext(c, vp, bat, g, Prices(), budget)
    assert priced == []
    # the solve's backtrack reads its path's arcs off the warm lattice
    optimize(c, vp, bat, g, Prices(), budget_s=budget)
    assert priced == []


@pytest.mark.parametrize(
    "x, y, spacing, regen, waits",
    [
        (15.0, 15.0, 800.0, False, False),
        # wait arcs win zero-speed bins at both lines, but the plan never stops
        (-30.0, 0.0, 200.0, True, False),
        # the plan itself waits at a stop line
        (0.0, 0.0, 200.0, True, True),
    ],
)
def test_eco_columns_are_the_breakdown(x, y, spacing, regen, waits):
    # the plan's power, energy and SOH columns hold the arcs the breakdown
    # sums, so their last rows are the breakdown itself
    c, vp, bat, g, budget = _paper_cell(x, y, spacing, regen=regen)
    prices = Prices()
    res = optimize(c, vp, bat, g, prices, budget_s=budget)
    traj = res.trajectory
    assert any(a[0] == b[0] for a, b in zip(res.states, res.states[1:])) == waits
    assert traj.energy_cum[-1] / J_PER_KWH == res.breakdown.energy_kwh
    assert traj.soh_delta_cum[-1] == res.breakdown.soh_delta
    elec = 0.0
    for k in range(len(traj) - 1):
        x0, x1 = float(traj.x[k]), float(traj.x[k + 1])
        v0, v1 = float(traj.v[k]), float(traj.v[k + 1])
        if x1 > x0:
            arc = motion_arc_cost(v0, v1, x1 - x0, vp, bat, prices)
        else:
            arc = interval_cost(0.0, 0.0, g.time_step_s, vp, bat, prices)
        assert traj.p_batt[k] == arc.power_w
        elec += arc.electricity_usd
    assert elec == res.breakdown.electricity_usd
    assert res.breakdown.trip_time_s == traj.trip_time_s
