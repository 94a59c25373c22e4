"""Optimizer tests: feasibility, determinism and enumeration agreement."""
from dataclasses import replace

import numpy as np
import pytest

from ecocorridor import dp
from ecocorridor.baseline import simulate_regular
from ecocorridor.battery import BatteryModel
from ecocorridor.corridor import GradeProfile, Phase, make_corridor, phase_at
from ecocorridor.costs import Prices
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

        tab = ctx.tables(k)
        cost, dur = tab["cost"], tab["dur"]
        masks = [ctx.green_mask(k, i) for i in range(n_v)] if k in ctx.stop_nodes else None
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
                dest = np.rint((t_src + dur[i, j]) / dt_j + ctx.tie_eps(k)).astype(np.int64)
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


def _paper_cell_context(x, y, spacing, speed_step_m_s=0.5, grade_profile=None, regen=False):
    """Solver context of a paper-sweep cell, built as `run_scenario` builds it."""
    c = make_corridor(x, y, spacing_m=spacing, exit_buffer_m=200.0)
    if grade_profile is not None:
        c = replace(c, grade_profile=grade_profile)
    vp = VehicleParams(regen_enabled=regen)
    g = DpGridSpec(time_budget_mode="buffered", speed_step_m_s=speed_step_m_s)
    budget = time_budget(simulate_regular(c, vp).trip_time_s, g)
    return dp.DpContext(c, vp, BatteryModel(), g, Prices(), budget)


def _assert_matches_reference(ctx):
    ref_vals, ref_preds = _reference_forward_pass(ctx)
    vals, preds, waits = dp._run_dp(ctx)
    assert np.concatenate(ref_vals).tobytes() == vals.tobytes()
    assert len(preds) == len(ref_preds) == ctx.n_nodes
    for k, (ref, pred) in enumerate(zip(ref_preds, preds)):
        src_v = np.searchsorted(ctx.offsets, pred, side="right") - 1
        v = np.where(pred < 0, -1, src_v)
        t = np.where(pred < 0, -1, pred - ctx.offsets[src_v])
        wait = np.zeros(len(pred), dtype=bool)
        if k in waits:
            wait[: ctx.n_t[0]] = waits[k]
        for j in range(ctx.n_v):
            lo, hi = ctx.offsets[j], ctx.offsets[j + 1]
            assert np.array_equal(ref[j]["v"], v[lo:hi]), (k, j)
            assert np.array_equal(ref[j]["t"], t[lo:hi]), (k, j)
            assert np.array_equal(ref[j]["wait"], wait[lo:hi]), (k, j)
    return waits


def test_forward_pass_matches_reference_with_waits_at_both_lines():
    # with regeneration on, wait arcs win some zero-speed bins at both lines
    ctx = _paper_cell_context(-30.0, 0.0, 200.0, regen=True)
    waits = _assert_matches_reference(ctx)
    assert sorted(waits) == sorted(ctx.stop_nodes)
    assert all(w.any() for w in waits.values())


def test_forward_pass_matches_reference_on_halved_speed_step():
    # the paper cell whose default grid is infeasible and is solved again
    # with half the speed step; its plans run to several chunks
    ctx = _paper_cell_context(0.0, -15.0, 200.0, speed_step_m_s=0.25)
    assert len(dp._build_plan(ctx, 0)) > 1
    _assert_matches_reference(ctx)


def test_forward_pass_matches_reference_on_two_grades():
    # each grade gets its own plans and prices its stages from its own table
    grades = GradeProfile(breakpoints_m=(300.0,), grades=(0.02, -0.01))
    ctx = _paper_cell_context(15.0, 0.0, 200.0, grade_profile=grades)
    assert len(set(ctx.grade_by_stage.tolist())) == 2
    _assert_matches_reference(ctx)
