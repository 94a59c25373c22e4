"""Forward value recursion of the dynamic-programming optimizer.

States are numbered in time order (``time_order``), so the states of a
budget are a prefix of one numbering per grid. An arc's duration and
feasibility do not depend on the budget, so its arrival state depends only
on the grid and the stage parity: each parity has one plan per grid that
lists every candidate arc grouped by destination state, in state order. The
plans and the one arc-cost table live on the grid's lattice
(``dp.Lattice``), and a stage relaxes one contiguous run of their groups: a
gather, an add and a segment minimum. Ties between equal-cost arcs go to the
lowest source speed, then the latest source bin.

A stage sets only the states of its window: per destination speed, the
bins between the earliest and the latest arrival from the reached source
bins, capped by a latest-bin bound past which the exit can no longer be
reached in time. Every state on a feasible path lies inside the windows,
and it gets the same value and predecessor as from the full recursion.
Predecessors are not stored: the backtrack recomputes each one from the
values that the previous node's departures read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .dp import DpContext, Lattice

# Candidate arcs per numpy call in the forward pass and in the plan build. It
# bounds each temporary to about 128 KiB of float64 plus one group's arcs,
# whatever the grid size; at 2**16 the temporaries left the allocator's heap
# for fresh pages, and the page faults cost more time and memory than the
# extra calls at 2**14.
_CHUNK = 1 << 14
# first bin of an empty window; above every bin of any grid
_NO_BIN = np.iinfo(np.int32).max


def bins_within(dt: np.ndarray, allowed_s: float) -> np.ndarray:
    """Per speed, the number of time bins that start by ``allowed_s``: bin
    tb holds the arrivals that round to it, from (tb - 1/2) dt on."""
    return np.array([
        np.searchsorted((np.arange(math.floor(allowed_s / d + 0.5) + 2) - 0.5) * d, allowed_s,
                        side="right")
        for d in dt.tolist()
    ])


def tie_eps(stage: int) -> float:
    """Nudge applied before rounding an arrival time to a bin.

    An arc whose duration is an exact half-bin multiple (cruise at a
    resonant speed) would otherwise round the same way at every stage and
    the binned clock would drift from the physical one without bound;
    alternating the tie direction by stage parity keeps the drift bounded.
    """
    return 1e-7 if stage % 2 == 0 else -1e-7


def time_order(dt: np.ndarray, n_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the states with ``n_t[j]`` time bins at speed ``j`` in time
    order: by the start of their bin, (tb - 1/2) dt[j], then by speed.

    Returns each state's speed and bin, and the state of each speed-major
    index ``offsets[j] + tb``. The order of two states does not depend on
    ``n_t``, so the states that start by a given time, the states of a
    budget (``bins_within``), are a prefix of one numbering of the grid.
    """
    speed = np.repeat(np.arange(len(n_t)), n_t)
    tb = np.arange(len(speed)) - np.repeat(np.cumsum(n_t) - n_t, n_t)
    order = np.argsort((tb - 0.5) * dt[speed], kind="stable")
    at = np.empty(len(order), dtype=np.int32)
    at[order] = np.arange(len(order))
    return (speed[order].astype(np.min_scalar_type(len(n_t))),
            tb[order].astype(np.min_scalar_type(max(n_t))), at)


@dataclass(frozen=True)
class SolveStats:
    """Size of one solve."""

    states: int      # grid states over all nodes
    candidates: int  # motion-arc candidates into the budget's states, over all stages
    relaxed: int     # candidates of the stages' relaxed runs, the ones evaluated


class Pairs(NamedTuple):
    """The feasible (source, destination) speed pairs, destination-major,
    with their bin widths and arc durations."""

    i: np.ndarray
    j: np.ndarray
    dt_i: np.ndarray
    dt_j: np.ndarray
    dur: np.ndarray

    def arrival_bins(self, tb: np.ndarray, eps: float) -> np.ndarray:
        """Rounded arrival bin of each pair's arc leaving source bin ``tb``,
        with the stage's ``tie_eps``; nondecreasing in ``tb``. The
        plans, the windows and the latest-bin bound all round through this
        one expression, so they agree bit for bit."""
        return np.rint((tb * self.dt_i + self.dur) / self.dt_j + eps)

    def last_bins(self, bound: np.ndarray, eps: float, n_i: np.ndarray) -> np.ndarray:
        """Per pair, the last of the ``n_i`` bins of its source speed whose
        arc arrives in a bin at or below ``bound``, or -1."""
        # Start from the inverted expression, then move to the last bin
        # whose rounded arrival is within the bound: the rounding decides,
        # not the estimate.
        tb = np.floor(((bound + 0.5) * self.dt_j - self.dur) / self.dt_i)
        tb = np.minimum(np.maximum(tb, -1), n_i - 1).astype(np.int64)
        while True:
            up = (tb + 1 < n_i) & (self.arrival_bins(tb + 1, eps) <= bound)
            down = (tb >= 0) & (self.arrival_bins(tb, eps) > bound)
            if not (up.any() or down.any()):
                return tb
            tb += up
            tb -= down


class _Runs(NamedTuple):
    """One run per speed over a per-pair array whose pairs are sorted by
    that speed: a reduction over each run is faster than ``ufunc.at`` by an
    order of magnitude."""

    first: np.ndarray   # each run's first pair, clipped into the array
    filled: np.ndarray  # the runs that hold a pair

    @classmethod
    def of(cls, speed: np.ndarray, n_v: int) -> "_Runs":
        cut = np.searchsorted(speed, np.arange(n_v + 1))
        return cls(cut[:-1].clip(max=len(speed) - 1), cut[1:] > cut[:-1])

    def reduce(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """``ufunc`` over each run; ``empty`` for an empty one."""
        return np.where(self.filled, ufunc.reduceat(values, self.first), empty)


class _Plan(NamedTuple):
    """Every motion arc of one stage parity, grouped by destination state.

    Group ``g`` lands on state ``g`` and holds candidates
    ``starts[g]:starts[g + 1]``: candidate ``c`` relaxes state ``src[c]`` at
    cost ``cost.ravel()[pair[c]]``. Within a group, candidates are ordered by
    source speed ascending, then source bin descending, so a group's first
    minimum breaks cost ties toward the lowest source speed, then the latest
    source bin. ``filled`` marks the groups that hold a candidate.
    """

    src: np.ndarray
    pair: np.ndarray
    starts: np.ndarray
    filled: np.ndarray


def build_plan(lat: Lattice, stage: int) -> _Plan:
    """A stage parity's plan over the lattice's numbered states. It is built
    a run of destination states at a time, each run holding at most two
    chunks of candidates."""
    eps = tie_eps(stage)
    pairs, offsets, at = lat.pairs, lat.offsets, lat.state_at
    n_i = lat.n_t[pairs.i]
    n = len(at)

    def landing_before(state: int) -> np.ndarray:
        """Per pair, the source bins whose arcs land on a state before ``state``."""
        bins = [np.searchsorted(at[offsets[j]:offsets[j + 1]], state) for j in range(lat.n_v)]
        return pairs.last_bins(np.array(bins)[pairs.j] - 1, eps, n_i) + 1

    total = landing_before(n)
    count = int(total.sum())
    src = np.empty(count, dtype=np.int32)
    pair = np.empty(count, dtype=np.min_scalar_type(lat.n_v * lat.n_v))
    sizes = np.zeros(n, dtype=np.int64)
    step = max(1, n * _CHUNK // max(1, count))
    # no arc lands before state 0
    a, held, low = 0, 0, np.zeros_like(total)
    while a < n:
        b = min(n, a + step)
        high = total if b == n else landing_before(b)
        while b > a + 1 and (high - low).sum() > 2 * _CHUNK:
            b = (a + b) // 2
            high = landing_before(b)
        m = high - low
        arcs = Pairs(*(np.repeat(x, m) for x in pairs))  # one per candidate
        # each pair's source bins, latest first
        tb = np.repeat(high, m) - 1 - (np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m))
        dest = at[offsets[arcs.j] + arcs.arrival_bins(tb, eps).astype(np.int64)] - a
        # a stable radix sort, so sources keep their (speed ascending, bin
        # descending) order within a destination
        order = np.argsort(dest.astype(np.min_scalar_type(b - a)), kind="stable")
        src[held:held + len(order)] = at[offsets[arcs.i] + tb][order]
        pair[held:held + len(order)] = (arcs.i * lat.n_v + arcs.j)[order]
        sizes[a:b] = np.bincount(dest, minlength=b - a)
        held += len(order)
        a, low = b, high
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int32)
    return _Plan(src, pair, starts, sizes > 0)


def _latest_bins(ctx: DpContext, pairs: Pairs) -> np.ndarray:
    """Per node and speed, the last time bin from which the exit can still be
    reached at the speed limit within its ``n_t[top]`` bins (the budget plus
    ``signal_margin_s``), or -1.

    A backward pass over the feasible speed pairs on the binned clock.
    Signals are ignored, and so are waits, which only move a state later; so
    every state that can reach the exit lies at or below its bound.
    """
    latest = np.full((ctx.n_nodes, ctx.n_v), -1)
    latest[-1, ctx.top] = ctx.n_t[ctx.top] - 1
    by_source = np.argsort(pairs.i, kind="stable")
    runs = _Runs.of(pairs.i[by_source], ctx.n_v)
    n_i = ctx.n_t[pairs.i]
    for k in range(ctx.n_nodes - 2, -1, -1):
        last = pairs.last_bins(latest[k + 1, pairs.j], tie_eps(k), n_i)
        latest[k] = runs.reduce(np.maximum, last[by_source], -1)
    return latest


def _reached_bins(ctx: DpContext, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per speed, the first and last bins of the states ``vals`` reaches;
    ``_NO_BIN`` and -1 for a speed it does not reach."""
    reached = np.flatnonzero(vals < np.inf)
    speed = ctx.state_speed[reached]
    count = np.bincount(speed, minlength=ctx.n_v)
    end = np.cumsum(count)
    bins = np.append(ctx.state_bin[reached][np.argsort(speed, kind="stable")], -1)
    return np.where(count > 0, bins[end - count], _NO_BIN), np.where(count > 0, bins[end - 1], -1)


def _window(first: np.ndarray, last: np.ndarray, stage: int,
            latest: np.ndarray, pairs: Pairs, by_dest: _Runs) -> tuple[np.ndarray, np.ndarray]:
    """Per destination speed, the bins ``[lo, hi]`` this stage can set.

    ``first`` and ``last`` bound the reached bins of each source speed, and
    ``first`` is reached itself. Arrival is nondecreasing in the source bin,
    so ``lo`` is the earliest arrival, and reached; the forward part of
    ``hi`` is the latest arrival from ``last``, and it is capped by the next
    node's latest-bin bound.
    """
    live = (first <= last)[pairs.i]
    eps = tie_eps(stage)
    early = np.where(live, pairs.arrival_bins(first[pairs.i], eps), _NO_BIN)
    late = np.where(live, pairs.arrival_bins(last[pairs.i], eps), -1)
    lo = by_dest.reduce(np.minimum, early, _NO_BIN).astype(np.int64)
    hi = by_dest.reduce(np.maximum, late, -1).astype(np.int64)
    return lo, np.minimum(hi, latest)


def _relax(ctx: DpContext, plan: _Plan, vals: np.ndarray, cost: np.ndarray,
           lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, tuple[int, np.ndarray], int, int]:
    """One stage of motion arcs into the bins ``[lo[j], hi[j]]`` of each
    destination speed ``j``.

    It relaxes the run of groups from the earliest window state to the
    latest one and keeps the states inside the windows. Returns the new
    values (inf outside the windows); the run as its first state and its
    values; the number of candidates evaluated; and the number of chunks
    they took.
    """
    new = np.full(len(vals), np.inf)
    live = np.flatnonzero(lo <= hi)
    if not len(live):
        return new, (0, np.zeros(0)), 0, 0
    base = ctx.offsets[live]
    g0 = int(ctx.state_at[base + lo[live]].min())
    g1 = int(ctx.state_at[base + hi[live]].max()) + 1
    starts = plan.starts
    run = np.full(g1 - g0, np.inf)
    chunks = 0
    a = g0
    while a < g1:
        # whole groups of at most _CHUNK candidates, and at least one group
        b = int(np.searchsorted(starts, starts[a] + _CHUNK, side="right")) - 1
        b = min(g1, max(a + 1, b))
        # empty groups at the end of a chunk stay inf
        e = int(np.searchsorted(starts[a:b + 1], starts[b])) + a
        if e > a:
            ca, ce = int(starts[a]), int(starts[e])
            # numpy indexes with intp; casting first is twice as fast as
            # letting the indexing cast the narrow plan arrays
            cand = vals[plan.src[ca:ce].astype(np.intp)]
            cand += cost[plan.pair[ca:ce].astype(np.intp)]
            best = np.minimum.reduceat(cand, starts[a:e] - ca)
            cap = hi[ctx.state_speed[a:e].astype(np.intp)]
            keep = plan.filled[a:e] & (ctx.state_bin[a:e] <= cap)
            run[a - g0:e - g0] = np.where(keep, best, np.inf)
            chunks += 1
        a = b
    new[g0:g1] = run
    return new, (g0, run), int(starts[g1] - starts[g0]), chunks


@dataclass
class ForwardPass:
    vals: np.ndarray              # exit-node values, per state
    # per node but the exit: the values its departures read (after waits
    # and the green gate), as a first state and the run of values from it
    # that holds every reached state
    departures: list[tuple[int, np.ndarray]]
    waits: dict[int, np.ndarray]  # per stop-line node: zero-speed bins a wait arc gave
    lo: np.ndarray                # (node, speed): first bin of the state window
    latest: np.ndarray            # (node, speed): last bin of the state window
    stats: SolveStats
    chunks: int                   # chunks relaxed over all stages
    ctx: DpContext

    def pred(self, node: int, state: int) -> int:
        """State at the previous node that gave ``state`` at ``node`` its
        value, or -1: the first minimum of the state's group, recomputed
        from the values the previous node's departures read, as the stage
        computed it."""
        j, tb = self.ctx.unflatten(state)
        if node == 0 or not self.lo[node, j] <= tb <= self.latest[node, j]:
            return -1
        plan = self.ctx.lattice.plans()[(node - 1) % 2]
        a, b = int(plan.starts[state]), int(plan.starts[state + 1])
        first, dep = self.departures[node - 1]
        at = plan.src[a:b] - first
        reached = (at >= 0) & (at < len(dep))  # the run holds every reached source
        cand = np.full(b - a, np.inf)
        cand[reached] = dep[at[reached]]
        cand += self.ctx.lattice.cost.ravel()[plan.pair[a:b]]
        best = int(np.argmin(cand)) if b > a else 0
        return int(plan.src[a + best]) if b > a and cand[best] < np.inf else -1


def _run(vals: np.ndarray) -> tuple[int, np.ndarray]:
    """First reached state and the values from it to the last reached one."""
    reached = np.flatnonzero(vals < np.inf)
    if not len(reached):
        return 0, np.zeros(0)
    return int(reached[0]), vals[reached[0]:reached[-1] + 1].copy()


def forward_pass(ctx: DpContext) -> ForwardPass:
    """Forward value recursion over the states in time order.

    Only states inside a node's window, bins ``lo`` to ``latest`` per speed,
    are set; every state that lies on a feasible path is inside. A state
    outside keeps value inf, predecessor -1 and no wait flag, even where the
    full recursion would reach it (it could not reach the exit from there).
    """
    pairs, cost = ctx.lattice.pairs, ctx.lattice.cost.ravel()
    latest = _latest_bins(ctx, pairs)
    plans = ctx.lattice.plans()
    by_dest = _Runs.of(pairs.j, ctx.n_v)
    lo = np.full((ctx.n_nodes, ctx.n_v), _NO_BIN)
    hi = np.full(ctx.n_v, -1)
    vals = np.full(ctx.n_states, np.inf)
    if latest[0, ctx.top] >= 0:
        vals[ctx.state(ctx.top, 0)] = 0.0
        lo[0, ctx.top] = hi[ctx.top] = 0
    departures: list[tuple[int, np.ndarray]] = []
    waits: dict[int, np.ndarray] = {}
    run = _run(vals)
    candidates = relaxed = chunks = 0

    for k in range(ctx.n_nodes - 1):
        first, last = lo[k], hi
        if k in ctx.stop_nodes:
            # wait arcs at a stop-line node, applied on arrival before
            # departure to the zero-speed states; each one extends the
            # previous, so they run in order
            w = ctx.wait_cost.total_usd
            waited = waits[k] = np.zeros(ctx.n_t[0], dtype=bool)
            zero = ctx.state_at[:ctx.n_t[0]]
            v0 = vals[zero].tolist()
            for tb in range(lo[k, 0] + 1, latest[k, 0] + 1):
                cand = v0[tb - 1] + w
                if cand < v0[tb]:
                    v0[tb] = cand
                    waited[tb] = True
            vals[zero] = v0
            vals = np.where(ctx.green_states(k), vals, np.inf)
            first, last = _reached_bins(ctx, vals)
            run = _run(vals)
        departures.append(run)
        plan_k = plans[k % 2]
        lo[k + 1], hi = _window(first, last, k, latest[k + 1], pairs, by_dest)
        vals, run, n, c = _relax(ctx, plan_k, vals, cost, lo[k + 1], hi)
        candidates += int(plan_k.starts[ctx.n_states])
        relaxed += n
        chunks += c
    stats = SolveStats(ctx.n_states * ctx.n_nodes, candidates, relaxed)
    return ForwardPass(vals, departures, waits, lo, latest, stats, chunks, ctx)
