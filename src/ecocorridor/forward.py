"""Forward value recursion of the dynamic-programming optimizer.

A node's states are stored flat, speed-major: state (speed j, time bin tb)
sits at ``offsets[j] + tb``. An arc's duration and feasibility do not depend
on the grade, so its arrival bin depends only on the stage parity: each
parity gets one plan per solve that lists every candidate arc grouped by
destination state, and a stage is a gather, an add and a segment minimum
over that plan, priced from the cost table of the stage's grade. Ties
between equal-cost arcs go to the lowest source speed, then the latest
source bin.

A stage relaxes only the states of its window: per destination speed, the
bins between the earliest and the latest arrival from the reached source
bins, capped by a latest-bin bound past which the exit can no longer be
reached in time. Every state on a feasible path lies inside the windows,
and it gets the same value and predecessor as from the full recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .dp import DpContext

# Candidate arcs per numpy call in the forward pass and in the plan build. It
# bounds each temporary to about 128 KiB of float64 plus one destination
# speed's arcs, whatever the grid size; at 2**16 the temporaries left the
# allocator's heap for fresh pages, and the page faults cost more time and
# memory than the extra calls at 2**14.
_CHUNK = 1 << 14
# first bin of an empty window; above every bin of any grid
_NO_BIN = np.iinfo(np.int32).max


@dataclass(frozen=True)
class SolveStats:
    """Size of one solve."""

    states: int      # grid states over all nodes
    candidates: int  # motion-arc candidates in the full plans, over all stages
    relaxed: int     # candidates inside the stages' windows, the ones evaluated


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``arange(lo[r], hi[r])`` for every r, concatenated."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


class _Pairs(NamedTuple):
    """The feasible (source, destination) speed pairs, destination-major,
    with their bin widths and arc durations."""

    i: np.ndarray
    j: np.ndarray
    n_i: np.ndarray  # time bins of the source speed
    dt_i: np.ndarray
    dt_j: np.ndarray
    dur: np.ndarray

    @classmethod
    def of(cls, ctx: DpContext) -> "_Pairs":
        sources = ctx.pair_sources(0)
        i = np.concatenate(sources)
        j = np.repeat(np.arange(ctx.n_v), [len(src) for src in sources])
        return cls(i, j, ctx.n_t[i], ctx.dt[i], ctx.dt[j], ctx.tables(0)["dur"][i, j])

    def arrival_bins(self, tb: np.ndarray, eps: float) -> np.ndarray:
        """Rounded arrival bin of each pair's arc leaving source bin ``tb``,
        with the stage's ``DpContext.tie_eps``; nondecreasing in ``tb``. The
        plans, the windows and the latest-bin bound all round through this
        one expression, so they agree bit for bit."""
        return np.rint((tb * self.dt_i + self.dur) / self.dt_j + eps)

    def last_bins(self, bound: np.ndarray, eps: float) -> np.ndarray:
        """Per pair, the last source bin whose arc arrives in a bin at or
        below ``bound``, or -1."""
        # Start from the inverted expression, then move to the last bin
        # whose rounded arrival is within the bound: the rounding decides,
        # not the estimate.
        tb = np.floor(((bound + 0.5) * self.dt_j - self.dur) / self.dt_i)
        tb = np.minimum(np.maximum(tb, -1), self.n_i - 1).astype(np.int64)
        while True:
            up = (tb + 1 < self.n_i) & (self.arrival_bins(tb + 1, eps) <= bound)
            down = (tb >= 0) & (self.arrival_bins(tb, eps) > bound)
            if not (up.any() or down.any()):
                return tb
            tb += up
            tb -= down


def _chunks(counts: np.ndarray) -> list[tuple[int, int]]:
    """Runs ``[a, b)`` of whole destination speeds, each closed once it holds
    ``_CHUNK`` of ``counts``; runs that would hold nothing are dropped."""
    bounds, held = [0], 0
    for j, n in enumerate(counts.tolist()):
        held += n
        if held >= _CHUNK:
            bounds.append(j + 1)
            held = 0
    if held:
        bounds.append(len(counts))
    return list(zip(bounds, bounds[1:]))


def _build_plan(ctx: DpContext, pairs: _Pairs, stage: int) -> tuple[np.ndarray, ...]:
    """Every motion arc leaving a node of this stage's parity.

    Candidates are grouped by destination state in flat order, so the groups
    of one destination speed are a contiguous run in ascending time bin.
    Within a group they are ordered by source speed ascending, then source
    bin descending, so a group's first minimum breaks cost ties toward the
    lowest source speed, then the latest source bin. The plan is ``(src,
    pair, dest, starts, sizes)``: candidate ``c`` relaxes flat state
    ``src[c]`` at cost ``cost.ravel()[pair[c]]``, and group ``g`` holds the
    ``sizes[g]`` candidates ``starts[g]:starts[g + 1]`` and lands on flat
    state ``dest[g]``. It is built a chunk of destination speeds at a time.
    """
    pair_type = np.min_scalar_type(ctx.n_v * ctx.n_v)
    eps = ctx.tie_eps(stage)
    # arrival is nondecreasing in the source bin, so the arcs that land on the
    # grid leave the first n bins of their source speed
    n = pairs.last_bins(ctx.n_t[pairs.j] - 1, eps) + 1
    per_dest = np.zeros(ctx.n_v, dtype=np.int64)
    np.add.at(per_dest, pairs.j, n)
    src = np.empty(n.sum(), dtype=np.int32)
    pair = np.empty(n.sum(), dtype=pair_type)
    dests, starts, held = [], [], 0
    for ja, jb in _chunks(per_dest):
        p0, p1 = np.searchsorted(pairs.j, [ja, jb])
        m = n[p0:p1]
        arcs = _Pairs(*(np.repeat(a[p0:p1], m) for a in pairs))  # one per candidate
        # each source's bins, latest first
        tb = np.repeat(np.cumsum(m), m) - 1 - np.arange(m.sum())
        # flat destination from the chunk's first state; it fits 16 bits on
        # any practical grid, where a stable argsort is a radix sort
        span = int(ctx.offsets[jb] - ctx.offsets[ja])
        dest = ctx.offsets[arcs.j] - ctx.offsets[ja] + arcs.arrival_bins(tb, eps)
        dest = dest.astype(np.min_scalar_type(span))
        # stable, so sources keep their (speed ascending, bin descending) order
        order = np.argsort(dest, kind="stable")
        dest = dest[order]
        opens = np.ones(len(dest), dtype=bool)
        np.not_equal(dest[1:], dest[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        src[held:held + len(dest)] = (ctx.offsets[arcs.i] + tb)[order]
        pair[held:held + len(dest)] = (arcs.i * ctx.n_v + arcs.j)[order]
        dests.append((ctx.offsets[ja] + dest[first]).astype(np.int32))
        starts.append(held + first)
        held += len(dest)
    starts.append([held])
    starts = np.concatenate(starts).astype(np.int32)
    return src, pair, np.concatenate(dests), starts, np.diff(starts)


def _latest_bins(ctx: DpContext, pairs: _Pairs) -> np.ndarray:
    """Per node and speed, the last time bin from which the exit can still be
    reached at the speed limit within its ``n_t[top]`` bins (the budget plus
    ``signal_margin_s``), or -1.

    A backward pass over the feasible speed pairs on the binned clock.
    Signals are ignored, and so are waits, which only move a state later; so
    every state that can reach the exit lies at or below its bound.
    """
    latest = np.full((ctx.n_nodes, ctx.n_v), -1)
    latest[-1, ctx.top] = ctx.n_t[ctx.top] - 1
    for k in range(ctx.n_nodes - 2, -1, -1):
        np.maximum.at(latest[k], pairs.i, pairs.last_bins(latest[k + 1, pairs.j], ctx.tie_eps(k)))
    return latest


def _window(ctx: DpContext, vals: np.ndarray, stage: int, latest: np.ndarray,
            pairs: _Pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per destination speed, the bins ``[lo, hi]`` this stage can set.

    ``lo`` and the forward part of ``hi`` are the earliest and latest
    arrivals from the reached source bins; arrival is nondecreasing in the
    source bin, so each source speed's first and last reached bins give them.
    ``hi`` is capped by the next node's latest-bin bound.
    """
    lo = np.full(ctx.n_v, _NO_BIN)
    hi = np.full(ctx.n_v, -1)
    reached = np.flatnonzero(vals < np.inf)
    if len(reached):
        cut = np.searchsorted(reached, ctx.offsets)
        live = (cut[1:] > cut[:-1])[pairs.i]
        first = reached[np.minimum(cut[:-1], len(reached) - 1)] - ctx.offsets[:-1]
        last = reached[cut[1:] - 1] - ctx.offsets[:-1]
        eps = ctx.tie_eps(stage)
        early = pairs.arrival_bins(first[pairs.i], eps).astype(np.int64)
        late = pairs.arrival_bins(last[pairs.i], eps).astype(np.int64)
        np.minimum.at(lo, pairs.j, np.where(live, early, _NO_BIN))
        np.maximum.at(hi, pairs.j, np.where(live, late, -1))
    return lo, np.minimum(hi, latest)


def _relax(ctx: DpContext, plan: tuple, vals: np.ndarray, cost: np.ndarray,
           lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, tuple, int, int]:
    """One stage of motion arcs into the bins ``[lo[j], hi[j]]`` of each
    destination speed ``j``.

    Returns the new values (inf outside the windows); the predecessors as
    ``(dest, pred)``, ascending flat states with their first argmin (-1
    where unreached); and the number of candidates evaluated and of chunks
    they took.
    """
    src, pair, dest, starts, group_sizes = plan
    new = np.full(len(vals), np.inf)
    base = ctx.offsets[:-1]
    g0 = np.searchsorted(dest, base + lo)
    g1 = np.maximum(np.searchsorted(dest, base + hi, side="right"), g0)
    c0, c1 = starts[g0], starts[g1]
    chunks = _chunks(c1 - c0)
    dests, preds = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for a, b in chunks:
        groups = _ranges(g0[a:b], g1[a:b])
        sizes = group_sizes[groups]
        firsts = np.cumsum(sizes) - sizes
        cand_idx = _ranges(c0[a:b], c1[a:b])
        s = src[cand_idx]
        cand = vals[s] + cost[pair[cand_idx]]
        best = np.minimum.reduceat(cand, firsts)
        # every group holds its own minimum (inf too), so the first hit at
        # or after a group's start lies inside that group
        hits = np.flatnonzero(cand == np.repeat(best, sizes))
        d = dest[groups]
        new[d] = best
        dests.append(d)
        preds.append(np.where(best < np.inf, s[hits[np.searchsorted(hits, firsts)]], -1))
    return new, (np.concatenate(dests), np.concatenate(preds)), int((c1 - c0).sum()), len(chunks)


@dataclass
class ForwardPass:
    vals: np.ndarray              # exit-node values, flat
    preds: list[tuple]            # per node: (dest, pred) as from _relax
    waits: dict[int, np.ndarray]  # per stop-line node: zero-speed bins a wait arc gave
    lo: np.ndarray                # (node, speed): first bin of the state window
    latest: np.ndarray            # (node, speed): last bin of the state window
    stats: SolveStats
    chunks: int                   # chunks relaxed over all stages

    def pred(self, node: int, state: int) -> int:
        """Flat state at the previous node that gave ``state`` at ``node``
        its value, or -1."""
        dest, pred = self.preds[node]
        at = int(np.searchsorted(dest, state))
        return int(pred[at]) if at < len(dest) and dest[at] == state else -1


def forward_pass(ctx: DpContext) -> ForwardPass:
    """Forward value recursion over flat states.

    Only states inside a node's window, bins ``lo`` to ``latest`` per speed,
    are set; every state that lies on a feasible path is inside. A state
    outside keeps value inf, predecessor -1 and no wait flag, even where the
    full recursion would reach it (it could not reach the exit from there).
    """
    pairs = _Pairs.of(ctx)
    latest = _latest_bins(ctx, pairs)
    lo = np.full((ctx.n_nodes, ctx.n_v), _NO_BIN)
    vals = np.full(int(ctx.offsets[-1]), np.inf)
    if latest[0, ctx.top] >= 0:
        vals[ctx.offsets[ctx.top]] = 0.0
        lo[0, ctx.top] = 0
    preds = [(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32))]
    waits: dict[int, np.ndarray] = {}
    plans: dict[int, tuple] = {}
    candidates = relaxed = chunks = 0

    for k in range(ctx.n_nodes - 1):
        if k in ctx.stop_nodes:
            # wait arcs at a stop-line node, applied on arrival before
            # departure to the zero-speed states (the first n_t[0] flat
            # states); each one extends the previous, so they run in order
            w = ctx.wait_cost.total_usd
            waited = waits[k] = np.zeros(ctx.n_t[0], dtype=bool)
            for tb in range(lo[k, 0] + 1, latest[k, 0] + 1):
                cand = vals[tb - 1] + w
                if cand < vals[tb]:
                    vals[tb] = cand
                    waited[tb] = True
            green = np.concatenate([ctx.green_mask(k, i) for i in range(ctx.n_v)])
            vals = np.where(green, vals, np.inf)
        if k % 2 not in plans:
            plans[k % 2] = _build_plan(ctx, pairs, k)
        lo[k + 1], hi = _window(ctx, vals, k, latest[k + 1], pairs)
        vals, pred, n, c = _relax(ctx, plans[k % 2], vals, ctx.tables(k)["cost"].ravel(),
                                  lo[k + 1], hi)
        preds.append(pred)
        candidates += len(plans[k % 2][0])
        relaxed += n
        chunks += c
    stats = SolveStats(int(ctx.offsets[-1]) * ctx.n_nodes, candidates, relaxed)
    return ForwardPass(vals, preds, waits, lo, latest, stats, chunks)
