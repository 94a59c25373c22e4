"""Span recorder and the module-attribute wrappers that feed it.

Every layer is measured from outside the package: ``install`` replaces the
module attributes the pipeline looks up (``study.run_scenario``,
``study.optimize``, ``dp.DpContext``, ...) with wrappers that time each call.
Nothing under ``src/ecocorridor`` changes.

A span is (id, name, start, end, parent). Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus the
part of it that its child spans cover.

``study.sweep(jobs=2)`` runs cells in forked pool workers, which inherit the
wrappers and the open ``study.sweep`` span. A worker appends what it recorded
to ``<spool>/<pid>.jsonl`` after each cell, and the parent merges those files
once the sweep returns.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# counts derived from DpContext attributes rather than counted in the search
FROM_CONTEXT = ("dp.states", "dp.arc_pairs")


class Probe:
    """Op latencies and op counts always; spans and layer counts only when
    ``tracing``."""

    def __init__(self, tracing: bool, spool: Path) -> None:
        self.tracing = tracing
        self.recording = True  # off while the benchmark re-checks outputs
        self.spool = spool
        self.owner_pid = os.getpid()
        self.op_times: list[float] = []
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[str, str]] = []  # open spans: (id, name)
        self._ids = itertools.count()
        self._adopted = False

    @contextmanager
    def span(self, name: str):
        """Time a block; keep it as a span when tracing. Yields the record."""
        parent = self.stack[-1][0] if self.stack else None
        rec = {"id": f"{os.getpid()}:{next(self._ids)}", "name": name,
               "parent": parent, "start": time.perf_counter()}
        self.stack.append((rec["id"], name))
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            if self.tracing:
                self.spans.append(rec)

    def parent_name(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    # -- pool workers -------------------------------------------------------
    def in_worker(self) -> bool:
        if os.getpid() == self.owner_pid:
            return False
        if not self._adopted:
            # a forked worker starts with a copy of the parent's records
            self._adopted = True
            self.op_times, self.spans, self.counts = [], [], Counter()
        return True

    def flush_worker(self) -> None:
        line = json.dumps({"op_times": self.op_times, "spans": self.spans,
                           "counts": dict(self.counts)})
        with open(self.spool / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.op_times, self.spans, self.counts = [], [], Counter()

    def collect_workers(self) -> int:
        """Merge and delete worker spool files; return how many ops they held."""
        n = 0
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                n += len(rec["op_times"])
                self.op_times.extend(rec["op_times"])
                self.spans.extend(rec["spans"])
                self.counts.update(rec["counts"])
            path.unlink()
        return n


def install(probe: Probe) -> None:
    """Wrap the pipeline's module attributes: the op wrappers always, the
    layer wrappers only when tracing."""
    from ecocorridor import advisory, baseline, dp, oracle, study

    def wrap(fn, name, after=None, op=False):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not probe.recording:
                return fn(*args, **kwargs)
            worker = op and probe.in_worker()
            try:
                with probe.span(name) as rec:
                    out = fn(*args, **kwargs)
                    if after is not None:
                        after(rec, out)
                    return out
            finally:
                if op:
                    probe.op_times.append(rec["end"] - rec["start"])
                if worker:
                    probe.flush_worker()
        return wrapper

    def count(key, n):
        probe.counts[key] += n

    study.run_scenario = wrap(study.run_scenario, "study.run_scenario", op=True)

    def after_case(rec, out):
        count("oracle.paths_enumerated", out["paths_enumerated"])
        count("oracle.mismatches", not out["agree"])

    oracle.verify_against_enumeration = wrap(
        oracle.verify_against_enumeration, "oracle.case", after_case, op=True)
    if not probe.tracing:
        return

    regular = wrap(baseline.simulate_regular, "baseline.simulate_regular",
                   lambda rec, traj: count("baseline.samples", len(traj)))
    baseline.simulate_regular = study.simulate_regular = regular
    advisory.simulate_advised_driver = wrap(
        advisory.simulate_advised_driver, "advisory.simulate_advised_driver",
        lambda rec, traj: count("advisory.samples", len(traj)))

    evaluate = study.evaluate_trajectory

    @functools.wraps(evaluate)
    def evaluate_counted(traj, *args, **kwargs):
        if probe.recording:
            count("trajectory.samples_priced", len(traj))
        return evaluate(traj, *args, **kwargs)

    study.evaluate_trajectory = wrap(evaluate_counted, "study.evaluate_trajectory")
    study.optimize = dp.optimize = wrap(dp.optimize, "dp.optimize")

    ctx_cls = dp.DpContext

    @functools.wraps(ctx_cls, updated=())
    def context(*args, **kwargs):
        solving = probe.parent_name() == "dp.optimize"
        ctx = wrapped_ctx(*args, **kwargs)
        if solving and probe.recording:
            count("dp.states", int(ctx.n_t.sum()) * ctx.n_nodes)
            count("dp.arc_pairs", sum(
                len(src) for k in range(ctx.n_nodes - 1) for src in ctx.pair_sources(k)))
        return ctx

    wrapped_ctx = wrap(ctx_cls, "dp.context")
    dp.DpContext = context

    arc_cost = dp.motion_arc_cost

    @functools.wraps(arc_cost)
    def arc_counted(*args, **kwargs):
        if probe.recording:
            count("costs.arcs_priced", 1)
        return arc_cost(*args, **kwargs)

    dp.motion_arc_cost = arc_counted


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(kids.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict], counts: Counter) -> dict[str, float]:
    """Per-layer totals, named ``<module>.<metric>``."""
    own = self_times(spans)
    total = Counter()
    total_self = Counter()
    n = Counter()
    feasible_solves = 0
    solves_under = Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        total_self[s["name"]] += own[s["id"]]
        n[s["name"]] += 1
        if s["name"] == "dp.optimize":
            feasible_solves += "error" not in s
            solves_under[s["parent"]] += 1
    scenario_ids = {s["id"] for s in spans if s["name"] == "study.run_scenario"}
    solves = n["dp.optimize"]
    return {
        "dp.search_s": total_self["dp.optimize"],
        "dp.context_s": total["dp.context"],
        "dp.states": counts["dp.states"],
        "dp.arc_pairs": counts["dp.arc_pairs"],
        "dp.solves": solves,
        "dp.fallback_solves": sum(
            k - 1 for pid, k in solves_under.items() if pid in scenario_ids and k > 1),
        "dp.useful_solve_frac": feasible_solves / solves if solves else 0.0,
        "costs.arcs_priced": counts["costs.arcs_priced"],
        "baseline.simulate_regular_s": total["baseline.simulate_regular"],
        "baseline.samples": counts["baseline.samples"],
        "advisory.simulate_advised_driver_s": total["advisory.simulate_advised_driver"],
        "advisory.samples": counts["advisory.samples"],
        "study.evaluate_trajectory_s": total["study.evaluate_trajectory"],
        "trajectory.samples_priced": counts["trajectory.samples_priced"],
        "study.run_scenario_self_s": total_self["study.run_scenario"],
        "study.sweep_self_s": total_self["study.sweep"],
        "study.sweep_ipc_bytes": counts["study.sweep_ipc_bytes"],
        "oracle.enumerate_s": total_self["oracle.case"],
        "oracle.paths_enumerated": counts["oracle.paths_enumerated"],
        "report.render_s": total["report.render_reports"],
        "report.files": counts["report.files"],
        "report.bytes": counts["report.bytes"],
    }
