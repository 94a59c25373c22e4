"""Benchmark of the ecocorridor pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from a single process in a closed loop (the next op starts
when the previous one has finished) for about S seconds of measured time,
checks every output, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` records spans around each
layer and reports the per-layer ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 11
TAIL_PERCENTILES = (95.0, 50.0)
JOBS = 2

# Work done by a traced run, per second of --seconds. A traced run does a
# fixed amount of work so that its counts repeat exactly; these rates make it
# last about --seconds at commit aafbf22 on a 2-vCPU Xeon.
TRACE_RATE = {"sweep-serial": 0.17, "sweep-jobs2": 0.07, "drivers": 100.0, "oracle": 2.5}

# A workload that runs but is not listed in BENCHMARK.json: at every seed
# about 3% of its scenarios hit the known criterion-8 defects, so it never
# runs clean, and a listed workload must.
UNLISTED_WHY = {
    "drivers": "Criterion-8 scenarios through the regular driver, the advised driver "
               "and trajectory pricing, with no DP: the layers a sweep hides.",
}


@dataclass
class Ctx:
    probe: object  # probe.Probe
    cfg: object  # ecocorridor.config.RunConfig
    work: Path  # scratch directory inside the checkout
    inputs: object  # inputs.make_inputs(...)


@dataclass
class Outcome:
    """What a workload run did. Op latencies come from the probe."""

    attempted: int = 0
    failures: dict[int, list[str]] = field(default_factory=dict)  # op index -> why
    measured_s: float = 0.0
    peak_rss_mb: float = 0.0

    def fail(self, op: int, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(op, []).extend(messages)


class Loop:
    """Closed-loop budget in whole units (an op, a batch, a block or a
    sweep): a fixed number of units when tracing, else the first unit and
    every further one expected to end within --seconds of measured time."""

    def __init__(self, workload: str, seconds: float, tracing: bool) -> None:
        self.seconds = seconds
        self.units = max(1, round(TRACE_RATE[workload] * seconds)) if tracing else None
        self.done = 0

    def more(self, out: Outcome) -> bool:
        if self.units is not None:
            return self.done < self.units
        if self.done == 0:
            return True
        return out.measured_s + out.measured_s / self.done <= self.seconds


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def render(ctx: Ctx, res, out: Outcome, tag: str) -> None:
    """``report.render_reports`` into a scratch directory inside the checkout."""
    from ecocorridor import report

    probe = ctx.probe
    dest = ctx.work / f"reports-{tag}"
    t0 = time.perf_counter()
    with probe.span("report.render_reports"):
        paths = report.render_reports(res, dest)
    out.measured_s += time.perf_counter() - t0
    if probe.tracing:
        probe.counts["report.files"] += len(paths)
        probe.counts["report.bytes"] += sum(p.stat().st_size for p in paths)
    shutil.rmtree(dest)


def run_cell(spec):
    """One sweep cell, recorded the way ``study.sweep`` records it, and what
    kind of failure left it without a result."""
    from ecocorridor import dp, study

    timing = (spec.time_to_red_first_s, spec.time_to_red_second_s)
    try:
        return study.SweepCell(timing, spec.spacing_m, study.run_scenario(spec)), ""
    except dp.InfeasibleScenarioError as exc:
        return study.SweepCell(timing, spec.spacing_m, None, str(exc)), "infeasible"
    except Exception as exc:  # a crash is a failed op, not the end of the run
        return study.SweepCell(timing, spec.spacing_m, None, str(exc)), type(exc).__name__


def check_cell(cell, kind: str = "no result") -> list[str]:
    import checks

    tag = f"cell [{cell.timing[0]:g} {cell.timing[1]:g}]/{cell.spacing_m:g}"
    if cell.result is None:
        return [f"{tag}: {kind}: {cell.error}"]
    return checks.check_scenario(tag, cell.result.spec, cell.result)


def run_sweep_serial(ctx: Ctx, loop: Loop) -> Outcome:
    from ecocorridor import study

    cfg = ctx.cfg
    out, cells = Outcome(), []
    for block in itertools.cycle(ctx.inputs):
        if not loop.more(out):
            break
        t0 = time.perf_counter()
        done = []
        for x, y, s in block:
            spec = replace(cfg.base, time_to_red_first_s=x, time_to_red_second_s=y, spacing_m=s)
            done.append(run_cell(spec))
        out.measured_s += time.perf_counter() - t0
        for cell, kind in done:
            out.fail(out.attempted, check_cell(cell, kind))
            out.attempted += 1
            cells.append(cell)
        loop.done += 1
    pairs = [(x, y) for x in cfg.timings_s for y in cfg.timings_s]
    render(ctx, study.SweepResult(pairs, list(cfg.spacings_m), cells), out, "serial")
    out.peak_rss_mb = rss_mb()
    return out


def run_sweep_jobs2(ctx: Ctx, loop: Loop) -> Outcome:
    from ecocorridor import report, study

    probe, cfg = ctx.probe, ctx.cfg
    out = Outcome()
    first_unit = None
    for timings, spacings in itertools.cycle(ctx.inputs):
        if not loop.more(out):
            break
        t0 = time.perf_counter()
        with probe.span("study.sweep"):
            res = study.sweep(cfg.base, timings, spacings, jobs=JOBS)
        out.measured_s += time.perf_counter() - t0
        render(ctx, res, out, "jobs2")
        n_ops = probe.collect_workers()
        if n_ops != len(res.cells):
            raise RuntimeError(
                f"{n_ops} worker op times for {len(res.cells)} cells: the pool "
                "workers did not inherit the probe (is the start method fork?)")
        if first_unit is None:
            first_unit = (out.attempted, res)
        for cell in res.cells:
            out.fail(out.attempted, check_cell(cell))
            out.attempted += 1
            if probe.tracing:
                probe.counts["study.sweep_ipc_bytes"] += len(pickle.dumps(cell))
        loop.done += 1
    out.peak_rss_mb = rss_mb() + JOBS * rss_mb(resource.RUSAGE_CHILDREN)

    # determinism: the first sweep's cells at the shortest spacing, re-run
    # with jobs=1, must give byte-identical CSV
    base_op, res = first_unit
    sub_t, sub_s = ctx.inputs[0][0], min(ctx.inputs[0][1])
    probe.recording = False
    try:
        serial = study.sweep(cfg.base, sub_t, [sub_s], jobs=1)
    finally:
        probe.recording = True
    picked = [(base_op + k, c) for k, c in enumerate(res.cells) if c.spacing_m == sub_s]
    parallel = study.SweepResult(serial.timings, serial.spacings, [c for _, c in picked])
    a = report.write_sweep_csv(serial, ctx.work / "determinism-jobs1.csv").read_bytes()
    b = report.write_sweep_csv(parallel, ctx.work / "determinism-jobs2.csv").read_bytes()
    if a != b:
        rows_a, rows_b = a.splitlines()[1:], b.splitlines()[1:]
        bad = [op for k, (op, _) in enumerate(picked)
               if k >= len(rows_a) or rows_a[k] != rows_b[k]] or [base_op]
        for op in bad:
            out.fail(op, ["sweep CSV row from jobs=2 differs from jobs=1"])
    return out


def run_drivers(ctx: Ctx, loop: Loop) -> Outcome:
    import checks
    from ecocorridor import advisory, baseline, study

    probe, cfg = ctx.probe, ctx.cfg
    out = Outcome()
    for k, spec in ctx.inputs:
        if not loop.more(out):
            break
        regular = advised = None
        errors = []
        t0 = time.perf_counter()
        try:
            with probe.span("drivers.scenario"):
                c, vp, bat = spec.corridor(), spec.resolved_vehicle(), spec.resolved_battery()
                regular = baseline.simulate_regular(c, vp, spec.rules)
                advised = advisory.simulate_advised_driver(
                    c, vp, cfg.driver, cfg.advisory, spec.rules)
                study.evaluate_trajectory(regular, vp, bat, spec.prices)
                study.evaluate_trajectory(advised, vp, bat, spec.prices)
        except Exception as exc:  # a crash is a failed op, not the end of the run
            errors.append(f"case {k}: crash: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        probe.op_times.append(dt)
        out.measured_s += dt
        tag = (f"case {k} [{spec.time_to_red_first_s:.1f} {spec.time_to_red_second_s:.1f}]"
               f"/{spec.spacing_m:.0f}")
        c = spec.corridor()
        for name, traj in (("regular", regular), ("advised", advised)):
            if traj is not None:
                errors += checks.check_trajectory(f"{tag} {name}", traj, c, spec.rules, spec.grid)
        out.fail(k, errors)
        out.attempted += 1
        loop.done += 1
    out.peak_rss_mb = rss_mb()
    return out


def run_oracle(ctx: Ctx, loop: Loop) -> Outcome:
    from ecocorridor import oracle
    from inputs import ORACLE_BATCH

    probe = ctx.probe
    out = Outcome()
    for batch_seed in ctx.inputs:
        if not loop.more(out):
            break
        first_op, mismatches = len(probe.op_times), probe.counts["oracle.mismatches"]
        t0 = time.perf_counter()
        try:
            with probe.span("oracle.run_oracle_suite"):
                rep = oracle.run_oracle_suite(cases=ORACLE_BATCH, seed=batch_seed)
            crash = None
        except Exception as exc:  # the case that raised is a failed op
            rep, crash = None, f"crash: {type(exc).__name__}: {exc}"
        out.measured_s += time.perf_counter() - t0
        cases = len(probe.op_times) - first_op
        if crash is not None:
            cases = max(cases, 1)  # the batch died before its first case
        if rep is not None:
            if (rep.cases, rep.failures) != (cases, probe.counts["oracle.mismatches"] - mismatches):
                raise RuntimeError("oracle report disagrees with the per-case probe")
            for line in rep.lines:
                k = int(line.split(":")[0].split()[1]) - 1
                out.fail(out.attempted + k, [f"batch seed {batch_seed} {line}"])
        else:
            out.fail(out.attempted + cases - 1, [f"batch seed {batch_seed}: {crash}"])
        out.attempted += cases
        loop.done += 1
    out.peak_rss_mb = rss_mb()
    return out


WORKLOADS = {
    "sweep-serial": run_sweep_serial,
    "sweep-jobs2": run_sweep_jobs2,
    "drivers": run_drivers,
    "oracle": run_oracle,
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): p95 when at least ten samples lie
    beyond it, else the median.

    A run's op count varies with the machine's speed. With only two rungs,
    far apart, it never crosses the 200 samples where they meet: the sweeps
    stay well below, oracle and drivers well above. So the percentile does
    not flip between runs of one workload."""
    n = len(values)
    pct = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    value = float(np.percentile(values, pct))
    return pct, value, sum(v > value for v in values)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times from fresh interpreters, so every import is paid again."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def source_digest() -> str:
    """sha256 over the package sources and configs: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "ecocorridor").rglob("*.py")) + sorted(
        (ROOT / "configs").glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, why: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why, "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # names, units and reasons live in BENCHMARK.json; the output must match it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        args.workload, UNLISTED_WHY.get(args.workload))

    src = ROOT / "src" / "ecocorridor" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: no ecocorridor sources at {src.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ecocorridor

    if Path(ecocorridor.__file__).resolve() != src.resolve():
        print(f"perfbench: imported {ecocorridor.__file__}, not {src}", file=sys.stderr)
        return 2
    import inputs
    import probe as probe_mod

    work = WORK / f"{args.workload}-{os.getpid()}"
    spool = work / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    probe = probe_mod.Probe(bool(args.trace), spool)
    probe_mod.install(probe)
    cfg = inputs.load_paper_config(ROOT)
    ctx = Ctx(probe, cfg, work, inputs.make_inputs(args.workload, cfg, args.seed))
    try:
        loop = Loop(args.workload, args.seconds, probe.tracing)
        out = WORKLOADS[args.workload](ctx, loop)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup = measure_setup(args.workload, args.seed)
    env = environment(args, why)

    failed = len(out.failures)
    pct, tail_s, beyond = tail(probe.op_times)
    ops_per_s = out.attempted / out.measured_s
    end_to_end = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "ops_per_s": (ops_per_s, f"{out.attempted} ops in {out.measured_s:.3f} s"),
        "op_s_p50": (statistics.median(probe.op_times), f"{len(probe.op_times)} samples"),
        "op_s_tail": (tail_s, f"p{pct:g} of {len(probe.op_times)} samples, {beyond} beyond it"),
        "pass_frac": (1.0 - failed / out.attempted,
                      f"fail_frac {failed / out.attempted:.6f} = {failed}/{out.attempted}"),
        "peak_rss_mb": (out.peak_rss_mb,
                        f"parent + {JOBS} x largest worker" if args.workload == "sweep-jobs2"
                        else "this process"),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {why}")
    print(f"  env: {json.dumps(env)}")
    print(f"  ops: {out.attempted} attempted, {failed} failed")
    for k, msgs in sorted(out.failures.items())[:10]:
        print(f"  FAILED op {k}: {'; '.join(msgs)}")
    if failed > 10:
        print(f"  ... and {failed - 10} more failed ops")
    for name, (value, note) in end_to_end.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]:<6} {note}")

    if probe.tracing:
        layers = probe_mod.layer_metrics(probe.spans, probe.counts)
        layers["trace.ops"] = out.attempted
        layers["trace.ops_per_s"] = ops_per_s
        for name, value in layers.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            from_ctx = name in probe_mod.FROM_CONTEXT
            note = "  (computed from DpContext attributes)" if from_ctx else ""
            print(f"  {name:<38} {shown:>16}{note}")
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        own = probe_mod.self_times(probe.spans)
        trace_file.write_text(json.dumps({
            "env": env, "layers": layers, "counts": dict(probe.counts),
            "computed_from_dpcontext_attributes": list(probe_mod.FROM_CONTEXT),
            "spans": [dict(s, self=own[s["id"]]) for s in probe.spans],
        }))
        print(f"  spans: {len(probe.spans)} written to {trace_file.relative_to(ROOT)}")
        values = layers
        listed = spec["per_layer"]
    else:
        values = {name: value for name, (value, _) in end_to_end.items()}
        listed = spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError("metrics do not match BENCHMARK.json")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
