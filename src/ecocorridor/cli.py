"""Command line entry points: run, sweep, advisory, verify."""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config, override_cell
from .dp import InfeasibleScenarioError
from .report import (
    cell_basename,
    render_reports,
    render_scenario_svg,
    write_trajectories,
)
from .study import ScenarioResult, percent_saving, run_advisory_scenario, run_scenario, sweep
from .trajectory import ClockAudit, audit_arc_clock, check_safety

OUT_DIR_ENV = "ECOCORRIDOR_OUT"

EXIT_OK = 0
EXIT_FAILED = 1  # a verify mismatch or a safety violation
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _default_out() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "out"))


def _at_least(low: int):
    """The argparse type of a command-line integer of at least ``low``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ecocorridor",
        description="Eco-driving simulation through two signalized intersections.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="optimize a single scenario")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument(
        "--timing", nargs=2, type=float, metavar=("X", "Y"),
        help="override the two time-to-red values (s)",
    )
    run.add_argument("--spacing", type=float, help="override light spacing (m)")
    run.add_argument("--out", help="output directory")

    sw = sub.add_parser("sweep", help="run the full timing x spacing matrix")
    sw.add_argument("--config", required=True)
    sw.add_argument("--jobs", type=_at_least(1), default=1, help="parallel worker count")
    sw.add_argument("--out", help="output directory")

    adv = sub.add_parser("advisory", help="simulate the advised driver")
    adv.add_argument("--config", required=True)
    adv.add_argument("--out", help="output directory")

    ver = sub.add_parser(
        "verify", help="check the optimizer against exhaustive enumeration"
    )
    ver.add_argument("--cases", type=_at_least(1), default=50)
    ver.add_argument("--seed", type=_at_least(0), default=0)
    return p


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else _default_out()


def _audit(r: ScenarioResult) -> ClockAudit:
    return audit_arc_clock(r.eco, r.spec.corridor(), r.spec.grid, r.budget_s)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    timing = tuple(args.timing) if args.timing else None
    spec = override_cell(cfg, timing, args.spacing)
    result = run_scenario(spec)
    c = spec.corridor()
    unsafe = [f"regular: {m}" for m in check_safety(result.regular, c, spec.rules)]
    unsafe += [f"eco: {m}" for m in check_safety(result.eco, c, spec.grid, result.budget_s)]
    audit = _audit(result)
    out = _out_dir(args)
    paths = write_trajectories(result, out)
    paths.append(render_scenario_svg(
        result,
        out / f"{cell_basename((spec.time_to_red_first_s, spec.time_to_red_second_s), spec.spacing_m)}.svg",
    ))
    print(
        f"regular ${result.regular_cost.total_usd:.4f}  "
        f"eco ${result.eco_cost.total_usd:.4f}  "
        f"reduction {result.reduction_pct:.1f}%"
    )
    st = result.dp.stats
    print(f"dp: {st.states} states, relaxed {st.relaxed} of {st.candidates} candidates "
          f"({100.0 * st.relaxed / st.candidates:.1f}%)")
    print(f"arc-clock audit: worst drift {audit.drift_s:.2f} s, arrival "
          f"{audit.late_s:+.2f} s against budget + margin; "
          + ("; ".join(audit.violations) or "no violations"))
    for p in paths:
        print(f"wrote {p}")
    for m in unsafe:
        print(f"safety violation: {m}", file=sys.stderr)
    return EXIT_FAILED if unsafe else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    res = sweep(cfg.base, cfg.timings_s, cfg.spacings_m, jobs=args.jobs)
    out = _out_dir(args)
    paths = render_reports(res, out)
    print(f"cells: {len(res.cells)}  "
          f"average reduction {res.grand_average_reduction_pct:.1f}%")
    audits = [_audit(c.result) for c in res.cells if c.result is not None]
    if audits:
        red = sum(any("on red" in m for m in a.violations) for a in audits)
        late = sum(a.late_s > 0.0 for a in audits)
        print(f"arc-clock audit: {red} of {len(audits)} plans cross on red, "
              f"{late} of {len(audits)} arrive after budget + margin "
              f"(worst {max(a.late_s for a in audits):+.2f} s), "
              f"worst drift {max(a.drift_s for a in audits):.2f} s")
    print(f"wrote {paths[0]} and {len(paths) - 1} per-cell files under {out}")
    failed = [c for c in res.cells if c.result is None]
    for c in failed:
        print(f"infeasible cell {c.timing} spacing {c.spacing_m}: {c.error}",
              file=sys.stderr)
    return EXIT_INFEASIBLE if failed else EXIT_OK


def _cmd_advisory(args) -> int:
    cfg = load_config(args.config)
    res = run_advisory_scenario(cfg.base, cfg.driver, cfg.advisory)
    rc, ac = res["regular_cost"], res["advised_cost"]
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    res["regular"].to_csv(out / "advisory_regular.csv")
    res["advised"].to_csv(out / "advisory_advised.csv")
    print(
        f"regular ${rc.total_usd:.4f}  advised ${ac.total_usd:.4f}  "
        f"reduction {percent_saving(rc.total_usd, ac.total_usd):.1f}%  "
        f"({len(res['log'])} recommendations issued)"
    )
    print(f"wrote {out / 'advisory_regular.csv'} and {out / 'advisory_advised.csv'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .oracle import run_oracle_suite

    report = run_oracle_suite(cases=args.cases, seed=args.seed)
    for line in report.lines:
        print(line)
    if report.failures:
        print(f"FAILED: {report.failures} of {report.cases} cases disagree")
        return EXIT_FAILED
    print(f"ok: optimizer matches enumeration on all {report.cases} cases")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "advisory": _cmd_advisory,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
