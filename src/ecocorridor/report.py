"""CSV and SVG report generation for sweep and scenario results."""
from __future__ import annotations

import csv
from pathlib import Path

from .corridor import Corridor, next_green_onset, next_red_onset
from .study import DecayComparisonResult, ScenarioResult, SweepResult

SWEEP_HEADER = [
    "time_to_red_first_s", "time_to_red_second_s", "spacing_m",
    "regular_total_usd", "eco_total_usd", "reduction_pct",
    "regular_energy_kwh", "eco_energy_kwh", "energy_reduction_pct",
    "regular_soh_delta", "eco_soh_delta", "decay_reduction_pct",
    "regular_trip_s", "eco_trip_s", "error",
]

DECAY_HEADER = [
    "time_to_red_first_s", "time_to_red_second_s", "spacing_m",
    "regular_decay_reduction_pct", "eco_decay_reduction_pct", "error",
]


def _cell_fields(timing: tuple[float, float], spacing_m: float) -> list[str]:
    """A cell's two time-to-red values and spacing, as every report writes them."""
    return [f"{timing[0]:g}", f"{timing[1]:g}", f"{spacing_m:g}"]


def cell_basename(timing: tuple[float, float], spacing_m: float) -> str:
    return "timing_{}_{}_s{}".format(*_cell_fields(timing, spacing_m))


def write_sweep_csv(res: SweepResult, path: str | Path) -> Path:
    """Cost-reduction matrix, one row per sweep cell, fixed ordering."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_HEADER)
        for cell in res.cells:
            key = _cell_fields(cell.timing, cell.spacing_m)
            if cell.result is None:
                w.writerow(key + [""] * 11 + [cell.error])
                continue
            r = cell.result
            w.writerow(key + [
                f"{r.regular_cost.total_usd:.6f}", f"{r.eco_cost.total_usd:.6f}",
                f"{r.reduction_pct:.2f}",
                f"{r.regular_cost.energy_kwh:.6f}", f"{r.eco_cost.energy_kwh:.6f}",
                f"{r.energy_reduction_pct:.2f}",
                f"{r.regular_cost.soh_delta:.6e}", f"{r.eco_cost.soh_delta:.6e}",
                f"{r.decay_reduction_pct:.2f}",
                f"{r.regular_cost.trip_time_s:.2f}", f"{r.eco_cost.trip_time_s:.2f}",
                "",
            ])
    return path


def write_decay_comparison_csv(res: DecayComparisonResult, path: str | Path) -> Path:
    """Battery-size study matrix: decay reduction of the larger pack."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DECAY_HEADER)
        for cell in res.cells:
            row = _cell_fields(cell.timing, cell.spacing_m)
            if cell.error:
                row += ["", "", cell.error]
            else:
                row += [
                    f"{cell.regular_reduction_pct:.2f}",
                    f"{cell.eco_reduction_pct:.2f}",
                    "",
                ]
            w.writerow(row)
    return path


def write_trajectories(result: ScenarioResult, out_dir: str | Path) -> list[Path]:
    """Per-scenario eco and regular trajectory CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = cell_basename(
        (result.spec.time_to_red_first_s, result.spec.time_to_red_second_s),
        result.spec.spacing_m,
    )
    paths = []
    for tag, traj in (("eco", result.eco), ("regular", result.regular)):
        p = out / f"{base}_{tag}.csv"
        traj.to_csv(p)
        paths.append(p)
    return paths


def render_reports(res: SweepResult, out_dir: str | Path) -> list[Path]:
    """Write the sweep CSV plus trajectories and plots for every cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [write_sweep_csv(res, out / "table2.csv")]
    for cell in res.cells:
        if cell.result is None:
            continue
        paths.extend(write_trajectories(cell.result, out / "trajectories"))
        svg = out / "plots" / f"{cell_basename(cell.timing, cell.spacing_m)}.svg"
        paths.append(render_scenario_svg(cell.result, svg))
    return paths


# ---------------------------------------------------------------------------
# Minimal hand-rolled SVG plotting (deterministic, no plotting dependency)
# ---------------------------------------------------------------------------

_PANEL_W, _PANEL_H = 420.0, 240.0
_MARGIN = 52.0


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) * (out_hi - out_lo) / span) for v in vals]


def _polyline(xs, ys, color: str) -> str:
    xy = [0.0] * (2 * len(xs))
    xy[::2], xy[1::2] = xs, ys
    pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{pts}"/>'
    )


def _panel(ox, oy, title, xlabel, ylabel, series):
    """One axes panel: series is a list of (xs, ys, color, label)."""
    x_all = [x for xs, *_ in series for x in xs]
    y_all = [y for _, ys, *_ in series for y in ys]
    if not x_all:
        x_all, y_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(x_all), max(x_all)
    y_lo, y_hi = min(y_all), max(y_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    left, right = ox + _MARGIN, ox + _PANEL_W - 12
    top, bottom = oy + 28, oy + _PANEL_H - _MARGIN + 14
    parts = [
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{right - left:.1f}" '
        f'height="{bottom - top:.1f}" fill="white" stroke="#444"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{oy + 18:.1f}" '
        f'text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 30:.1f}" '
        f'text-anchor="middle" font-size="11">{xlabel}</text>',
        f'<text x="{ox + 14:.1f}" y="{(top + bottom) / 2:.1f}" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 {ox + 14:.1f} '
        f'{(top + bottom) / 2:.1f})">{ylabel}</text>',
        f'<text x="{left:.1f}" y="{bottom + 14:.1f}" font-size="10" '
        f'text-anchor="middle">{x_lo:.0f}</text>',
        f'<text x="{right:.1f}" y="{bottom + 14:.1f}" font-size="10" '
        f'text-anchor="middle">{x_hi:.0f}</text>',
        f'<text x="{left - 4:.1f}" y="{bottom:.1f}" font-size="10" '
        f'text-anchor="end">{y_lo:.3g}</text>',
        f'<text x="{left - 4:.1f}" y="{top + 8:.1f}" font-size="10" '
        f'text-anchor="end">{y_hi:.3g}</text>',
    ]
    for k, (xs, ys, color, label) in enumerate(series):
        sx = _scale(xs, x_lo, x_hi, left, right)
        sy = _scale(ys, y_lo, y_hi, bottom, top)
        parts.append(_polyline(sx, sy, color))
        parts.append(
            f'<text x="{right - 6:.1f}" y="{top + 14 + 13 * k:.1f}" '
            f'font-size="10" text-anchor="end" fill="{color}">{label}</text>'
        )
    return "".join(parts), (left, right, top, bottom, x_lo, x_hi, y_lo, y_hi)


def _red_bars(c: Corridor, t_hi: float, frame) -> str:
    """Horizontal red-interval bars at each stop line for a distance-time panel."""
    left, right, top, bottom, x_lo, x_hi, y_lo, y_hi = frame
    parts = []
    for sig, line in zip(c.signals, c.stop_lines_m):
        y = _scale([line], y_lo, y_hi, bottom, top)[0]
        t = 0.0
        while (r0 := next_red_onset(sig, t)) < t_hi:
            t = next_green_onset(sig, r0)
            x0, x1 = _scale([r0, min(t, t_hi)], x_lo, x_hi, left, right)
            parts.append(
                f'<rect x="{x0:.2f}" y="{y - 2.5:.2f}" '
                f'width="{x1 - x0:.2f}" height="5" fill="#d33" opacity="0.8"/>'
            )
            t += 0.5 * sig.green_s  # from mid-green: at an onset, rounding may read red
    return "".join(parts)


def render_scenario_svg(result: ScenarioResult, path: str | Path) -> Path:
    """Four-panel scenario figure: position, speed, energy, battery wear."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    eco, reg = result.eco, result.regular
    c = result.spec.corridor()
    t_hi = max(float(eco.t[-1]), float(reg.t[-1]))
    panels = []
    body, frame = _panel(
        0, 0, "Position vs time", "time (s)", "distance (m)",
        [(reg.t.tolist(), reg.x.tolist(), "#777", "regular"),
         (eco.t.tolist(), eco.x.tolist(), "#171", "eco")],
    )
    panels.append(body + _red_bars(c, t_hi, frame))
    body, _ = _panel(
        _PANEL_W, 0, "Speed vs time", "time (s)", "speed (m/s)",
        [(reg.t.tolist(), reg.v.tolist(), "#777", "regular"),
         (eco.t.tolist(), eco.v.tolist(), "#171", "eco")],
    )
    panels.append(body)
    body, _ = _panel(
        0, _PANEL_H, "Cumulative energy", "time (s)", "energy (kJ)",
        [(reg.t.tolist(), (reg.energy_cum / 1e3).tolist(), "#777", "regular"),
         (eco.t.tolist(), (eco.energy_cum / 1e3).tolist(), "#171", "eco")],
    )
    panels.append(body)
    body, _ = _panel(
        _PANEL_W, _PANEL_H, "Cumulative capacity decay", "time (s)", "-dSOH (1e-9)",
        [(reg.t.tolist(), (-reg.soh_delta_cum * 1e9).tolist(), "#777", "regular"),
         (eco.t.tolist(), (-eco.soh_delta_cum * 1e9).tolist(), "#171", "eco")],
    )
    panels.append(body)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * _PANEL_W:.0f}" '
        f'height="{2 * _PANEL_H:.0f}" font-family="sans-serif">'
        f'<rect width="100%" height="100%" fill="white"/>'
        + "".join(panels)
        + "</svg>"
    )
    path.write_text(svg)
    return path
