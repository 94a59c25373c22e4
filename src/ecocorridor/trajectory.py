"""Trajectory container with per-step power/energy/SOH bookkeeping."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = ["t_s", "x_m", "v_m_s", "a_m_s2", "p_batt_w", "energy_j_cum", "soh_delta_cum"]


class TrajectoryValidationError(ValueError):
    def __init__(self, index: int, message: str) -> None:
        self.index = index
        super().__init__(f"sample {index}: {message}")


@dataclass
class Trajectory:
    """Time-stamped (distance, speed, acceleration) samples.

    `a[k]` is the constant acceleration over the interval [t[k], t[k+1]);
    the last entry is zero. The power/energy/SOH columns start out as zeros
    and are filled by `costs.record_arcs`: `dp.optimize` fills a plan's from
    the arcs it sums into its breakdown, `study.evaluate_trajectory` a
    driver's from its time steps.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    p_batt: np.ndarray = None  # type: ignore[assignment]
    energy_cum: np.ndarray = None  # type: ignore[assignment]
    soh_delta_cum: np.ndarray = None  # type: ignore[assignment]
    emergency_stop: bool = False
    # nonzero for plans whose sample times live on a discrete clock; each
    # interval may then deviate from the constant-acceleration duration by
    # up to half this amount
    time_quantization_s: float = 0.0
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("x", "v", "a"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        for name in ("p_batt", "energy_cum", "soh_delta_cum"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(n))

    def __len__(self) -> int:
        return len(self.t)

    @property
    def trip_time_s(self) -> float:
        return float(self.t[-1] - self.t[0])

    def validate(self, tol_m: float = 1e-3) -> None:
        """Kinematic consistency: monotone time, nonnegative speed and the
        per-interval distance consistent with the endpoint speeds.

        When `time_quantization_s` is nonzero, each interval duration may sit
        up to half a clock tick away from the constant-acceleration duration,
        so the distance check is widened accordingly."""
        for k in range(len(self) - 1):
            dt = float(self.t[k + 1] - self.t[k])
            if dt <= 0.0:
                raise TrajectoryValidationError(k + 1, "time not strictly increasing")
            if self.v[k] < 0.0:
                raise TrajectoryValidationError(k, "negative speed")
            dx = float(self.x[k + 1] - self.x[k])
            if dx < -tol_m:
                raise TrajectoryValidationError(k + 1, "position decreases")
            v_mid = 0.5 * float(self.v[k] + self.v[k + 1])
            # semi-implicit integration puts dx within |dv|*dt/2 of v_mid*dt
            slack = 0.5 * abs(float(self.v[k + 1] - self.v[k])) * dt + tol_m
            slack += 0.5 * self.time_quantization_s * max(v_mid, 1.0)
            if abs(dx - v_mid * dt) > slack:
                raise TrajectoryValidationError(k, "distance inconsistent with speeds")
        if len(self) and self.v[-1] < 0.0:
            raise TrajectoryValidationError(len(self) - 1, "negative speed")

    def crossing_time(self, line_m: float) -> float | None:
        """Interpolated instant the vehicle's position passes `line_m`.

        For a dwell exactly at the line, the crossing is the departure
        instant (last sample at or before the line). None if never crossed.
        """
        if self.x[-1] <= line_m:
            return None
        beyond = np.nonzero(self.x > line_m + 1e-9)[0]
        if len(beyond) == 0:
            return None
        j = int(beyond[0])
        if j == 0:
            return float(self.t[0])
        x0, x1 = float(self.x[j - 1]), float(self.x[j])
        t0, t1 = float(self.t[j - 1]), float(self.t[j])
        if x1 <= x0 + 1e-12:
            return t0
        w = (line_m - x0) / (x1 - x0)
        w = min(max(w, 0.0), 1.0)
        return t0 + w * (t1 - t0)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for k in range(len(self)):
                writer.writerow(
                    [
                        f"{self.t[k]:.6f}",
                        f"{self.x[k]:.6f}",
                        f"{self.v[k]:.6f}",
                        f"{self.a[k]:.6f}",
                        f"{self.p_batt[k]:.3f}",
                        f"{self.energy_cum[k]:.3f}",
                        f"{self.soh_delta_cum[k]:.12e}",
                    ]
                )


def from_samples(t, x, v, a=None, **kwargs) -> Trajectory:
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if a is None:
        a = np.zeros_like(t)
        if len(t) > 1:
            # degenerate spacing is caught later by validate()
            with np.errstate(divide="ignore", invalid="ignore"):
                a[:-1] = np.diff(v) / np.diff(t)
    else:
        a = np.asarray(a, dtype=float)
    return Trajectory(t=t, x=x, v=v, a=a, **kwargs)
