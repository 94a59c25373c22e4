"""Control-zone geometry and signal phase queries."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# an offset this close to a full period is the next red onset
_SNAP_S = 1e-9


class Phase(Enum):
    GREEN = "green"
    RED = "red"


@dataclass(frozen=True)
class SignalSchedule:
    """Periodic red/green schedule anchored to the vehicle's entry at t=0.

    `time_to_red_s` is the (signed) onset of the first red relative to entry;
    the schedule extends to negative times by periodicity. Where the light
    stands is the corridor's geometry (`Corridor.stop_lines_m`).
    """

    time_to_red_s: float
    red_s: float
    green_s: float

    def __post_init__(self) -> None:
        if self.red_s <= 0.0 or self.green_s <= 0.0:
            raise ValueError("red and green durations must be > 0")

    @property
    def period_s(self) -> float:
        return self.red_s + self.green_s


def _cycle_offset(sig: SignalSchedule, t: float) -> float:
    """Time since the last red onset, in [0, period).

    Offsets within a nanosecond of a full period are snapped to the onset,
    so times produced by chained float arithmetic (e.g. the green onset
    following a computed red onset) land on the intended phase boundary.
    """
    u = math.fmod(t - sig.time_to_red_s, sig.period_s)
    if u < 0.0:
        u += sig.period_s
    if u >= sig.period_s - _SNAP_S:
        u = 0.0
    return u


def phase_at(sig: SignalSchedule, t: float) -> Phase:
    """Phase at time t. Red on [time_to_red + k*period, +red_s); the instant a
    light turns green is Green."""
    return Phase.RED if _cycle_offset(sig, t) < sig.red_s else Phase.GREEN


def green_at(sig: SignalSchedule, t: np.ndarray) -> np.ndarray:
    """`phase_at(sig, t) is Phase.GREEN` for an array of times, with the same
    snap. numpy's float mod is C's fmod plus the period where that is
    negative, so each offset is the scalar rule's to the bit."""
    u = np.mod(t - sig.time_to_red_s, sig.period_s)
    return (u >= sig.red_s) & (u < sig.period_s - _SNAP_S)


def next_green_onset(sig: SignalSchedule, t: float) -> float:
    """Smallest t' >= t with Green phase; t itself if already Green."""
    u = _cycle_offset(sig, t)
    if u >= sig.red_s:
        return t
    return t + (sig.red_s - u)


def next_red_onset(sig: SignalSchedule, t: float) -> float:
    """Smallest t' >= t at which the phase is Red (t itself if already Red)."""
    u = _cycle_offset(sig, t)
    if u < sig.red_s:
        return t
    return t + (sig.period_s - u)


@dataclass(frozen=True)
class Corridor:
    """Two-signal control zone: entry buffer, light spacing between the stop lines, exit buffer."""

    signals: tuple[SignalSchedule, SignalSchedule]
    entry_buffer_m: float
    light_spacing_m: float
    exit_buffer_m: float
    speed_limit_m_s: float

    def __post_init__(self) -> None:
        if len(self.signals) != 2:
            raise ValueError("corridor needs exactly two signals")
        if self.speed_limit_m_s <= 0.0:
            raise ValueError("speed limit must be > 0")
        if min(self.entry_buffer_m, self.light_spacing_m, self.exit_buffer_m) <= 0.0:
            raise ValueError("corridor segment lengths must be > 0")

    @property
    def length_m(self) -> float:
        return self.entry_buffer_m + self.light_spacing_m + self.exit_buffer_m

    @property
    def stop_lines_m(self) -> tuple[float, float]:
        return self.entry_buffer_m, self.entry_buffer_m + self.light_spacing_m


def make_corridor(
    time_to_red_first_s: float,
    time_to_red_second_s: float,
    spacing_m: float = 400.0,
    entry_buffer_m: float = 100.0,
    exit_buffer_m: float = 100.0,
    speed_limit_m_s: float = 24.583,
    red_s: float = 30.0,
    green_s: float = 30.0,
) -> Corridor:
    """Convenience constructor from the usual (x, y) timing pair."""
    return Corridor(
        entry_buffer_m=entry_buffer_m,
        light_spacing_m=spacing_m,
        exit_buffer_m=exit_buffer_m,
        speed_limit_m_s=speed_limit_m_s,
        signals=(
            SignalSchedule(time_to_red_first_s, red_s, green_s),
            SignalSchedule(time_to_red_second_s, red_s, green_s),
        ),
    )


def lights_ahead(c: Corridor, x: float) -> list[tuple[int, float]]:
    """Index and stop line of each light ahead of position x, nearest first.
    A vehicle at a stop line, to 1e-9 m, has not passed it."""
    return [(idx, line) for idx, line in enumerate(c.stop_lines_m) if x <= line + 1e-9]


def crossing_allowed(c: Corridor, light_index: int, t: float) -> bool:
    """Whether crossing the given stop line at time t is legal (Green phase).

    Waiting at the line during Red is always allowed; only crossing is gated.
    """
    if light_index not in (0, 1):
        raise IndexError("light_index must be 0 or 1")
    return phase_at(c.signals[light_index], t) is Phase.GREEN
