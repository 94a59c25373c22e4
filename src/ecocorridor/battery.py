"""Ah-throughput battery lifetime model and SOH decay cost rates."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from importlib import resources

GAS_CONSTANT = 8.3144  # J/mol/K
# The pack's nominal voltage and cell temperature. No study varies them.
NOMINAL_VOLTAGE_V = 350.0
TEMPERATURE_K = 298.15

_COEFF_HEADER = ["c_rate", "M", "Ea_J_per_mol"]


class CoefficientTableError(ValueError):
    """Decay coefficient table missing or malformed."""


@dataclass(frozen=True)
class DecayCoefficientRow:
    c_rate: float        # 1/h
    m_factor: float      # pre-exponential factor
    ea_j_per_mol: float  # activation energy


def load_coefficient_table(path) -> tuple[DecayCoefficientRow, ...]:
    """Read a `c_rate,M,Ea_J_per_mol` CSV into a sorted coefficient table."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _COEFF_HEADER:
            raise CoefficientTableError(
                f"expected header {','.join(_COEFF_HEADER)} in {path}"
            )
        rows = [
            DecayCoefficientRow(float(c), float(m), float(ea))
            for c, m, ea in reader
        ]
    return _validate_table(rows)


def default_coefficient_table() -> tuple[DecayCoefficientRow, ...]:
    """Packaged LFP-style coefficient table (configuration, not physics)."""
    ref = resources.files("ecocorridor").joinpath("data/lfp_decay_coefficients.csv")
    with resources.as_file(ref) as path:
        return load_coefficient_table(path)


def _validate_table(rows) -> tuple[DecayCoefficientRow, ...]:
    if not rows:
        raise CoefficientTableError("coefficient table is empty")
    rows = tuple(sorted(rows, key=lambda r: r.c_rate))
    for r in rows:
        if r.m_factor <= 0.0 or r.c_rate < 0.0:
            raise CoefficientTableError("coefficient rows need c_rate >= 0 and M > 0")
    return rows


@dataclass(frozen=True)
class BatteryModel:
    capacity_kwh: float = 54.0
    eol_capacity_loss: float = 0.20   # fraction of capacity at end of life
    power_z: float = 0.55
    coeff_table: tuple[DecayCoefficientRow, ...] = field(
        default_factory=default_coefficient_table
    )
    # pack size the coefficient table describes; packs with more capacity
    # run more cell strings in parallel, so lifetime throughput scales
    # proportionally with capacity
    reference_capacity_kwh: float = 54.0
    decay_multiplier: float = 1.0
    pack_price_per_kwh: float = 125.0

    def __post_init__(self) -> None:
        if self.capacity_kwh <= 0.0:
            raise ValueError("capacity must be positive")
        if self.pack_price_per_kwh <= 0.0:
            raise ValueError("pack price must be positive")
        if not 0.0 < self.eol_capacity_loss < 1.0:
            raise ValueError("eol_capacity_loss must be in (0, 1)")
        if self.power_z <= 0.0:
            raise ValueError("power_z must be > 0")
        if self.decay_multiplier < 0.0:
            raise ValueError("decay_multiplier must be >= 0")
        if self.reference_capacity_kwh <= 0.0:
            raise ValueError("reference_capacity_kwh must be positive")
        object.__setattr__(self, "coeff_table", _validate_table(list(self.coeff_table)))

    def with_multiplier(self, k: float) -> "BatteryModel":
        return replace(self, decay_multiplier=k)


def c_rate(p_batt_w: float, b: BatteryModel) -> float:
    """C-rate (1/h) of a battery power draw under the constant-voltage model."""
    return abs(p_batt_w) / (b.capacity_kwh * 1000.0)


def current(p_batt_w: float) -> float:
    """Signed pack current (A) at nominal voltage."""
    return p_batt_w / NOMINAL_VOLTAGE_V


def _interp_coeffs(c: float, table) -> tuple[float, float]:
    """M log-interpolated and Ea linearly interpolated in c; clamped outside."""
    if c <= table[0].c_rate:
        return table[0].m_factor, table[0].ea_j_per_mol
    if c >= table[-1].c_rate:
        return table[-1].m_factor, table[-1].ea_j_per_mol
    for lo, hi in zip(table, table[1:]):
        if lo.c_rate <= c <= hi.c_rate:
            w = (c - lo.c_rate) / (hi.c_rate - lo.c_rate)
            m = math.exp(
                (1.0 - w) * math.log(lo.m_factor) + w * math.log(hi.m_factor)
            )
            ea = (1.0 - w) * lo.ea_j_per_mol + w * hi.ea_j_per_mol
            return m, ea
    raise AssertionError("unreachable: table is sorted")


def lifetime_ah_throughput(c: float, b: BatteryModel) -> float:
    """Total discharged Ah throughput over the battery's lifetime at C-rate c.

    The coefficient table characterizes the reference pack; larger packs put
    more cell strings in parallel, so throughput grows with capacity."""
    if c < 0.0:
        raise ValueError("c-rate must be >= 0")
    m, ea = _interp_coeffs(c, b.coeff_table)
    denom = m * math.exp(-ea / (GAS_CONSTANT * TEMPERATURE_K))
    base = (b.eol_capacity_loss * 100.0 / denom) ** (1.0 / b.power_z)
    return base * b.capacity_kwh / b.reference_capacity_kwh


def soh_decay_rate(p_batt_w: float, b: BatteryModel) -> float:
    """SOH decay rate (1/s, <= 0): SOH runs 1 -> 0 as cycled charge sums
    (signed both ways) to twice the lifetime Ah throughput."""
    if p_batt_w == 0.0:
        return 0.0
    i_abs = abs(current(p_batt_w))
    a_total = lifetime_ah_throughput(c_rate(p_batt_w, b), b)
    return -b.decay_multiplier * i_abs / (2.0 * a_total) / 3600.0


def decay_cost_rate(soh_rate: float, b: BatteryModel) -> float:
    """Battery replacement cost rate (USD/s) of a `soh_decay_rate`; wear always adds cost."""
    return b.pack_price_per_kwh * b.capacity_kwh * abs(soh_rate)
