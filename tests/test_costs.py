"""Cost model tests: one pricing rule, `costs.interval_cost`, for every trajectory."""
import ast
from pathlib import Path

import pytest

from ecocorridor import battery, costs
from ecocorridor.battery import BatteryModel
from ecocorridor.costs import Prices, interval_cost, motion_arc_cost
from ecocorridor.powertrain import VehicleParams, power_demand

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecocorridor"

# the model functions, each with the module that defines it
MODEL = {"power_demand": "powertrain.py", "soh_decay_rate": "battery.py",
         "decay_cost_rate": "battery.py"}


def test_only_costs_calls_the_power_and_decay_models():
    # every other module prices through costs; a model module may still
    # build on its own functions
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in MODEL and path.name != MODEL[name]:
                callers.add(path.name)
    assert callers == {"costs.py"}


def test_interval_cost_evaluates_the_decay_rate_once(monkeypatch):
    # the SOH column and the decay cost come from one decay rate
    rate, calls = battery.soh_decay_rate, []

    def counted(*args):
        calls.append(args)
        return rate(*args)

    monkeypatch.setattr(battery, "soh_decay_rate", counted)
    monkeypatch.setattr(costs, "soh_decay_rate", counted)
    arc = interval_cost(10.0, 14.0, 4.0, VehicleParams(), BatteryModel(), Prices())
    assert len(calls) == 1
    assert arc.soh_delta < 0.0
    assert arc.decay_usd == pytest.approx(-6750.0 * arc.soh_delta, rel=1e-12)


def test_interval_cost_at_standstill_is_free():
    arc = interval_cost(0.0, 0.0, 2.5, VehicleParams(), BatteryModel(), Prices())
    assert (arc.duration_s, arc.power_w, arc.energy_j, arc.total_usd, arc.soh_delta) == (
        2.5, 0.0, 0.0, 0.0, 0.0)


def test_motion_arc_is_an_interval_over_its_constant_acceleration_duration():
    vp, bat, prices = VehicleParams(), BatteryModel(), Prices()
    arc = motion_arc_cost(10.0, 14.0, 48.0, vp, bat, prices)
    assert arc.duration_s == pytest.approx(4.0)
    assert arc == interval_cost(10.0, 14.0, arc.duration_s, vp, bat, prices)
    # a = (v1 - v0) / duration = 1 m/s^2 at the 12 m/s midpoint speed
    assert arc.power_w == pytest.approx(power_demand(12.0, 1.0, vp), rel=1e-12)
