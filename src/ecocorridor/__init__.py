"""Eco-driving simulation and optimization for a battery-electric vehicle
passing through two signalized intersections.

The package models vehicle longitudinal power, battery capacity decay,
signal schedules, a rule-based regular driver, a dynamic-programming
speed-trajectory optimizer, and a rule-based speed advisory with an
imperfect driver-following model."""

from .config import load_config
from .powertrain import VehicleParams
from .study import (
    ScenarioSpec,
    battery_size_study,
    run_advisory_scenario,
    run_scenario,
    sweep,
)

__all__ = [
    "ScenarioSpec",
    "VehicleParams",
    "battery_size_study",
    "load_config",
    "run_advisory_scenario",
    "run_scenario",
    "sweep",
]
