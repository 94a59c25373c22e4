"""Property test of the closed-loop driver integrator shared by the regular
and advised drivers, over continuous signal offsets and spacings."""
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocorridor.advisory import IDEAL_DRIVER, simulate_advised_driver
from ecocorridor.baseline import RegularDriverRules, simulate_regular
from ecocorridor.corridor import make_corridor
from ecocorridor.powertrain import VehicleParams
from ecocorridor.trajectory import check_safety

RULES = RegularDriverRules()

offsets = st.floats(-30.0, 30.0, allow_nan=False)
# deliberately off the optimizer's 10 m distance grid
spacings = st.floats(200.0, 800.0, allow_nan=False)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=offsets, y=offsets, spacing=spacings)
def test_drivers_cross_on_green_within_limits(x, y, spacing):
    c = make_corridor(x, y, spacing_m=spacing, exit_buffer_m=200.0)
    vp = VehicleParams()
    drivers = {
        "regular": simulate_regular(c, vp, RULES),
        "advised": simulate_advised_driver(c, vp, rules=RULES),
        "ideal": simulate_advised_driver(c, vp, IDEAL_DRIVER, rules=RULES),
    }
    for name, traj in drivers.items():
        assert check_safety(traj, c, RULES) == [], name
