"""Property test of the closed-loop driver integrator shared by the regular
and advised drivers, over continuous signal offsets and spacings."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocorridor.advisory import IDEAL_DRIVER, simulate_advised_driver
from ecocorridor.baseline import RegularDriverRules, simulate_regular
from ecocorridor.corridor import Phase, make_corridor, phase_at
from ecocorridor.powertrain import VehicleParams

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
        traj.validate()
        for i, sig in enumerate(c.signals):
            t_cross = traj.crossing_time(sig.stop_line_m)
            assert t_cross is not None, f"{name} never crosses light {i}"
            assert phase_at(sig, t_cross) is Phase.GREEN, (
                f"{name} crosses light {i} on red at t={t_cross!r}")
        assert np.max(traj.v) <= c.speed_limit_m_s, f"{name} exceeds the limit"
        # dv/dt within the rules' bounds, compared as dv against bound * dt so
        # a short final step does not amplify rounding; only a stop to
        # standstill may brake harder
        dv, dt = np.diff(traj.v), np.diff(traj.t)
        assert np.all(dv <= RULES.accel_max_m_s2 * dt + 1e-9), f"{name} accelerates too hard"
        braking_ok = (dv >= RULES.decel_min_m_s2 * dt - 1e-9) | (traj.v[1:] == 0.0)
        assert np.all(braking_ok), f"{name} brakes too hard short of a standstill"
