"""Cross-validation against SciPy's independent RK45 implementation.

Our Dormand-Prince integrator and scipy.integrate.solve_ivp(RK45) use the
same tableau; on smooth analytic fields the two must agree to integration
tolerance.  This is an *independent* check: none of our code is involved
on the SciPy side.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.fields.library import ABCFlowField, RigidRotationField, SaddleField
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5, adapt_h


def integrate_ours(field, y0, t_end, rtol=1e-9, atol=1e-11):
    cfg = IntegratorConfig(rtol=rtol, atol=atol, h_init=0.01,
                           h_max=0.1, max_steps=100_000)
    d = Dopri5(rtol, atol)
    pos = np.array([y0], dtype=np.float64)
    t = 0.0
    h = np.array([cfg.h_init])
    while t < t_end - 1e-14:
        h[0] = min(h[0], t_end - t)
        new_pos, err = d.attempt_steps(field.evaluate, pos, h)
        if err[0] <= 1.0:
            pos = new_pos
            t += h[0]
        h = adapt_h(h, err, cfg)
    return pos[0]


def integrate_scipy(field, y0, t_end, rtol=1e-9, atol=1e-11):
    sol = solve_ivp(lambda t, y: field.evaluate(y[None, :])[0],
                    (0.0, t_end), np.asarray(y0, dtype=float),
                    method="RK45", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("field,y0,t_end", [
    (RigidRotationField(omega=1.3), [0.4, 0.1, 0.2], 3.0),
    (SaddleField(expand=0.8, contract=1.1), [0.2, 0.3, 0.1], 1.5),
    (ABCFlowField(), [1.0, 1.5, 2.0], 2.0),
])
def test_agrees_with_scipy_rk45(field, y0, t_end):
    ours = integrate_ours(field, y0, t_end)
    ref = integrate_scipy(field, y0, t_end)
    assert np.allclose(ours, ref, rtol=1e-6, atol=1e-8), (ours, ref)


def test_chaotic_flow_short_horizon_agreement():
    """Even in the chaotic ABC flow, short-horizon trajectories agree."""
    field = ABCFlowField()
    y0 = [3.0, 2.0, 1.0]
    ours = integrate_ours(field, y0, 1.0, rtol=1e-10, atol=1e-12)
    ref = integrate_scipy(field, y0, 1.0, rtol=1e-10, atol=1e-12)
    assert np.allclose(ours, ref, atol=1e-7)
