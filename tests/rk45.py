"""A Dormand-Prince 4(5) reference for the two-mode reduction: scipy's
solve_ivp on reduced_dynamics.chart_field, sampled on the dt grid.  The
package integrates by the implicit midpoint alone; tests that need an
independent integrator of the same field compare with this one."""

import numpy as np
from scipy.integrate import solve_ivp

from dwnls import reduced_dynamics as rd

_CHART_OF = {rd.ModeAmplitudes: rd.MODES, rd.CartesianChart: rd.CARTESIAN}


def rk45_integrate(state0, params, t_span, dt, rtol, atol,
                   record_every=1) -> rd.Trajectory:
    """RK45 at tolerances rtol, atol from state0 in its own chart, sampled
    every record_every steps of dt over t_span, as an rd.Trajectory."""
    chart = _CHART_OF[type(state0)]
    field = rd.chart_field(chart, params)
    # the last grid point may overshoot t_span[1] by roundoff
    t_eval = np.minimum(
        np.arange(t_span[0], t_span[1] + 0.5 * dt * record_every,
                  dt * record_every), t_span[1])
    sol = solve_ivp(lambda t, y: np.array(field(*map(float, y))), t_span,
                    rd.pack(state0), method="RK45", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    assert sol.success, sol.message
    return rd.Trajectory(chart=chart, times=sol.t, states=sol.y.T,
                         params=params)
