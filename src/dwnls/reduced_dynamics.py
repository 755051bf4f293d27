"""The two-mode Hamiltonian reduction in two coordinate charts, and its
polar phase plane at fixed power.

The cubic term is the focusing -|u|^2 u of the PDE throughout; there is
no coefficient to set.  Modes chart (rho0, rho1), unit coefficients:

    i rho0' = Omega0 rho0 - (|rho0|^2 rho0 + 2 |rho1|^2 rho0 + rho1^2 conj(rho0))
    i rho1' = Omega1 rho1 - (|rho1|^2 rho1 + 2 |rho0|^2 rho1 + rho0^2 conj(rho1))

with invariants N = |rho0|^2 + |rho1|^2 and

    H = Omega0 |rho0|^2 + Omega1 |rho1|^2 - |rho0|^4 / 2 - |rho1|^4 / 2
        - 2 |rho0|^2 |rho1|^2 - Re(rho1^2 conj(rho0)^2).

Cartesian chart rho0 = A e^{i theta}, rho1 = (alpha + i beta) e^{i theta}:

    alpha' = (Omega10 + 2 alpha^2) beta
    beta'  = -(Omega10 - 2 A^2 + 2 alpha^2) alpha
    A'     = -2 alpha beta A
    theta' = -Omega0 + A^2 + 3 alpha^2 + beta^2

Measured overlap tensors enter the modes chart only, through a0000, a0011
and a1111 (the odd channels vanish by parity); the cartesian chart assumes
unit coefficients (a_ijkl = 1 on even channels).

Phase plane eps1 = |rho1|, dtheta = arg rho1 - arg rho0 at fixed power
N = N_cr + n, unit coefficients and Omega10 = 2 N_cr (vf_polar_reduced,
which phaseplane integrates by polar_midpoint_orbit):

    eps1'   = eps1 (N - eps1^2) sin(2 dtheta)
    dtheta' = -Omega10 + (N - 2 eps1^2)(1 + cos(2 dtheta))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BelowThreshold, ChartBreakdown, NoCrossing, StepFailure
from .roots import brentq

MODES = "modes"
CARTESIAN = "cartesian"
_CHARTS = (MODES, CARTESIAN)

_A_FLOOR = 1e-8

# land_period integrates in calls of this many steps, so that it overshoots
# the landing by less than one call
LANDING_CHUNK = 100


@dataclass(frozen=True)
class ModeAmplitudes:
    rho0: complex
    rho1: complex


@dataclass(frozen=True)
class CartesianChart:
    A: float
    alpha: float
    beta: float
    theta: float = 0.0


def pitchfork_coefficient(a: Optional[np.ndarray]) -> float:
    """3 a0011 - a0000 of an overlap tensor (2 for unit coefficients, a
    None): the critical power of the pitchfork is Omega10 over it."""
    if a is None:
        return 2.0
    return 3.0 * a[0, 0, 1, 1] - a[0, 0, 0, 0]


def equilibrium_alpha(params: ReducedParams, n_level: float) -> float:
    """alpha of the symmetry-broken equilibrium for unit or tensor tensors."""
    p = pitchfork_coefficient(params.a)
    q = p if params.a is None else \
        3.0 * params.a[0, 0, 1, 1] - params.a[1, 1, 1, 1]
    alpha2 = (p * n_level - params.omega10) / (p + q)
    if alpha2 < 0:
        raise BelowThreshold("no asymmetric equilibrium at this power")
    return math.sqrt(alpha2)


@dataclass
class ReducedParams:
    """Frequencies and optional measured overlap tensor."""

    omega0: float
    omega1: float
    a: Optional[np.ndarray] = None   # None => unit coefficients

    def __post_init__(self):
        if self.omega10 <= 0:
            raise ValueError("requires omega1 > omega0")

    @property
    def omega10(self) -> float:
        return self.omega1 - self.omega0

    @property
    def n_cr_fd(self) -> float:
        return self.omega10 / pitchfork_coefficient(self.a)

    @classmethod
    def from_ncr(cls, n_cr: float, omega0: float = -1.0):
        if n_cr <= 0:
            raise ValueError("n_cr must be positive")
        return cls(omega0=omega0, omega1=omega0 + 2.0 * n_cr)

    @classmethod
    def from_spectral(cls, spectral) -> "ReducedParams":
        return cls(
            omega0=spectral.omega0,
            omega1=spectral.omega1,
            a=spectral.a,
        )


# ----------------------------------------------------------------------
# vector fields
# ----------------------------------------------------------------------

def _coefficients(params: ReducedParams):
    """(a0000, a0011, a1111) as floats; unit coefficients without a
    measured tensor.  The odd channels are parity zeros."""
    if params.a is None:
        return 1.0, 1.0, 1.0
    a = params.a
    return float(a[0, 0, 0, 0]), float(a[0, 0, 1, 1]), float(a[1, 1, 1, 1])


def chart_field(chart: str, params: ReducedParams):
    """The chart's vector field as a function of the four packed float
    coordinates, returning a 4-tuple of floats.  Build it once per
    integration: each call makes no dataclass and no array."""
    # plain floats: numpy scalars would make every operation below slow
    om0, om1 = float(params.omega0), float(params.omega1)
    if chart == MODES:
        a0000, a0011, a1111 = _coefficients(params)

        def modes(x0, y0, x1, y1):
            r0, r1 = complex(x0, y0), complex(x1, y1)
            n0, n1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
            p0, p1 = n0 * r0, n1 * r1
            m01 = r1 * r1 * r0.conjugate() + 2.0 * n1 * r0
            m10 = r0 * r0 * r1.conjugate() + 2.0 * n0 * r1
            d0 = om0 * r0 - (a0000 * p0 + a0011 * m01)
            d1 = om1 * r1 - (a1111 * p1 + a0011 * m10)
            # rho' = -i d
            return d0.imag, -d0.real, d1.imag, -d1.real

        return modes
    if chart == CARTESIAN:
        if params.a is not None:
            raise ValueError(
                "the cartesian chart implements the unit-coefficient "
                "reduction; integrate tensor-mode systems in the modes chart")
        om10 = om1 - om0

        def cartesian(a, al, be, _theta):
            if a <= _A_FLOOR:
                raise ChartBreakdown(f"cartesian chart needs A > {_A_FLOOR}")
            return (-2.0 * al * be * a,
                    (om10 + 2.0 * al * al) * be,
                    -(om10 - 2.0 * a * a + 2.0 * al * al) * al,
                    -om0 + a * a + 3.0 * al * al + be * be)

        return cartesian
    raise ValueError(f"unknown chart {chart!r}")


def vf_polar_reduced(eps1: float, dtheta: float, n: float, n_cr: float):
    """(eps1', dtheta') of the two-field perturbation form with power offset n."""
    s2 = math.sin(2.0 * dtheta)
    c2 = math.cos(2.0 * dtheta)
    d_eps1 = eps1 * (n_cr + n - eps1 * eps1) * s2
    d_dth = -2.0 * n_cr + (n_cr + n - 2.0 * eps1 * eps1) * (1.0 + c2)
    return d_eps1, d_dth


def polar_midpoint_orbit(eps1: float, dtheta: float, n: float, n_cr: float,
                         dt: float, n_steps: int, every: int):
    """The implicit midpoint on vf_polar_reduced from (eps1, dtheta): n_steps
    steps of dt, recording the start, the state after every `every` steps
    and the last state.

    Returns (rows, iterations, stalled): the recorded (eps1, dtheta) pairs,
    the corrector iterations summed over all steps, and the steps whose
    iteration ran out before meeting the stop test.  A step's corrector
    stops when the update is below max(1e-13, 1.5 ulp(dtheta)): a winding
    dtheta past 512 has an ulp above 1e-13, where iterates that cycle
    between adjacent floats would never meet 1e-13 alone.

    The field is vf_polar_reduced written inline, operation for operation,
    so every row equals the one integrating with that function gives; the
    loop makes no call but sin and cos (and ulp past |dtheta| = 512) and
    builds no tuple per iteration.
    """
    sin, cos, ulp = math.sin, math.cos, math.ulp
    dt = float(dt)
    e, th = float(eps1), float(dtheta)
    n_tot, m2ncr = n_cr + n, -2.0 * n_cr       # as vf evaluates them first
    rows = [(e, th)]
    iterations = stalled = 0
    for k in range(1, n_steps + 1):
        s2 = sin(2.0 * th)
        c2 = cos(2.0 * th)
        z_e = e + dt * (e * (n_tot - e * e) * s2)
        z_th = th + dt * (m2ncr + (n_tot - 2.0 * e * e) * (1.0 + c2))
        for it in range(1, 31):
            m_e = 0.5 * (e + z_e)
            # vf's 2 dtheta of the midpoint: halving rounds a subnormal
            a = 2.0 * (0.5 * (th + z_th))
            s2 = sin(a)
            c2 = cos(a)
            n_e = e + dt * (m_e * (n_tot - m_e * m_e) * s2)
            n_th = th + dt * (m2ncr + (n_tot - 2.0 * m_e * m_e) * (1.0 + c2))
            d_e = n_e - z_e
            d_th = n_th - z_th
            z_e = n_e
            z_th = n_th
            if -1e-13 < d_e < 1e-13 and -1e-13 < d_th < 1e-13:
                break
            if not -512.0 < z_th < 512.0:
                tol = 1.5 * ulp(z_th)
                if -tol < d_e < tol and -tol < d_th < tol:
                    break
        else:
            stalled += 1
        iterations += it
        e = z_e
        th = z_th
        if k % every == 0 or k == n_steps:
            rows.append((e, th))
    return rows, iterations, stalled


# ----------------------------------------------------------------------
# invariants and chart conversions
# ----------------------------------------------------------------------

def invariants(state, params: ReducedParams):
    """(N, H) for a state in any chart."""
    if isinstance(state, CartesianChart) and params.a is None:
        a, al, be = state.A, state.alpha, state.beta
        p = al * al + be * be
        n = a * a + p
        h = (params.omega0 * a * a + params.omega1 * p
             - 0.5 * a**4 - 0.5 * p * p - 2.0 * a * a * p
             - a * a * (al * al - be * be))
        return n, h
    m = convert(state, MODES)
    r0, r1 = m.rho0, m.rho1
    n = abs(r0) ** 2 + abs(r1) ** 2
    a0000, a0011, a1111 = _coefficients(params)
    cross = (r0 * r0 * (r1.conjugate() ** 2)).real
    h = (params.omega0 * abs(r0) ** 2 + params.omega1 * abs(r1) ** 2
         - 0.5 * (a0000 * abs(r0) ** 4 + a1111 * abs(r1) ** 4
                  + 4.0 * a0011 * abs(r0) ** 2 * abs(r1) ** 2
                  + 2.0 * a0011 * cross))
    return n, h


def convert(state, to_chart: str):
    """Convert a chart state to another chart (round trips are identity)."""
    if to_chart not in _CHARTS:
        raise ValueError(f"unknown chart {to_chart!r}")
    if isinstance(state, ModeAmplitudes):
        m = state
    elif isinstance(state, CartesianChart):
        if state.A <= 0:
            raise ChartBreakdown("cartesian chart requires A > 0")
        ph = complex(math.cos(state.theta), math.sin(state.theta))
        m = ModeAmplitudes(state.A * ph, complex(state.alpha, state.beta) * ph)
    else:
        raise TypeError(f"not a chart state: {type(state)!r}")

    if to_chart == MODES:
        return m
    a = abs(m.rho0)
    if a <= _A_FLOOR:
        raise ChartBreakdown(f"cartesian chart needs |rho0| > {_A_FLOOR}")
    theta = math.atan2(m.rho0.imag, m.rho0.real)
    c1 = m.rho1 * complex(math.cos(-theta), math.sin(-theta))
    return CartesianChart(A=a, alpha=c1.real, beta=c1.imag, theta=theta)


# packed real-vector views used by the integrators ----------------------

def pack(state) -> np.ndarray:
    if isinstance(state, ModeAmplitudes):
        return np.array([state.rho0.real, state.rho0.imag,
                         state.rho1.real, state.rho1.imag])
    if isinstance(state, CartesianChart):
        return np.array([state.A, state.alpha, state.beta, state.theta])
    raise TypeError(f"not a chart state: {type(state)!r}")


def unpack(chart: str, y) -> object:
    if chart == MODES:
        return ModeAmplitudes(complex(y[0], y[1]), complex(y[2], y[3]))
    if chart == CARTESIAN:
        return CartesianChart(A=float(y[0]), alpha=float(y[1]),
                              beta=float(y[2]), theta=float(y[3]))
    raise ValueError(f"unknown chart {chart!r}")


def vf_packed(chart: str, y, params: ReducedParams) -> np.ndarray:
    return np.array(chart_field(chart, params)(*map(float, y)))


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

@dataclass
class Trajectory:
    chart: str
    times: np.ndarray
    states: np.ndarray            # (m, 4) packed chart coordinates
    params: ReducedParams = field(repr=False)

    @cached_property
    def _invariant_series(self):
        """(N, H) at every recorded state, on first read: most callers
        read neither."""
        n, h = np.empty((2, len(self.times)))
        for i, y in enumerate(self.states):
            n[i], h[i] = invariants(unpack(self.chart, y), self.params)
        return n, h

    @property
    def n_series(self) -> np.ndarray:
        return self._invariant_series[0]

    @property
    def h_series(self) -> np.ndarray:
        return self._invariant_series[1]

    def state(self, i: int):
        return unpack(self.chart, self.states[i])

    def cartesian_series(self):
        """(A, alpha, beta, theta) arrays regardless of the native chart."""
        y = self.states
        if self.chart == CARTESIAN:
            return y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        rho0 = y[:, 0] + 1j * y[:, 1]
        rho1 = y[:, 2] + 1j * y[:, 3]
        a = np.abs(rho0)
        if np.any(a <= _A_FLOOR):
            raise ChartBreakdown("trajectory passes through |rho0| ~ 0")
        theta = np.unwrap(np.angle(rho0))
        c1 = rho1 * np.exp(-1j * theta)
        return a, c1.real, c1.imag, theta


def _implicit_midpoint_path(chart, y0, params, t_span, dt, record_every,
                            on_step=None):
    """(times, states) of the implicit midpoint over t_span, recorded every
    record_every steps and at the last, into arrays preallocated for the
    1 + ceil(n_steps / record_every) records.  on_step, if given, is called
    after every step with the four coordinates of the step's converged
    midpoint."""
    # plain floats: a numpy scalar dt or t_span would make every
    # operation of the loop a numpy scalar operation
    t0, t1 = map(float, t_span)
    dt = float(dt)
    n_steps = int(round((t1 - t0) / dt))
    if n_steps < 1:
        raise ValueError("t_span shorter than one step")
    f = chart_field(chart, params)
    # the four packed coordinates as Python floats
    y_0, y_1, y_2, y_3 = map(float, y0)
    times = np.empty(1 + -(-n_steps // record_every))
    states = np.empty((len(times), 4))
    times[0] = t0
    states[0] = y_0, y_1, y_2, y_3
    r = 0
    t = t0
    for k in range(n_steps):
        # tolerance tracks the current state: winding phase coordinates
        # grow secularly and would otherwise sink below the roundoff floor
        tol = 1e-13 * max(1.0, abs(y_0), abs(y_1), abs(y_2), abs(y_3))
        f_0, f_1, f_2, f_3 = f(y_0, y_1, y_2, y_3)
        z_0, z_1, z_2, z_3 = y_0 + dt * f_0, y_1 + dt * f_1, \
            y_2 + dt * f_2, y_3 + dt * f_3
        for _ in range(50):
            f_0, f_1, f_2, f_3 = f(0.5 * (y_0 + z_0), 0.5 * (y_1 + z_1),
                                   0.5 * (y_2 + z_2), 0.5 * (y_3 + z_3))
            n_0, n_1, n_2, n_3 = y_0 + dt * f_0, y_1 + dt * f_1, \
                y_2 + dt * f_2, y_3 + dt * f_3
            delta = max(abs(n_0 - z_0), abs(n_1 - z_1), abs(n_2 - z_2),
                        abs(n_3 - z_3))
            z_0, z_1, z_2, z_3 = n_0, n_1, n_2, n_3
            if delta <= tol:
                break
        else:
            raise StepFailure(f"implicit midpoint stalled at t = {t:.6g}")
        if on_step is not None:
            on_step(0.5 * (y_0 + z_0), 0.5 * (y_1 + z_1),
                    0.5 * (y_2 + z_2), 0.5 * (y_3 + z_3))
        y_0, y_1, y_2, y_3 = z_0, z_1, z_2, z_3
        t = t0 + (k + 1) * dt
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            r += 1
            times[r] = t
            states[r] = y_0, y_1, y_2, y_3
    return times, states


def integrate(state0, params: ReducedParams, t_span, dt,
              record_every: int = 1) -> Trajectory:
    """Integrate the reduction in the chart of state0 by the symplectic
    implicit midpoint.  A chart that breaks down on the way (the cartesian
    one at A ~ 0) raises ChartBreakdown; the modes chart has no such point.
    """
    chart = {ModeAmplitudes: MODES, CartesianChart: CARTESIAN}[type(state0)]
    times, states = _implicit_midpoint_path(
        chart, pack(state0), params, t_span, dt, record_every)
    return Trajectory(chart=chart, times=times, states=states, params=params)


def detect_period(traj: Trajectory) -> float:
    """Oscillation period from Poincare-section crossings: the mean
    crossing-to-crossing interval, on the section beta = 0 with beta
    decreasing.  Crossing times come from linear interpolation.
    """
    t = traj.times
    _, _, s, _ = traj.cartesian_series()
    crossings = []
    for i in range(len(s) - 1):
        if not (s[i] > 0.0 and s[i + 1] < 0.0):
            continue
        slope = (s[i + 1] - s[i]) / (t[i + 1] - t[i])
        if abs(slope) <= 1e-12:
            continue              # tangency tie-break
        crossings.append(t[i] - s[i] / slope)
    if len(crossings) < 2:
        raise NoCrossing("fewer than two same-direction section crossings")
    return float(np.mean(np.diff(crossings)))


def land_period(state0, params: ReducedParams, dt: float,
                max_span: float) -> tuple[float, int]:
    """(period, steps): the implicit midpoint's own period of the orbit
    through state0, landed on detect_period's section beta = 0, beta
    decreasing (M. Henon, Physica D 5, 1982).

    The orbit runs in the modes chart on _implicit_midpoint_path,
    LANDING_CHUNK steps a call, until beta goes from > 0 to <= 0 over a
    step; brentq then finds the partial step h in (0, dt] whose midpoint
    step lands on beta = 0, and the landing time is the full steps plus h.
    An orbit that starts on the section heading down lands once, and its
    period is that landing time; any other lands twice and its period is
    the difference.  steps counts every midpoint step taken, partial ones
    included.  Raises NoCrossing when max_span passes without the
    landings needed.
    """
    def section(y):                 # |rho0| beta = Im(rho1 conj(rho0))
        return y[0] * y[3] - y[1] * y[2]

    dt = float(dt)
    max_steps = int(math.ceil(max_span / dt))
    y = pack(convert(state0, MODES))
    steps = partial = 0
    landings = []
    while steps < max_steps:
        n = min(LANDING_CHUNK, max_steps - steps)
        states = _implicit_midpoint_path(MODES, y, params, (0.0, n * dt),
                                         dt, 1)[1]
        s = section(states.T)
        if steps == 0 and s[0] == 0.0 and s[1] < 0.0:
            landings.append(0.0)
        for i in np.flatnonzero((s[:-1] > 0.0) & (s[1:] <= 0.0)):

            def beta_after(h):
                nonlocal partial
                if h == 0.0:
                    return s[i]
                partial += 1
                return section(_implicit_midpoint_path(
                    MODES, states[i], params, (0.0, h), h, 1)[1][-1])

            h = brentq(beta_after, 0.0, dt)
            landings.append((steps + int(i)) * dt + h)
            if len(landings) == 2:
                return landings[1] - landings[0], steps + n + partial
        steps += n
        y = states[-1]
    raise NoCrossing(f"{len(landings)} of 2 same-direction section "
                     f"landings by t = {max_span:.6g}")
