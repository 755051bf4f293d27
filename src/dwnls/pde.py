"""Time evolution of i u_t = (-d^2/dx^2 + V) u - |u|^2 u on a 1D grid.

Two steppers:

* split-step Fourier (Strang) for smooth potentials on the periodic grid:
  half step P_1/2 of the pointwise flow exp(-i dt/2 (V - |u|^2)), full
  kinetic step K = exp(-i dt k^2) in Fourier space, half pointwise step.
  P_1/2 keeps |u|, so one step's closing half and the next step's opening
  half are the same phase, and a march runs as

      P_1/2 K P_1 K ... K P_1/2,

  where P_1 is that phase applied twice: each step builds it once, from
  the post-kinetic field, as its closing half, and the next step reuses it
  as its opening half.  A field the step did not itself return (the first,
  or one cut by the tail filter) gets its own opening phase.  Every step
  still returns the full Strang step.  Mass is conserved to rounding.

* Crank-Nicolson finite differences (Dirichlet ends) for delta wells and
  every shadowing run, with the cubic term taken linearly implicit by
  Besse's relaxation (C. Besse, SIAM J. Numer. Anal. 42, 2004).  The step
  carries Phi^{n+1/2} = 2|u^n|^2 - Phi^{n-1/2} on the free nodes 1..n-1
  and solves

      (I + (i dt/2)(H - Phi^{n+1/2})) u^{n+1} = (I - (i dt/2)(H - Phi^{n+1/2})) u^n

  once, one pivoted tridiagonal solve with no iteration; node 0 is the
  Dirichlet pin and stays exactly zero.  Delta wells enter H as -s/dx at
  their nodes.  The step is the Cayley transform of a real symmetric
  matrix, so the free-node mass dx sum |u|^2 is conserved to rounding, and
  the modified energy Q(u^n) - 1/2 dx sum Phi^{n+1/2} Phi^{n-1/2} (Q the
  quadratic form of the pinned H) is conserved too; with Phi = |u|^2 it is
  H[u].  Phi starts from |u^0|^2 (Phi^{-1/2} = Phi^{1/2} = |u^0|^2, so the
  modified energy starts at H[u^0]).  A tail-filter cut zeroes Phi where it
  zeroes u and the recursion runs on.  Restarting Phi from |u|^2 at a cut
  would drop the O(dt^2) gap between H and the modified energy each time,
  and those losses add up: on the nominal shadow run (62 cuts) H, with
  the energy the cuts remove added back, drifts by 9.3e-8 with restarts
  and 2.7e-9 without.

One driver, march, advances one field with one stepper, with a callback
after every record_every-th step and the last.  Its optional tail filter
zeroes |x| > cutoff_radius every trigger_steps steps (truncate-and-continue
for radiation leaving the frame) through the stepper's cut, which also
cuts a CN stepper's Phi, and counts the mass removed.

The reported energy is each scheme's discretization of
H[u] = int |u_x|^2 + V |u|^2 - |u|^4 / 2 (see hamiltonian).

A field is a complex array of node values, passed with its Grid; V
enters as its grid samples (linear_spectrum.potential_samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DwnlsError, NonlinearIterationDiverged
from .grids import Grid
from .io_utils import csv_text
from .lapack import fft, ifft, zgtsv
from .linear_spectrum import PinnedHamiltonian


@dataclass(frozen=True)
class TailFilter:
    trigger_steps: int
    cutoff_radius: float

    def __post_init__(self):
        if self.trigger_steps < 1:
            raise ValueError("tail filter trigger_steps (--filter-steps) "
                             "must be at least 1")
        if not self.cutoff_radius > 0:
            raise ValueError("tail filter cutoff_radius (--cutoff) must be "
                             "positive")


@dataclass
class EvolveParams:
    dt: float
    t_end: float
    scheme: str = "split_step"          # or "crank_nicolson"
    record_every: int = 1
    nonlinear: bool = True
    tail_filter: Optional[TailFilter] = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("split_step", "crank_nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError("record_every (--record-every) must be at "
                             "least 1")
        if round(self.t_end / self.dt) < 1:
            raise ValueError("t_end shorter than one step")


@dataclass
class PdeDiagnostics:
    times: np.ndarray
    mass: np.ndarray
    hamiltonian: np.ndarray
    x_com: np.ndarray
    max_amp: np.ndarray
    x_max: np.ndarray
    removed_mass: np.ndarray   # cumulative mass discarded by the tail filter

    def to_csv(self) -> str:
        return csv_text(["t", "N", "H", "x_com", "max_amp", "x_max",
                         "removed_mass"],
                        [self.times, self.mass, self.hamiltonian, self.x_com,
                         self.max_amp, self.x_max, self.removed_mass])


def mass(u: np.ndarray, grid: Grid, scheme: str = "crank_nicolson") -> float:
    """int |u|^2 as the dx sum of |u|^2 that the scheme's step conserves
    to rounding: over the free nodes 1..n-1 for Crank-Nicolson, over all
    nodes of the periodic grid for split-step."""
    return _dx_mass(grid, u if scheme == "split_step" else u[1:])


def _dx_mass(grid: Grid, u: np.ndarray) -> float:
    """dx sum |u|^2 over the entries of u."""
    return grid.dx * float(np.vdot(u, u).real)


def hamiltonian(u: np.ndarray, grid: Grid, v: np.ndarray,
                scheme: str = "crank_nicolson") -> float:
    """The energy of `scheme`, H[u] = int(|u_x|^2 + V |u|^2 - |u|^4/2),
    with v the grid samples of V that the steppers take (delta wells as
    -s/dx at their nodes, linear_spectrum.potential_samples) and
    rectangle sums of step dx.

    Crank-Nicolson: the quadratic form Q of the pinned tridiagonal H on
    the free nodes 1..n-1 (u[0] is the Dirichlet pin and is not read).
    The relaxation step conserves Q(u^n) - 1/2 dx sum Phi^{n+1/2}
    Phi^{n-1/2} to rounding; it starts at H[u^0], and H stays within
    O(dt^2) of it.  Split-step: the spectral kinetic energy of the
    periodic grid, conserved by the Strang step to O(dt^2).
    """
    if scheme != "split_step":
        # Q(u) - 1/2 dx sum |u|^4 is the quadratic form of H - |u|^2/2 at u
        free = u[1:]
        h = PinnedHamiltonian(grid, v)
        return h.shifted(0.5 * np.abs(free) ** 2).quadratic_form(free)
    dx = grid.dx
    k = wavenumbers(grid)
    kinetic = dx / grid.n_points * float(np.sum(k * k * np.abs(fft(u)) ** 2))
    a2 = np.abs(u) ** 2
    return kinetic + dx * float(np.sum((v - 0.5 * a2) * a2))


def wavenumbers(grid: Grid) -> np.ndarray:
    """2 pi np.fft.fftfreq(n, dx), the angular wavenumbers of the periodic
    grid in FFT order, by the same operations in the same order."""
    n = grid.n_points
    m = np.arange(n)
    m[(n + 1) // 2:] -= n
    return 2.0 * np.pi * (m * (1.0 / (n * grid.dx)))


def center_of_mass(u: np.ndarray, grid: Grid) -> float:
    """int x |u|^2 / int |u|^2 (dx cancels)."""
    a2 = np.abs(u) ** 2
    n = np.sum(a2)
    if n == 0.0:
        return 0.0
    return float(np.sum(grid.x * a2) / n)


# ----------------------------------------------------------------------
# split-step Fourier
# ----------------------------------------------------------------------

class SplitStepper:
    """Strang split-step on the periodic grid for a sampled smooth V.

    The pointwise half step exp(-i dt/2 (V - |u|^2)) leaves |u| unchanged,
    so the closing half of one step and the opening half of the next are
    the same phase.  step builds it once, from the post-kinetic field, and
    keeps it with the array it returns: when the next call gets that very
    array back, its opening half reuses the phase.  Any other array (the
    first step, a field cut by the tail filter, a copy) gets its own.  The
    returned array is read-only, so a caller cannot change the field
    behind the kept phase; a changed field is a new array.

    The phase is built as cos(theta) + i sin(theta) of the real angle
    theta = -dt/2 (V - |u|^2), written straight into one complex array;
    that gives the same bits as complex exp of the purely imaginary
    argument at a fraction of its cost.

    A step allocates one field: f = opening phase * u.  The forward
    transform, the kinetic product, the inverse transform and the closing
    phase all run in place on f, which is the array returned.  The
    transforms are scipy's pocketfft (dwnls.lapack.fft and ifft, the bits
    of np.fft.fft and np.fft.ifft).  Each product keeps its operand order,
    phase first: numpy's complex product uses FMA, so f * kinetic_phase
    can differ from kinetic_phase * f in the last bit.
    """

    def __init__(self, grid: Grid, v_samples: np.ndarray, dt: float,
                 nonlinear: bool = True):
        self.grid = grid
        self.v = np.asarray(v_samples, dtype=float)
        self.dt = dt
        self.nonlinear = nonlinear
        k = wavenumbers(grid)
        self.kinetic_phase = np.exp(-1j * dt * k * k)
        # without the cubic term the half step is a constant phase
        self._phase = None if nonlinear else np.exp(-0.5j * dt * self.v)
        self._last = None          # the array the last step returned

    def _half_phase(self, u):
        """exp(-i dt/2 (V - |u|^2)), the pointwise half step at u."""
        theta = np.abs(u)             # -dt/2 (V - |u|^2), formed in place
        np.multiply(theta, theta, out=theta)
        np.subtract(self.v, theta, out=theta)
        theta *= -0.5 * self.dt
        phase = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        return phase

    def cut(self, u: np.ndarray, keep: np.ndarray):
        """(u zeroed where keep is False, the mass removed); the next step
        builds its opening phase from the cut field."""
        self._last = None
        return cut_on_grid(self.grid, u, keep)

    def step(self, u: np.ndarray) -> np.ndarray:
        if not self.nonlinear or u is self._last:
            opening = self._phase
        else:
            opening = self._half_phase(u)
        f = opening * u
        fft(f, out=f)
        np.multiply(self.kinetic_phase, f, out=f)
        ifft(f, out=f)
        if self.nonlinear:
            self._phase = self._half_phase(f)
        np.multiply(self._phase, f, out=f)
        f.flags.writeable = False
        self._last = f
        return f


# ----------------------------------------------------------------------
# Crank-Nicolson finite differences
# ----------------------------------------------------------------------

class CrankNicolsonStepper:
    """Crank-Nicolson step with Besse's relaxation of the cubic term.

    Phi (on the free nodes 1..n-1) is Phi^{n-1/2} of the next step, or None
    before the first step, which starts it from |u^0|^2.  The step forms
    Phi^{n+1/2} = 2|u^n|^2 - Phi^{n-1/2} and makes one zgtsv solve
    (I + (i dt/2)(H - Phi^{n+1/2})) y = u^n; then u^{n+1} = 2y - u^n, which
    is the relaxation equation of the module docstring.  A failed solve
    raises NonlinearIterationDiverged with LAPACK's info.
    """

    def __init__(self, grid: Grid, v_samples: np.ndarray, dt: float,
                 nonlinear: bool = True):
        self.grid = grid
        self.dt = dt
        self.nonlinear = nonlinear
        # I + (i dt/2) H on the free nodes; node 0 stays exactly zero
        h = PinnedHamiltonian(grid, v_samples)
        c = 0.5j * dt
        self._c = c
        self._diag = 1.0 + c * h.diag
        self._off = c * h.off
        self._phi = None

    def cut(self, u: np.ndarray, keep: np.ndarray):
        """(u zeroed where keep is False, the free-node mass removed); Phi
        is zeroed where u is, and the recursion runs on."""
        if self._phi is not None:
            self._phi = np.where(keep[1:], self._phi, 0.0)
        gone = np.where(keep, 0.0, u)
        return u - gone, _dx_mass(self.grid, gone[1:])

    def step(self, u: np.ndarray) -> np.ndarray:
        free = u[1:]
        if self.nonlinear:
            phi = free.real * free.real + free.imag * free.imag
            if self._phi is not None:
                phi *= 2.0
                phi -= self._phi
            self._phi = phi                       # Phi^{n+1/2}
            diag = self._diag - self._c * phi
        else:
            diag = self._diag.copy()
        # the right-hand side u^n is solved in place in out[1:]; lapack's
        # zgtsv is looked up as pde.zgtsv, where bench/tracer.py wraps it
        out = u.copy()
        out[0] = 0.0
        *_, y, info = zgtsv(self._off, diag, self._off, out[1:],
                            overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise NonlinearIterationDiverged(
                f"tridiagonal solve failed (zgtsv info {info})")
        y += y                                    # 2y - u^n, exactly
        y -= free
        return out


def cut_on_grid(grid: Grid, u: np.ndarray, keep: np.ndarray):
    """(u zeroed where keep is False, the dx sum of |u|^2 it removed)."""
    return np.where(keep, u, 0.0), _dx_mass(grid, u[~keep])


# ----------------------------------------------------------------------
# evolution driver
# ----------------------------------------------------------------------

def march(u: np.ndarray, stepper, n_steps: int, record_every: int,
          on_record, tail_filter: Optional[TailFilter] = None,
          on_cut=None) -> np.ndarray:
    """Advance u with stepper.step for n_steps steps; returns the last field.

    on_record(k, u, removed) is called after every record_every-th step k
    (1-based) and after the last, with the mass the tail filter has
    removed so far.  The filter cuts u through stepper.cut(u, keep), which
    returns the cut field and the mass it removed, and on_cut(before,
    after), if given, is called with u before and after each cut.  A
    DwnlsError raised during step k, by the stepper or by on_record,
    leaves with k in its .step.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    removed = 0.0
    if tail_filter is not None:
        grid = stepper.grid
        if tail_filter.cutoff_radius >= grid.x_max:
            raise ValueError("cutoff_radius (--cutoff) must lie inside the "
                             "domain")
        keep = np.abs(grid.x) <= tail_filter.cutoff_radius
    try:
        for k in range(1, n_steps + 1):
            u = stepper.step(u)
            if tail_filter is not None and k % tail_filter.trigger_steps == 0:
                before = u
                u, gone = stepper.cut(u, keep)
                removed += gone
                if on_cut is not None:
                    on_cut(before, u)
            if k % record_every == 0 or k == n_steps:
                on_record(k, u, removed)
    except DwnlsError as exc:
        exc.step = k
        raise
    return u


def evolve(u0: np.ndarray, grid: Grid, params: EvolveParams, v: np.ndarray):
    """March u0 from t = 0 to t_end, recording diagnostics every
    record_every steps; v, the grid samples of V, serves the stepper and
    every record's energy.

    Returns (final field, PdeDiagnostics).
    """
    dt = params.dt
    stepper = (SplitStepper if params.scheme == "split_step"
               else CrankNicolsonStepper)(grid, v, dt, params.nonlinear)
    rows = []

    def record(u, t, removed):
        i = int(np.argmax(np.abs(u)))
        amp = float(np.abs(u[i]))
        rows.append((t, mass(u, grid, params.scheme),
                     hamiltonian(u, grid, v, params.scheme),
                     center_of_mass(u, grid), amp,
                     float(grid.x[i]) if amp > 0.0 else 0.0, removed))

    u = u0.astype(complex)
    n_steps = int(round(params.t_end / dt))
    record(u, 0.0, 0.0)
    u = march(u, stepper, n_steps, params.record_every,
              lambda k, f, removed: record(f, k * dt, removed),
              params.tail_filter)
    return u, PdeDiagnostics(*np.array(rows).T)


def snapshot_csv(u: np.ndarray, grid: Grid) -> str:
    # abs of each complex scalar: np.abs of the array can round differently
    return csv_text(["x", "re_u", "im_u", "abs_u"],
                    [grid.x, u.real, u.imag, [abs(v) for v in u]])
