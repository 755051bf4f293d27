"""Nonlinear bound states (-u'' + V u - |u|^2 u = Omega u) by Newton's
method, natural-parameter continuation in Omega, and location of the
symmetry-breaking threshold on the soliton curve.

A real bound state is a root of F(psi) = (H - Omega) psi - psi^3 on the
free nodes 1..n-1 (node 0 is the Dirichlet pin).  The Jacobian is the
linearization L+ = H - Omega - 3 psi^2, tridiagonal like H, so a Newton
step is one pivoted tridiagonal solve (J. Yang, J. Comput. Phys. 228,
2009).  Newton converges to the root in whose basin the seed lies, so the
branches of the continued curve are told apart by warm starts: each point
starts from the last, and the asymmetric family gets an odd kick so it
can leave the symmetric state once it may.  The labels place the
pitchfork only to within a grid step, so the threshold is the Omega where
the odd eigenvalue of L+ about the symmetric state crosses zero (Kirr,
Kevrekidis, Shlizerman and Weinstein, SIAM J. Math. Anal. 40, 2008): the
lowest eigenvalue of L+'s odd block (PinnedHamiltonian.blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchLost,
    ConvergedToZero,
    IterationDiverged,
    NoBifurcationFound,
)
from .grids import Grid, inner
from .io_utils import csv_text
from .lapack import dgtsv, dpttrf, eigh_tridiagonal
from .linear_spectrum import (PinnedHamiltonian, PotentialSpec,
                              pinned_hamiltonian, reflect)
from .roots import brentq

SYMMETRIC = "symmetric"
ASYM_PLUS = "asym_plus"
ASYM_MINUS = "asym_minus"

# Newton stops once max|F| is within this many eps of (|L| + max|psi|^2)
# max|psi|, the roundoff of forming F on the grid (|L| the row-sum norm);
# a step is halved at most down to _MIN_STEP
_STOP_EPS = 16 * np.finfo(float).eps
_MIN_STEP = 2.0**-10
# an asymmetric-family point whose |asymmetry| is at most this fraction of
# its power is labelled symmetric
_ASYM_FLOOR = 1e-6


@dataclass
class BoundState:
    profile: np.ndarray = field(repr=False)
    omega: float
    n: float
    asymmetry: float
    residual: float
    iterations: int
    grid: Grid = field(repr=False)


@dataclass
class SolitonCurve:
    """Continued points; iterations holds each point's Newton steps."""

    omega: np.ndarray
    n: np.ndarray
    asymmetry: np.ndarray
    branch: list[str]
    iterations: np.ndarray

    def to_csv(self) -> str:
        return csv_text(["omega", "n", "asymmetry", "branch"],
                        [self.omega, self.n, self.asymmetry, self.branch])


def _asymmetry(profile: np.ndarray, grid: Grid) -> float:
    a2 = np.abs(profile) ** 2
    return grid.dx * float(np.sum(a2[grid.x > 0]) - np.sum(a2[grid.x < 0]))


def spectral_renormalize(h: PinnedHamiltonian, grid: Grid, omega: float,
                         seed_profile: np.ndarray, max_iter: int = 50,
                         symmetrize: bool = False,
                         best_effort: bool = False) -> BoundState:
    """Converge the bound state at frequency omega from seed_profile, with
    h the pinned H of the well on grid (its caller builds it once).

    Newton's method on F(psi) = (H - omega) psi - psi^3 over the free nodes
    1..n-1: each step solves L+ delta = F, with L+ = H - omega - 3 psi^2
    the Jacobian, and sets psi <- psi - delta.  From a seed far from the
    root the step is halved until |F|_2 decreases, at most 10 times, and
    taken whole if that fails.  The seed is first scaled by S^{1/2},
    S = <L psi, psi> / <psi^3, psi>, so that a small seed does not fall
    into the root psi = 0.  Newton reaches the root in whose basin the
    seed lies.  The iteration stops when max|F| is down to the roundoff of
    forming F.  omega must lie below the linear ground state so that
    H - omega is positive definite; otherwise IterationDiverged is raised
    before any step.  With symmetrize the iterate is projected onto even
    functions after every update, which pins the symmetric branch where
    the asymmetric one leaves it.  best_effort returns the last iterate
    instead of raising when max_iter Newton steps run out.  Raises
    IterationDiverged (naming omega) / ConvergedToZero.
    """
    lin = h.shifted(omega)                 # L = H - omega
    d, e = lin.diag, lin.off
    if dpttrf(d, e)[2] != 0:
        raise IterationDiverged(
            f"H - Omega is not positive definite at Omega = {omega:.17g}")
    psi = np.array(seed_profile, dtype=float)
    psi[0] = 0.0
    v = psi[1:]                            # view: the free nodes
    if symmetrize:
        v[:] = 0.5 * (v + v[::-1])
    if not np.any(v):
        raise ConvergedToZero("seed profile is identically zero")
    # the seed scale S: dx cancels in the ratio
    num = float(v @ (lin @ v))
    den = float(v @ (v * v * v))
    if not np.isfinite(num) or not np.isfinite(den):
        raise IterationDiverged(f"non-finite seed at Omega = {omega:.17g}")
    if den <= 0 or num <= 0:
        raise ConvergedToZero("renormalization ratio lost positivity")
    v *= (num / den) ** 0.5
    l_norm = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    f = lin @ v - v * v * v
    f2 = float(f @ f)
    it = 0
    while True:
        v_max = float(np.max(np.abs(v)))
        if np.max(np.abs(f)) <= _STOP_EPS * (l_norm + v_max**2) * v_max:
            break
        if it == max_iter:
            if best_effort:
                break
            raise IterationDiverged(
                f"no convergence in {max_iter} Newton steps at Omega = "
                f"{omega:.17g}")
        # L+ is indefinite (<L+ psi, psi> = -2 <psi^3, psi>): pivoted solve
        delta, info = dgtsv(e, d - 3.0 * v * v, e, f, overwrite_b=1)[3:]
        if info != 0:
            raise IterationDiverged(
                f"L+ solve failed (info {info}) at Omega = {omega:.17g}")
        if not np.all(np.isfinite(delta)):
            raise IterationDiverged(
                f"non-finite Newton step at Omega = {omega:.17g}")
        # halve the step until |F|^2 decreases enough (Armijo)
        step, full = 1.0, None
        while True:
            trial = v - step * delta
            if symmetrize:
                trial = 0.5 * (trial + trial[::-1])
            ft = lin @ trial - trial * trial * trial
            ft2 = float(ft @ ft)
            if full is None:
                full = (trial, ft, ft2)
            if ft2 <= (1.0 - 1e-4 * step) * f2:
                break
            step *= 0.5
            if step < _MIN_STEP:
                # no halving reduces |F|: take the plain Newton step
                trial, ft, ft2 = full
                break
        v[:], f, f2 = trial, ft, ft2
        it += 1
    nrm2 = float(inner(psi, psi, grid))
    if nrm2 < 1e-20:
        raise ConvergedToZero("iterate collapsed to zero")
    # phase fix: real and positive at the modulus maximum
    if psi[int(np.argmax(np.abs(psi)))] < 0:
        psi = -psi
    res = h.apply(psi) - psi**3 - omega * psi
    return BoundState(
        profile=psi,
        omega=omega,
        n=nrm2,
        asymmetry=_asymmetry(psi, grid),
        residual=float(np.linalg.norm(res) / np.linalg.norm(psi)),
        iterations=it,
        grid=grid,
    )


def default_seeds(spectral) -> dict:
    """Symmetric / asymmetric seed profiles built from the linear modes."""
    psi0, psi1 = spectral.psi0, spectral.psi1
    return {
        "symmetric": 0.1 * psi0,
        "asymmetric": 0.1 * (psi0 + 0.3 * psi1),
    }


def continue_in_omega(potential: PotentialSpec, grid: Grid,
                      omega_start: float, omega_end: float, step: float,
                      seeds: dict) -> SolitonCurve:
    """Trace soliton branches from omega_start toward omega_end (downward),
    reusing each converged profile as the next seed.

    seeds maps family names ('symmetric', 'asymmetric') to seed profiles;
    asymmetric-family points are labelled by the sign of their asymmetry
    once it exceeds _ASYM_FLOOR relative to the power.  The curve keeps
    each point's Newton steps in iterations.
    """
    if omega_end >= omega_start:
        raise ValueError("continuation must move toward decreasing omega")
    if step <= 0:
        raise ValueError("step must be positive (applied downward)")
    omegas = np.arange(omega_start, omega_end - 0.5 * step, -step)
    h = pinned_hamiltonian(potential, grid)
    out_omega, out_n, out_asym, out_branch, out_it = [], [], [], [], []
    for family, seed in seeds.items():
        seed = np.asarray(seed, dtype=float)
        # odd part of the family seed, re-injected at every step so the
        # asymmetric family can leave the symmetric state once it may
        odd = 0.5 * (seed - reflect(seed))
        odd_norm = float(np.linalg.norm(odd))
        profile = seed
        for om in omegas:
            try:
                st = spectral_renormalize(h, grid, float(om), profile,
                                          symmetrize=family == "symmetric")
            except (IterationDiverged, ConvergedToZero) as exc:
                raise BranchLost(
                    f"{family} branch lost at omega = {om:.6g}: {exc}") from exc
            profile = st.profile
            if family != "symmetric" and odd_norm > 0:
                kick = 0.3 * float(np.linalg.norm(profile)) / odd_norm
                profile = profile + kick * odd
            if family == "symmetric":
                label = SYMMETRIC
            elif abs(st.asymmetry) <= _ASYM_FLOOR * max(st.n, 1e-300):
                label = SYMMETRIC
            else:
                label = ASYM_PLUS if st.asymmetry > 0 else ASYM_MINUS
            out_omega.append(st.omega)
            out_n.append(st.n)
            out_asym.append(st.asymmetry)
            out_branch.append(label)
            out_it.append(st.iterations)
    return SolitonCurve(
        omega=np.array(out_omega),
        n=np.array(out_n),
        asymmetry=np.array(out_asym),
        branch=out_branch,
        iterations=np.array(out_it),
    )


@dataclass
class Threshold:
    """Symmetry-breaking point: omega_star the root of L+'s odd eigenvalue
    on the symmetric branch, n_star the power of the symmetric state there
    and odd_eigenvalue L+'s at omega_star, the root's residual."""

    n_star: float
    omega_star: float
    odd_eigenvalue: float


def detect_threshold(curve: SolitonCurve, potential: PotentialSpec,
                     grid: Grid, seeds: dict) -> Threshold:
    """Power at which the asymmetric branch separates from the symmetric one.

    The first asymmetric-labelled point of the asymmetric-seeded family
    and the next omega above it bracket the crossing, and omega* is the
    root of L+'s odd eigenvalue on the symmetric branch, the lowest
    eigenvalue of its odd block (the state is even, so L+ splits like H):
    the bracket steps along the curve's omega grid until that eigenvalue
    changes sign, and brentq closes it to 1e-12 relative in omega.  Each
    symmetric state is a Newton solve with even projection, warm-started
    from the previous one, the first from the even part of
    seeds['symmetric'].  Returns the Threshold, with n of the symmetric
    state at omega*.  Raises NoBifurcationFound when the curve shows no
    asymmetric point, when its first asymmetric point is at its top omega
    (no point above it to bracket the root), or when the eigenvalue keeps
    its sign over the grid.
    """
    sym_pts = [i for i, b in enumerate(curve.branch) if b == SYMMETRIC]
    asym_pts = [i for i, b in enumerate(curve.branch) if b != SYMMETRIC]
    if not asym_pts:
        raise NoBifurcationFound("no asymmetric point on the curve")
    if not sym_pts:
        raise NoBifurcationFound("no symmetric segment before the branch point")
    noise = max((abs(curve.asymmetry[i]) for i in sym_pts), default=0.0)
    floor = max(10.0 * noise, 1e-6 * float(np.max(curve.n)))
    flagged = [i for i in asym_pts if abs(curve.asymmetry[i]) > floor]
    if not flagged:
        raise NoBifurcationFound("asymmetry never exceeds the noise floor")
    first = min(flagged, key=lambda i: curve.n[i])
    # the distinct omegas, ascending: np.unique's result, without the
    # import of numpy.ma that np.unique makes
    omegas = np.sort(curve.omega)
    omegas = omegas[np.r_[True, omegas[1:] != omegas[:-1]]]
    lo = int(np.searchsorted(omegas, curve.omega[first]))
    if lo + 1 == len(omegas):
        raise NoBifurcationFound(
            "the first asymmetric point is at the top of the curve, with no "
            "point above it to bracket the root")
    seed = np.asarray(seeds["symmetric"], float)
    profile = 0.5 * (seed + reflect(seed))
    h = pinned_hamiltonian(potential, grid)
    solved = {}                            # omega -> (state, odd eigenvalue)

    def odd_eigenvalue(om):
        nonlocal profile
        om = float(om)
        if om not in solved:
            st = spectral_renormalize(h, grid, om, profile,
                                      symmetrize=True)
            profile = st.profile
            # L+ = H - omega - 3 psi^2, the linearization about st
            lp = h.shifted(st.omega).shifted(3.0 * st.profile[1:] ** 2)
            lam = eigh_tridiagonal(*lp.blocks()[1], eigvals_only=True,
                                   select_range=(0, 0))[0]
            solved[om] = (st, float(lam))
        return solved[om][1]

    hi = lo + 1                            # symmetric side (higher omega)
    while odd_eigenvalue(omegas[hi]) < 0:
        if hi + 1 == len(omegas):
            raise NoBifurcationFound(
                "odd eigenvalue of L+ is negative up to the top of the curve")
        lo, hi = hi, hi + 1
    while odd_eigenvalue(omegas[lo]) > 0:
        if lo == 0:
            raise NoBifurcationFound(
                "odd eigenvalue of L+ is positive down to the end of the curve")
        lo, hi = lo - 1, lo
    om_lo, om_hi = float(omegas[lo]), float(omegas[hi])
    om_star = brentq(odd_eigenvalue, om_lo, om_hi,
                     xtol=1e-12 * max(1.0, abs(om_lo)))
    odd_eigenvalue(om_star)
    state, lam = solved[float(om_star)]
    return Threshold(float(state.n), float(om_star), lam)
