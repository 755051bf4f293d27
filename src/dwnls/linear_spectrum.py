"""Double-well potentials, their two bound states, and mode-overlap data.

Potentials
----------
Double delta:     V(x) = -s [delta(x - L/2) + delta(x + L/2)],  s > 0
Double Gaussian:  V(x) = -(4 pi sigma^2)^{-1/2} [exp(-(x-L)^2 / 4 sigma^2)
                                               + exp(-(x+L)^2 / 4 sigma^2)]

For the delta pair the bound-state decay rates solve the transcendental
equations

    kappa_even = (s/2) (1 + exp(-kappa L)),
    kappa_odd  = (s/2) (1 - exp(-kappa L)),

with energies Omega_j = -kappa_j^2; the odd state exists iff s L > 2.

The grid eigensolver discretises H = -d^2/dx^2 + V with second-order
centered differences (delta wells enter as -s/dx at their nodes, the
consistent weak form).  H commutes with x -> -x exactly, so it splits into
an even and an odd tridiagonal block over the half grid
(PinnedHamiltonian.blocks): psi0 is the lowest eigenpair of the even
block and psi1 that of the odd one, even and odd by construction.  Sign
conventions: psi0 positive, psi1 positive for x > 0.

Overlap coefficients a_ijkl = integral psi_i psi_j psi_k psi_l dx vanish
for odd i+j+k+l (parity); the critical power of the two-mode reduction of
the focusing cubic term -|u|^2 u is

    N_cr = Omega10 / 2                    (unit coefficients)
    N_cr = Omega10 / (3 a0011 - a0000)    (measured coefficients)
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateDenominator,
    DomainTooSmall,
    OddStateAbsent,
)
from .grids import Grid, inner, norm2
from .io_utils import csv_text
from .lapack import eigh_tridiagonal
from .reduced_dynamics import pitchfork_coefficient
from .roots import RTOL_MIN, brentq

_ROOT_TOL = 1e-14
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PotentialSpec:
    """Symmetric double well: kind 'delta' or 'gauss'.

    strength is s > 0 for delta wells and sigma for Gaussian wells;
    separation is L > 0 (delta wells sit at +-L/2, Gaussians at +-L).
    """

    kind: str
    strength: float
    separation: float

    def __post_init__(self):
        if self.kind not in ("delta", "gauss"):
            raise ValueError(f"unknown well kind {self.kind!r}")
        if self.strength <= 0 or self.separation <= 0:
            raise ValueError("strength and separation must be positive")


@dataclass
class SpectralData:
    spec: PotentialSpec
    grid: Grid
    omega0: float
    omega1: float
    psi0: np.ndarray
    psi1: np.ndarray
    a: np.ndarray          # shape (2, 2, 2, 2) overlap tensor
    n_cr_fd: float         # general-coefficient critical power

    @property
    def omega10(self) -> float:
        return self.omega1 - self.omega0

    def to_json_dict(self) -> dict:
        return {
            "spec": {
                "kind": self.spec.kind,
                "strength": self.spec.strength,
                "separation": self.spec.separation,
            },
            "grid": {
                "x_min": self.grid.x_min,
                "x_max": self.grid.x_max,
                "n_points": self.grid.n_points,
            },
            "omega0": self.omega0,
            "omega1": self.omega1,
            "a": [float(v) for v in self.a.reshape(-1)],
            "n_cr_fd": self.n_cr_fd,
        }


def potential_value(spec: PotentialSpec, x):
    """Pointwise potential (Gaussian case; deltas have no pointwise value)."""
    if spec.kind != "gauss":
        raise ValueError("pointwise values only exist for Gaussian wells")
    sigma, L = spec.strength, spec.separation
    norm = 1.0 / np.sqrt(4.0 * np.pi * sigma**2)
    return -norm * (
        np.exp(-((x - L) ** 2) / (4.0 * sigma**2))
        + np.exp(-((x + L) ** 2) / (4.0 * sigma**2))
    )


def solve_double_delta_levels(strength: float, separation: float):
    """Decay rates (kappa_even, kappa_odd) of the double-delta bound states.

    Raises OddStateAbsent when s L <= 2 (no odd root).
    """
    s, L = float(strength), float(separation)
    if s <= 0 or L <= 0:
        raise ValueError("strength and separation must be positive")

    def f_even(k):
        return k - 0.5 * s * (1.0 + np.exp(-k * L))

    # even root lies in (s/2, s]
    lo, hi = 0.5 * s, s * (1.0 + 1e-12)
    if f_even(lo) == 0.0:               # exp underflow: decoupled wells
        kappa_even = lo
    else:
        kappa_even = brentq(f_even, lo, hi, xtol=_ROOT_TOL, rtol=RTOL_MIN)

    if s * L <= 2.0:
        raise OddStateAbsent(
            f"s*L = {s * L:.6g} <= 2: the double well has no odd bound state"
        )

    def f_odd(k):
        return k - 0.5 * s * (1.0 - np.exp(-k * L))

    # f_odd(0) = 0 always; for sL > 2 the positive root is in (0, s/2)
    lo = min(1e-8, 0.25 * s)
    while f_odd(lo) >= 0.0 and lo > 1e-300:
        lo *= 0.5
    hi = 0.5 * s
    if f_odd(hi) == 0.0:
        kappa_odd = hi
    else:
        kappa_odd = brentq(f_odd, lo, hi, xtol=_ROOT_TOL, rtol=RTOL_MIN)
    return float(kappa_even), float(kappa_odd)


def potential_samples(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Grid samples of V, with delta wells folded in as -s/dx at the node
    snap(L/2) and its mirror node, so that samples 1..n-1 are symmetric.

    Raises DomainTooSmall when the well tails (potential for Gaussians,
    estimated bound-state decay for deltas) exceed 1e-12 at the boundary.
    """
    if spec.kind == "gauss":
        if abs(potential_value(spec, grid.x_max)) > 1e-12:
            raise DomainTooSmall(
                "Gaussian tails exceed 1e-12 at the domain boundary"
            )
        return potential_value(spec, grid.x)
    half = spec.separation / 2.0
    # single-well decay length is ~2/s; demand 10 of them inside the boundary
    margin = grid.x_max - half
    if margin < 10.0 * 2.0 / spec.strength:
        raise DomainTooSmall(
            "wells sit closer than 10 decay lengths to the domain boundary"
        )
    v = np.zeros(grid.n_points)
    i = grid.node_index(grid.snap(half))
    for j in (grid.n_points - i, i):          # the left well mirrors the right
        v[j] -= spec.strength / grid.dx
    return v


class PinnedHamiltonian:
    """The discrete H = -d2/dx2 + V (minus any shift) on the free nodes
    1..n-1 of a grid.

    Node 0 (x = -x_max, the lone unpaired node of the grid) is a Dirichlet
    zero throughout the package, which makes the operator commute with the
    reflection x -> -x exactly; this type is the one place that drops it.
    diag = 2/dx^2 + V and off = -1/dx^2 are the tridiagonal entries (n - 1
    and n - 2 of them), v is V alone, for the quadratic form.
    """

    def __init__(self, grid: Grid, v_samples: np.ndarray):
        dx2 = grid.dx**2
        self.dx = grid.dx
        self.v = np.asarray(v_samples, dtype=float)[1:]
        self.diag = 2.0 / dx2 + self.v
        self.off = np.full(grid.n_points - 2, -1.0 / dx2)

    def shifted(self, s) -> "PinnedHamiltonian":
        """H - s, for a scalar s or an array s over the free nodes."""
        h = copy.copy(self)
        h.v, h.diag = self.v - s, self.diag - s
        return h

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """H u for u over the free nodes."""
        out = self.diag * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """H u for u on the whole grid: u[0] is not read, and node 0 of the
        result is 0."""
        out = np.zeros_like(u)
        out[1:] = self @ u[1:]
        return out

    def quadratic_form(self, u: np.ndarray) -> float:
        """dx <u, H u> for u over the free nodes, in difference form:
        sum |u_{i+1} - u_i|^2 / dx, with the pinned zero on both sides
        (node n wraps to node 0), plus dx sum V |u|^2."""
        kinetic = float(np.sum(np.abs(np.diff(u)) ** 2)
                        + abs(u[0]) ** 2 + abs(u[-1]) ** 2) / self.dx
        return kinetic + self.dx * float(np.sum(self.v * np.abs(u) ** 2))

    def blocks(self):
        """((diag, off) of the even block, (diag, off) of the odd block).

        The free nodes are reflection-symmetric about the centre free node
        c = n/2 - 1 (x = 0), so on a symmetric V the eigenvectors of H are
        even or odd, and their values on the half grid 0..c of free nodes
        are eigenvectors of two tridiagonal blocks: the even block is H on
        nodes 0..c with the coupling to c scaled by sqrt(2), the odd block
        H on nodes 0..c-1.  Together their spectra are that of H."""
        c = len(self.diag) // 2
        off_even = self.off[:c].copy()
        off_even[-1] *= math.sqrt(2.0)
        return (self.diag[:c + 1], off_even), (self.diag[:c], self.off[:c - 1])

    def block_eigenpairs(self, select_range=None):
        """((eigenvalues, vectors) of the even block, the same of the odd
        block), all pairs or the select_range ones (eigh_tridiagonal),
        each vector scaled to the half-grid values of the unit eigenvector
        of H that it unfolds to (unfold)."""
        (d_even, e_even), (d_odd, e_odd) = self.blocks()
        lam_e, ve = eigh_tridiagonal(d_even, e_even, select_range=select_range)
        lam_o, vo = eigh_tridiagonal(d_odd, e_odd, select_range=select_range)
        ve[:-1] *= math.sqrt(0.5)
        vo *= math.sqrt(0.5)
        return (lam_e, ve), (lam_o, vo)


def unfold(even: np.ndarray, odd) -> np.ndarray:
    """Values on the free nodes 1..n-1 (last axis) from the half-grid values
    of an even part (free nodes 0..c) and an odd part (0..c-1, or a scalar
    0): even + odd on the half grid, the even part alone at the centre c,
    even - odd on the mirror half."""
    half = even[..., :-1]
    return np.concatenate((half + odd, even[..., -1:], (half - odd)[..., ::-1]),
                          axis=-1)


def pinned_hamiltonian(spec: PotentialSpec, grid: Grid) -> PinnedHamiltonian:
    """The pinned H of the well `spec` on `grid`."""
    return PinnedHamiltonian(grid, potential_samples(spec, grid))


def reflect(f: np.ndarray) -> np.ndarray:
    """Samples of f(-x) on the same grid (node i maps to (n - i) mod n)."""
    g = np.empty_like(f)
    g[0] = f[0]
    g[1:] = f[:0:-1]
    return g


def compute_eigenpairs(spec: PotentialSpec, grid: Grid):
    """((Omega0, psi0), (Omega1, psi1)): the lowest eigenpair of the even
    block of H and of the odd block (PinnedHamiltonian.blocks), unfolded
    onto the grid.

    Eigenvectors are normalized in grids.inner, with the sign conventions
    psi0 > 0 (even) and psi1(x) > 0 for x > 0 (odd); each eigenvalue is
    its vector's Rayleigh quotient.
    """
    if spec.kind == "delta":
        # transcendental pre-check gives the sharp existence condition
        solve_double_delta_levels(spec.strength, spec.separation)
    h = pinned_hamiltonian(spec, grid)
    (lam_e, ve), (lam_o, vo) = h.block_eigenpairs(select_range=(0, 0))
    # box modes of the finite domain start near (pi / x_max)^2 > 0
    box_floor = -0.5 * (np.pi / grid.x_max) ** 2
    if lam_e[0] >= box_floor or lam_o[0] >= box_floor:
        raise OddStateAbsent(
            f"fewer than 2 bound states (levels {lam_e[0]}, {lam_o[0]})")
    pairs = []
    for free in (unfold(ve[:, 0], 0.0), unfold(np.zeros(len(ve)), vo[:, 0])):
        psi = np.zeros(grid.n_points)
        psi[1:] = free / norm2(free, grid)
        right = psi[grid.n_points // 2:]          # x >= 0
        if right[np.argmax(np.abs(right))] < 0:
            psi = -psi
        hpsi = h.apply(psi)
        lam = float(inner(psi, hpsi, grid))
        res = hpsi - lam * psi
        if np.linalg.norm(res) > 1e-8 * np.linalg.norm(psi):
            raise ConvergenceFailure("eigenresidual exceeds 1e-8")
        pairs.append((lam, psi))
    if not pairs[0][0] < pairs[1][0] < 0:
        raise ConvergenceFailure("eigenvalue ordering Omega0 < Omega1 < 0 failed")
    return pairs


def overlap_coefficients(psi0: np.ndarray, psi1: np.ndarray,
                         grid: Grid) -> np.ndarray:
    """Rank-4 overlap tensor a_ijkl of an even psi0 and an odd psi1 on
    grid, as compute_eigenpairs makes them: the entries with i + j + k + l
    odd are integrals of odd functions, zero."""
    basis = (psi0, psi1)
    a = np.zeros((2, 2, 2, 2))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        if (i + j + k + l) % 2 == 0:
            a[i, j, k, l] = inner(basis[i] * basis[j],
                                  basis[k] * basis[l], grid)
    return a


def critical_power(omega0: float, omega1: float, a: np.ndarray) -> float:
    """Omega10 / (3 a0011 - a0000), the critical power of the reduction
    with the measured tensor a; requires Omega10 > 0."""
    omega10 = omega1 - omega0
    if omega10 <= 0:
        raise ValueError("requires Omega1 > Omega0")
    denom = pitchfork_coefficient(a)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(
            "3 a0011 - a0000 vanishes; general critical power undefined"
        )
    general = omega10 / denom
    if general <= 0:
        raise DegenerateDenominator(
            "critical power not positive; check nonlinearity sign"
        )
    return general


def spectral_data(spec: PotentialSpec, grid: Grid) -> SpectralData:
    """Full spectral bundle for the two-mode reduction of this well."""
    (omega0, psi0), (omega1, psi1) = compute_eigenpairs(spec, grid)
    if abs(inner(psi0, psi1, grid)) > _ORTHO_TOL:
        raise ConvergenceFailure("eigenfunctions not orthogonal")
    a = overlap_coefficients(psi0, psi1, grid)
    return SpectralData(
        spec=spec,
        grid=grid,
        omega0=omega0,
        omega1=omega1,
        psi0=psi0,
        psi1=psi1,
        a=a,
        n_cr_fd=critical_power(omega0, omega1, a),
    )


def tune_delta_strength_for_ncr(
    target_ncr: float,
    separation: float,
    grid: Grid,
    s_bracket: tuple[float, float],
) -> SpectralData:
    """Adjust the delta strength so the measured general critical power
    equals target_ncr on this grid (separation is snapped to a node pair).

    The general critical power decreases with s at fixed separation
    (exponential splitting), so a sign-changing bracket suffices.
    """
    half = grid.snap(separation / 2.0)
    sep = 2.0 * half

    def gap(s):
        sd = spectral_data(PotentialSpec("delta", s, sep), grid)
        return sd.n_cr_fd - target_ncr

    lo, hi = s_bracket
    if gap(lo) * gap(hi) > 0:
        raise ConvergenceFailure("critical-power target not bracketed by s range")
    s_star = brentq(gap, lo, hi, rtol=1e-10, xtol=1e-13)
    return spectral_data(PotentialSpec("delta", float(s_star), sep), grid)


def eigenfunctions_to_csv(data: SpectralData) -> str:
    return csv_text(["x", "psi0", "psi1"],
                    [data.grid.x, data.psi0, data.psi1])
