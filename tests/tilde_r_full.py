"""R~ in the eigenbasis of the whole pinned H on the free nodes: the
reference for the even and odd blocks of shadowing._TildeREvolver.

FullTildeREvolver keeps the block stepper's source windows built from
the orbit (theta, source coefficients) and replaces its basis with the
n - 1 eigenvectors of the whole matrix, psi0 and psi1 (the lowest two)
left out; step, advance and at_steps are the block stepper's own."""

import numpy as np

from dwnls import shadowing as sh
from dwnls.lapack import eigh_tridiagonal
from dwnls.linear_spectrum import pinned_hamiltonian


class FullTildeREvolver(sh._TildeREvolver):
    def __init__(self, spectral, dt, orbit, n_steps):
        super().__init__(spectral, dt, orbit, n_steps)
        del self.ve, self.vo
        h = pinned_hamiltonian(spectral.spec, self.grid)
        lam, v = eigh_tridiagonal(h.diag, h.off)
        self.v = v[:, 2:]
        mu = lam[2:] - spectral.omega0
        self.e = np.exp(-1j * dt * mu)
        self._powers = np.ones((sh.BLOCK + 1, len(mu)), complex)
        np.cumprod(np.broadcast_to(self.e, (sh.BLOCK, len(mu))), axis=0,
                   out=self._powers[-2::-1])
        phi = -2j * np.sin(0.5 * dt * mu) * np.exp(-0.5j * dt * mu) / mu
        products = sh._Basis(spectral).products[:, 1:]
        self.g_phi = phi[:, None] * (self.v.T @ products.T)

    def to_grid(self, ss, theta):
        phase = np.exp(-1j * np.asarray(theta))
        out = np.zeros((len(ss), self.grid.n_points), complex)
        for i in range(0, len(ss), sh.SAMPLE_CHUNK):
            z = ss[i:i + sh.SAMPLE_CHUNK]
            n = len(z)
            parts = np.concatenate((z.real, z.imag)) @ self.v.T
            out[i:i + n, 1:] = ((parts[:n] + 1j * parts[n:])
                                * phase[i:i + n, None])
        return out

    def cut(self, s, keep):
        """S - V_out^T V_out S with V_out the rows of the free nodes
        outside keep, all at once, and the mass removed as a dx-sum."""
        v_out = self.v[~keep[1:]]
        r_out = sh._real_product(v_out, s)
        removed = self.grid.dx * float(np.vdot(r_out, r_out).real)
        return s - sh._real_product(v_out.T, r_out), removed


def full_tilde_r_evolve(spectral, dt, orbit, n_steps, steps, tail_filter=None):
    """R~ at the steps, as _TildeREvolver.at_steps, with FullTildeREvolver."""
    return FullTildeREvolver(spectral, dt, orbit, n_steps).at_steps(
        steps, tail_filter)
