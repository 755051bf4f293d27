"""Numerical laboratory for NLS/GP with a symmetric double well: linear
spectra, the two-mode Hamiltonian reduction and its bifurcations, full PDE
evolution, nonlinear bound-state continuation, and shadowing experiments."""

__version__ = "0.1.0"
