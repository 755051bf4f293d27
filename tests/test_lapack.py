"""dwnls.lapack against scipy's public LAPACK API: the same bits, the same
info codes, the same in-place writes and the same errors."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack as scipy_lapack

from dwnls import bound_states as bs
from dwnls import lapack
from dwnls import linear_spectrum as ls

SRC = str(Path(lapack.__file__).resolve().parents[1])


def _random_tridiagonal(seed, n=300, split=None):
    rng = np.random.default_rng(seed)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    if split is not None:
        e[split] = 0.0                      # two blocks for dstebz
    return d, e


@pytest.fixture(scope="module")
def operators(shadow_well, gauss_sigma1_L3):
    """(d, e) pairs: the pinned H of the nominal shadowing well (1,024
    points) and of the nominal groundstate well (4,096 points), L+ about a
    symmetric bound state on the latter, and seeded random tridiagonals,
    one of them split in two, so that dstebz's block order is not the
    ascending one."""
    sd = gauss_sigma1_L3
    h_shadow = ls.pinned_hamiltonian(shadow_well.spec, shadow_well.grid)
    h = ls.pinned_hamiltonian(sd.spec, sd.grid)
    state = bs.spectral_renormalize(h, sd.grid, sd.omega0 - 0.02,
                                    0.1 * sd.psi0.eigenfunction,
                                    symmetrize=True)
    lp = h.shifted(state.omega).shifted(3.0 * state.profile[1:] ** 2)
    return {"H_1024": (h_shadow.diag, h_shadow.off),
            "H_4096": (h.diag, h.off),
            "Lplus_4096": (lp.diag, lp.off),
            "random_0": _random_tridiagonal(0),
            "random_1": _random_tridiagonal(1),
            "split_7": _random_tridiagonal(7, split=150)}


NAMES = ["H_1024", "H_4096", "Lplus_4096", "random_0", "random_1", "split_7"]


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.array_equal(g, w)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("select_range", [(0, 0), (0, 1), (2, 6)])
def test_eigh_tridiagonal_by_index(operators, name, select_range):
    d, e = operators[name]
    _same(lapack.eigh_tridiagonal(d, e, select_range=select_range),
          scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                        select_range=select_range))
    got = lapack.eigh_tridiagonal(d, e, eigvals_only=True,
                                  select_range=select_range)
    want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                         select_range=select_range)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["H_1024", "random_0", "random_1"])
def test_eigh_tridiagonal_all_pairs(operators, name):
    # all pairs at 4,096 points would hold two 134 MB bases at once
    d, e = operators[name]
    _same(lapack.eigh_tridiagonal(d, e),
          scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr"))
    assert np.array_equal(
        lapack.eigh_tridiagonal(d, e, eigvals_only=True),
        scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
                                      lapack_driver="stemr"))


@pytest.mark.parametrize("name", NAMES)
def test_real_solves(operators, name):
    d, e = operators[name]
    rhs = np.random.default_rng(2).normal(size=d.size)
    for shift in (0.0, 0.3):
        args = (e, d - shift, e, rhs)
        mine = [a.copy() for a in args]
        theirs = [a.copy() for a in args]
        _same(lapack.dgtsv(*mine, overwrite_b=1),
              scipy_lapack.dgtsv(*theirs, overwrite_b=1))
        _same(mine, theirs)                 # b is overwritten alike
        mine, theirs = [d - shift, e.copy()], [d - shift, e.copy()]
        _same(lapack.dpttrf(*mine, overwrite_d=1, overwrite_e=1),
              scipy_lapack.dpttrf(*theirs, overwrite_d=1, overwrite_e=1))
        _same(mine, theirs)


def test_solves_report_info_alike(operators):
    # a zero pivot in dgtsv, and an indefinite matrix in dpttrf (L+ is
    # indefinite): both report info > 0 and return without raising
    d, e = operators["random_0"]
    zero = np.zeros_like(d)
    for solve in (lapack.dgtsv, scipy_lapack.dgtsv):
        assert solve(zero[:-1], zero, zero[:-1], d)[-1] == 1
    d, e = operators["Lplus_4096"]
    info = lapack.dpttrf(d, e)[2]
    assert info > 0 and info == scipy_lapack.dpttrf(d, e)[2]


@pytest.mark.parametrize("name", ["H_1024", "random_0"])
def test_complex_solve(operators, name):
    # the Crank-Nicolson system I + i dt/2 (H - phi) with a right-hand side
    d, e = operators[name]
    rng = np.random.default_rng(3)
    off = 0.5j * 4e-3 * e
    diag = 1.0 + 0.5j * 4e-3 * (d - rng.uniform(size=d.size))
    rhs = rng.normal(size=d.size) + 1j * rng.normal(size=d.size)
    for kw in ({}, {"overwrite_d": 1, "overwrite_b": 1},
               {"overwrite_dl": 1, "overwrite_d": 1, "overwrite_du": 1,
                "overwrite_b": 1}):
        mine = [off.copy(), diag.copy(), off.copy(), rhs.copy()]
        theirs = [off.copy(), diag.copy(), off.copy(), rhs.copy()]
        _same(lapack.zgtsv(*mine, **kw), scipy_lapack.zgtsv(*theirs, **kw))
        _same(mine, theirs)


def test_non_finite_input_raises_as_scipy(operators):
    d, e = operators["random_1"]
    d = d.copy()
    d[7] = np.nan
    with pytest.raises(ValueError) as want:
        scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 1),
                                      check_finite=True)
    for kw in ({}, {"select_range": (0, 1)},
               {"select_range": (0, 1), "eigvals_only": True}):
        with pytest.raises(ValueError) as got:
            lapack.eigh_tridiagonal(d, e, **kw)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("routine, kw, message", [
    ("dstebz", {"select_range": (0, 1), "eigvals_only": True},
     "stebz (eigh_tridiagonal) did not converge (LAPACK info=1)"),
    ("dstebz", {"select_range": (0, 1)},
     "stebz (eigh_tridiagonal) did not converge (LAPACK info=1)"),
    ("dstein", {"select_range": (0, 1)},
     "stein (eigh_tridiagonal) 1 eigenvectors failed to converge"),
    ("dstemr", {}, "stemr (eigh_tridiagonal) did not converge (LAPACK info=1)")])
def test_positive_info_raises_lin_alg_error(operators, monkeypatch, routine,
                                            kw, message):
    # the messages are those of scipy.linalg's _check_info
    lib = lapack._flapack()
    real = getattr(lib, routine)
    monkeypatch.setattr(lib, routine, lambda *a, **k: (*real(*a, **k)[:-1], 1))
    d, e = operators["random_0"]
    with pytest.raises(np.linalg.LinAlgError, match=f"^{re.escape(message)}$"):
        lapack.eigh_tridiagonal(d, e, **kw)


def _python(code):
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_loader_reuses_scipys_module():
    # with scipy.linalg imported first, dwnls calls the module object that
    # scipy.linalg.lapack holds
    assert _python(
        "import sys, scipy.linalg\n"
        "from dwnls import lapack\n"
        "lib = lapack._flapack()\n"
        "print(lib is sys.modules['scipy.linalg._flapack'],"
        " lib is scipy.linalg.lapack._flapack)") == "True True"


def test_missing_module_names_where_it_looked(monkeypatch):
    monkeypatch.setattr(lapack, "_lib", None)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(lapack, "PathFinder",
                        SimpleNamespace(find_spec=lambda name, path: None))
    where = str(Path(scipy.__file__).parent / "linalg")
    with pytest.raises(ImportError, match=re.escape(where)):
        lapack.dgtsv(*[np.ones(3)] * 4)


def test_scipy_linalg_imports_after_the_loader():
    # dwnls loads _flapack from its file alone; scipy.linalg imported later
    # takes that module and its eigensolver gives the same bits
    assert _python(
        "import sys\n"
        "import numpy as np\n"
        "from dwnls import lapack\n"
        "rng = np.random.default_rng(0)\n"
        "d, e = rng.normal(size=50), rng.normal(size=49)\n"
        "w, v = lapack.eigh_tridiagonal(d, e, select_range=(0, 3))\n"
        "lib = lapack._flapack()\n"
        "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import scipy.linalg\n"
        "w2, v2 = scipy.linalg.eigh_tridiagonal(d, e, select='i',"
        " select_range=(0, 3))\n"
        "print(before, scipy.linalg.lapack.dstebz is lib.dstebz,"
        " np.array_equal(w, w2) and np.array_equal(v, v2))"
    ) == "['scipy.linalg._flapack'] True True"
