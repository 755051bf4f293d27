"""LAPACK and FFT for dwnls from two of scipy's compiled modules,
scipy.linalg._flapack (f2py) and scipy.fft._pocketfft.pypocketfft, each
loaded from its file on first use (or reused from sys.modules, and
registered there), without the package imports of scipy.linalg and
scipy.fft and their array-API layers.  Callers import the routines by name
(pde.zgtsv, pde.fft), the name looked up on each call."""

import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

_lib = None                 # scipy.linalg._flapack
_fft = None                 # scipy.fft._pocketfft.pypocketfft


def _load(package, name):
    """scipy.<package>.<name> from sys.modules, or else loaded from its
    file in scipy's package directory and registered under that name."""
    full = f"scipy.{package}.{name}"
    if (lib := sys.modules.get(full)) is None:
        where = str(Path(find_spec("scipy").origin).parent.joinpath(
            *package.split(".")))
        if (found := PathFinder.find_spec(name, [where])) is None:
            raise ImportError(f"scipy's module {name} not found in {where}")
        spec = spec_from_file_location(full, found.origin)
        spec.loader.exec_module(lib := module_from_spec(spec))
        sys.modules[full] = lib
    return lib


def _flapack():
    global _lib
    if _lib is None:
        _lib = _load("linalg", "_flapack")
    return _lib


def _pocketfft():
    global _fft
    if _fft is None:
        _fft = _load("fft._pocketfft", "pypocketfft")
    return _fft


def fft(a, out=None):
    """np.fft.fft(a) bit for bit, into out if given (out may be a)."""
    return (_fft or _pocketfft()).c2c(np.asarray(a, dtype=complex), None,
                                       True, 0, out)


def ifft(a, out=None):
    """np.fft.ifft(a), scaled by 1/n, bit for bit, into out if given (out
    may be a)."""
    return (_fft or _pocketfft()).c2c(np.asarray(a, dtype=complex), None,
                                       False, 2, out)


def zgtsv(*args, **kwargs):
    return (_lib or _flapack()).zgtsv(*args, **kwargs)


def dgtsv(*args, **kwargs):
    return (_lib or _flapack()).dgtsv(*args, **kwargs)


def dpttrf(*args, **kwargs):
    return (_lib or _flapack()).dpttrf(*args, **kwargs)


def _check_info(info, driver, positive="did not converge (LAPACK info=%d)"):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} " + positive % info)


def eigh_tridiagonal(d, e, eigvals_only=False, select_range=None):
    """scipy.linalg.eigh_tridiagonal's LAPACK calls and checks: all pairs by
    dstemr (lapack_driver="stemr"), or with select_range those pairs by
    dstebz and dstein (select="i")."""
    lib = _lib or _flapack()
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if len(d) == 1:                  # scipy's quick exit (the f2py e is empty)
        w, v = np.array([d[0]]), np.array([[1.0]])
        return w if eigvals_only else (w, v)
    if select_range is None:                      # dstemr takes e of length n
        args = (d, np.append(e, 0.0), 0, 0.0, 1.0, 1, 1, not eigvals_only)
        lwork, liwork, info = lib.dstemr_lwork(*args)
        _check_info(info, "stemr_lwork")
        m, w, v, info = lib.dstemr(*args, lwork=lwork, liwork=liwork)
        _check_info(info, "stemr (eigh_tridiagonal)")
        return w[:m] if eigvals_only else (w[:m], v[:, :m])
    il, iu = np.asarray(select_range) + 1
    m, w, iblock, isplit, info = lib.dstebz(d, e, 2, 0.0, 1.0, il, iu, 0.0,
                                            "E" if eigvals_only else "B")
    _check_info(info, "stebz (eigh_tridiagonal)")
    if eigvals_only:
        return w[:m]
    v, info = lib.dstein(d, e, w[:m], iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)", "%d eigenvectors failed to converge")
    order = np.argsort(w[:m])                     # block order to ascending
    return w[order], v[:, order]
