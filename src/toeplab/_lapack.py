"""LAPACK of numpy's own OpenBLAS through ``ctypes``: the one route of every dense call in a run.

numpy's wheel bundles an ILP64 OpenBLAS (scipy-openblas) that exports
LAPACKE as ``scipy_LAPACKE_<routine>64_``.  Each function here calls one of
those routines, column-major with 64-bit integers, on the layout numpy's
``eigvals`` or the replaced ``scipy.linalg`` call passes, so it returns that
call's bits on the same OpenBLAS build (:func:`lu_log_abs_det` gives ``slogdet``'s).
``ctypes`` releases the GIL for the whole call, where numpy's linalg gufuncs
below dimension 500 and scipy's f2py wrappers hold it; no scipy is loaded.

Where numpy's OpenBLAS lacks any of the routines (:func:`routines` is None,
e.g. numpy built on Accelerate), every function takes ``np.linalg.eigvals``
or the ``scipy.linalg`` call it replaces instead.  The pivots of the two
routes differ in base (LAPACK's 1-based here, scipy's 0-based), so a
factorization is only ever passed to the solve of its own route.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

_COL_MAJOR = 102
_I, _P, _C = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char

#: Argument types after LAPACKE's leading ``int matrix_layout``, per routine.
#: A ``_work`` routine skips LAPACKE's NaN scan of its input (a full pass over
#: a dense matrix, about a millisecond per call at dimension 640); the input
#: is checked finite, or finite by construction, before it.  ``zgeev`` and
#: ``zhbevd`` keep LAPACKE's workspace query, against which that scan is small.
_SIGNATURES = {
    # jobvl jobvr n a lda w vl ldvl vr ldvr
    "zgeev": (_C, _C, _I, _P, _I, _P, _P, _I, _P, _I),
    # m n a lda ipiv
    "zgetrf_work": (_I, _I, _P, _I, _P),
    # trans n nrhs a lda ipiv b ldb
    "zgetrs_work": (_C, _I, _I, _P, _I, _P, _P, _I),
    # norm n a lda anorm rcond work rwork
    "zgecon_work": (_C, _I, _P, _I, ctypes.c_double, _P, _P, _P),
    # uplo n a lda
    "zpotrf_work": (_C, _I, _P, _I),
    # jobz uplo n kd ab ldab w z ldz
    "zhbevd": (_C, _C, _I, _I, _P, _I, _P, _P, _I),
    # m n kl ku ab ldab ipiv
    "zgbtrf_work": (_I, _I, _I, _I, _P, _I, _P),
    # trans n kl ku nrhs ab ldab ipiv b ldb
    "zgbtrs_work": (_C, _I, _I, _I, _I, _P, _I, _P, _P, _I),
}


def openblas_libraries() -> tuple:
    """Every OpenBLAS mapped into this process now, as ``ctypes`` libraries.

    Read from ``/proc/self/maps`` at each call, so a library mapped since the
    last call (scipy's, say) is included; empty where there is no ``/proc``
    (not Linux).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:                             # no /proc: not Linux
        return ()
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:                         # e.g. a "(deleted)" mapping
            continue
    return tuple(libraries)


@functools.cache
def routines() -> dict | None:
    """The LAPACKE routines of :data:`_SIGNATURES` from one loaded OpenBLAS, or None.

    Only numpy's ILP64 build exports the ``64_`` names; scipy's LP64 build is
    not looked for.  numpy maps its OpenBLAS on import, so one lookup serves
    the process.
    """
    for lib in openblas_libraries():
        found = {name: getattr(lib, f"scipy_LAPACKE_{name}64_", None) for name in _SIGNATURES}
        if all(fn is not None for fn in found.values()):
            for name, fn in found.items():
                fn.argtypes, fn.restype = [ctypes.c_int, *_SIGNATURES[name]], _I
            return found
    return None


def _call(name: str, *args) -> int:
    """Call LAPACKE ``name`` column-major; returns LAPACK's ``info`` when it is not negative.

    A negative ``info`` (an illegal argument, a NaN that the input scan of
    ``zgeev`` or ``zhbevd`` found, or -1010 when LAPACKE could not allocate
    their workspace) raises ValueError, as scipy does for an illegal argument.
    """
    info = routines()[name](_COL_MAJOR, *args)
    if info < 0:
        raise ValueError(f"LAPACKE_{name} returned info {info}")
    return info


def _scipy_linalg():
    import scipy.linalg  # the fallback route only
    return scipy.linalg


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _factor(lu: np.ndarray, piv: np.ndarray | None = None) -> int:
    """Column count of a factorization made here; refuses any other array before passing it."""
    if (lu.dtype != np.complex128 or lu.ndim != 2 or not lu.flags.f_contiguous
            or piv is not None and (piv.dtype != np.int64 or piv.shape != (lu.shape[1],))):
        raise ValueError("expected a factorization made by this module")
    return lu.shape[1]


def _rhs(b, n: int) -> np.ndarray:
    """A Fortran-ordered complex128 copy of the ``n``-row right-hand side block ``b``."""
    x = np.array(b, dtype=np.complex128, order="F")
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not have {n} rows")
    return x


def eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix: the bits of ``np.linalg.eigvals(M)``, without the GIL.

    A complex128 ``M`` goes to the ``zgeev`` numpy calls (no eigenvectors) on
    the Fortran-ordered copy numpy makes.  Other input takes
    ``np.linalg.eigvals``.  Raises ``LinAlgError`` on an inf or nan entry and
    when the QR algorithm does not converge, as numpy does.
    """
    if routines() is None or M.dtype != np.complex128 or M.ndim != 2 or M.shape[0] != M.shape[1]:
        return np.linalg.eigvals(M)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    a = np.array(M, order="F")
    n = a.shape[0]
    w = np.empty(n, dtype=np.complex128)
    if _call("zgeev", b"N", b"N", n, a.ctypes.data, max(n, 1), w.ctypes.data, None, 1, None, 1):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def lu_factor(a: np.ndarray):
    """Pivoted LU (``zgetrf``) of a square matrix, as ``scipy.linalg.lu_factor``.

    Factors in place when ``a`` is a Fortran-ordered complex128 array.
    Returns ``(lu, piv)`` for :func:`lu_solve` and :func:`rcond`.  Raises
    ValueError on an inf or nan entry; an exactly singular ``a`` leaves a zero
    on the diagonal of ``lu`` (scipy also warns).
    """
    if routines() is None:
        return _scipy_linalg().lu_factor(a, overwrite_a=True)
    _require_finite(a)
    lu = np.asfortranarray(a, dtype=np.complex128)
    n = _square(lu)
    piv = np.empty(n, dtype=np.int64)
    _call("zgetrf_work", n, n, lu.ctypes.data, max(n, 1), piv.ctypes.data)
    return lu, piv


def lu_log_abs_det(lu: np.ndarray) -> float:
    """log|det a| from :func:`lu_factor`'s ``lu``; -inf on a zero pivot.

    ``slogdet``'s own loop, an in-order sum of scalar ``log|u_ii|``, so its bits.
    """
    total = 0.0
    for pivot in np.diagonal(lu).tolist():
        if pivot == 0:
            return float("-inf")
        total += math.log(abs(pivot))
    return total


def lu_solve(lu: np.ndarray, piv: np.ndarray, b) -> np.ndarray:
    """``a^-1 b`` (``zgetrs``) from :func:`lu_factor`'s ``(lu, piv)``; ``b`` (2-D) is kept."""
    if routines() is None:
        return _scipy_linalg().lu_solve((lu, piv), b)
    n = _factor(lu, piv)
    x = _rhs(b, n)
    _call("zgetrs_work", b"N", n, x.shape[1], lu.ctypes.data, max(lu.shape[0], 1),
          piv.ctypes.data, x.ctypes.data, max(n, 1))
    return x


def rcond(lu: np.ndarray, anorm: float) -> float:
    """LAPACK's reciprocal 1-norm condition estimate (``zgecon``) from :func:`lu_factor`'s ``lu``.

    ``anorm`` is the 1-norm of the factored matrix.
    """
    if routines() is None:
        return float(_scipy_linalg().lapack.zgecon(lu, anorm, norm="1")[0])
    n = _factor(lu)
    out, work, rwork = np.zeros(1), np.empty(2 * n, dtype=np.complex128), np.empty(2 * n)
    _call("zgecon_work", b"1", n, lu.ctypes.data, max(lu.shape[0], 1), anorm, out.ctypes.data,
          work.ctypes.data, rwork.ctypes.data)
    return float(out[0])


def cholesky_upper(a: np.ndarray) -> int:
    """``zpotrf`` of the upper triangle of a Fortran-ordered complex128 ``a``, in place.

    Returns LAPACK's ``info``: 0 when the Hermitian matrix is positive
    definite, ``k > 0`` when its leading ``k x k`` minor is not.
    """
    if a.dtype != np.complex128 or not a.flags.f_contiguous:
        raise ValueError("cholesky_upper factors a Fortran-ordered complex128 array in place")
    if routines() is None:
        return int(_scipy_linalg().lapack.zpotrf(a, lower=0, clean=0, overwrite_a=1)[1])
    n = _square(a)
    return _call("zpotrf_work", b"U", n, a.ctypes.data, max(n, 1))


def eigvalsh_banded(band: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (``zhbevd``) of a Hermitian matrix in lower band storage ``band``.

    As ``scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)``:
    ValueError on an inf or nan entry, ``LinAlgError`` when the solver does
    not converge.
    """
    if routines() is None:
        return _scipy_linalg().eig_banded(band, lower=True, eigvals_only=True)
    _require_finite(band)
    ab = np.array(band, dtype=np.complex128, order="F")
    if ab.ndim != 2:
        raise ValueError(f"expected a 2-D band, got shape {ab.shape}")
    kd, n = ab.shape[0] - 1, ab.shape[1]
    w = np.empty(n)
    if _call("zhbevd", b"N", b"L", n, kd, ab.ctypes.data, kd + 1, w.ctypes.data, None, 1):
        raise np.linalg.LinAlgError("eig algorithm did not converge")
    return w


def band_lu(ab: np.ndarray, kl: int, ku: int):
    """Pivoted LU (``zgbtrf``) of a square band matrix in LAPACK's general band storage.

    ``ab`` has ``2 kl + ku + 1`` rows, the first ``kl`` for fill, and is
    factored in place when it is a Fortran-ordered complex128 array.  Returns
    ``(lu, piv)`` for :func:`band_solve`; an exactly zero pivot stays on row
    ``kl + ku`` of ``lu``.
    """
    if routines() is None:
        lu, piv, _ = _scipy_linalg().lapack.zgbtrf(ab, kl, ku, overwrite_ab=True)
        return lu, piv
    lu = np.asfortranarray(ab, dtype=np.complex128)
    if lu.ndim != 2 or lu.shape[0] != 2 * kl + ku + 1:
        raise ValueError(f"band storage of shape {lu.shape} does not have 2 kl + ku + 1 rows")
    n = lu.shape[1]
    piv = np.empty(n, dtype=np.int64)
    _call("zgbtrf_work", n, n, kl, ku, lu.ctypes.data, lu.shape[0], piv.ctypes.data)
    return lu, piv


def band_solve(lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, b) -> np.ndarray:
    """``a^-1 b`` (``zgbtrs``) from :func:`band_lu`'s ``(lu, piv)``; ``b`` (2-D) is kept."""
    if routines() is None:
        return _scipy_linalg().lapack.zgbtrs(lu, kl, ku, b, piv)[0]
    n = _factor(lu, piv)
    x = _rhs(b, n)
    _call("zgbtrs_work", b"N", n, kl, ku, x.shape[1], lu.ctypes.data, lu.shape[0], piv.ctypes.data,
          x.ctypes.data, max(n, 1))
    return x
