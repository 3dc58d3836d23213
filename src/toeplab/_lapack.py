"""LAPACK of numpy's own OpenBLAS through ``ctypes``: the route of a run's dense calls.

Two calls of a run bypass it through numpy's linalg gufuncs, neither in a cell
task: ``lstsq`` in the kappa fit's ``np.polyfit`` and ``eigvalsh`` in the sphere
quadrature's ``leggauss``.

numpy's wheel bundles an ILP64 OpenBLAS (scipy-openblas) that exports
LAPACKE as ``scipy_LAPACKE_<routine>64_``.  :func:`routines` looks those
names up through numpy's linalg extension, ``numpy.linalg._umath_linalg``,
which links that OpenBLAS, so they are bound from the library numpy's
linalg calls and no other.  Each function here calls one of
those routines, column-major with 64-bit integers, on the layout numpy's
``eigvals`` or ``svd`` or the replaced ``scipy.linalg`` call passes, so it
returns that call's bits on the same OpenBLAS build (:func:`lu_log_abs_det`
gives ``slogdet``'s).
``ctypes`` releases the GIL for the whole call, where numpy's linalg gufuncs
below dimension 500 and scipy's f2py wrappers hold it; no scipy is loaded.
That OpenBLAS, with LAPACKE, its thread-count controls and its kernel
name (:data:`_CONTROLS`), is the one supported build: without it every
call here raises :class:`UnsupportedBuildError`.

The cell eigensolve, :func:`eigvals`, is one ``zgeev`` call in the cell
matrix's own buffer, as ``np.linalg.eigvals`` makes it: no second dim^2
array exists while it runs.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
import math

import numpy as np

_COL_MAJOR = 102
_I, _P, _C = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char

#: Argument names and types after LAPACKE's leading ``int matrix_layout``, per routine.
#: A ``_work`` routine skips LAPACKE's NaN scan of its input (a full pass over
#: a dense matrix, about a millisecond per call at dimension 640); the input
#: is checked finite, or finite by construction, before it.  ``zhbevd`` keeps
#: LAPACKE's workspace query, against which that scan is small; ``zgeev_work``
#: takes its query as numpy does, one call before the solve.  Every routine
#: here is called by a function of this module.
_SIGNATURES = {
    "zgeev_work": ("jobvl jobvr n a lda w vl ldvl vr ldvr work lwork rwork",
                   (_C, _C, _I, _P, _I, _P, _P, _I, _P, _I, _P, _I, _P)),
    "zgesdd": ("jobz m n a lda s u ldu vt ldvt", (_C, _I, _I, _P, _I, _P, _P, _I, _P, _I)),
    "zgetrf_work": ("m n a lda ipiv", (_I, _I, _P, _I, _P)),
    "zgetrs_work": ("trans n nrhs a lda ipiv b ldb", (_C, _I, _I, _P, _I, _P, _P, _I)),
    "zgecon_work": ("norm n a lda anorm rcond work rwork", (_C, _I, _P, _I, ctypes.c_double, _P, _P, _P)),
    "zpotrf_work": ("uplo n a lda", (_C, _I, _P, _I)),
    "ztrtrs_work": ("uplo trans diag n nrhs a lda b ldb", (_C, _C, _C, _I, _I, _P, _I, _P, _I)),
    "zhbevd": ("jobz uplo n kd ab ldab w z ldz", (_C, _C, _I, _I, _P, _I, _P, _P, _I)),
    "zgbtrf_work": ("m n kl ku ab ldab ipiv", (_I, _I, _I, _I, _P, _I, _P)),
    "zgbtrs_work": ("trans n kl ku nrhs ab ldab ipiv b ldb", (_C, _I, _I, _I, _I, _P, _I, _P, _P, _I)),
}

#: The positions of each routine's size arguments, which key its calls in :func:`counting`.
_SIZES = {name: [i for i, arg in enumerate(names.split()) if arg in ("m", "n", "nrhs", "kl", "ku", "kd")]
          for name, (names, _) in _SIGNATURES.items()}

#: The other functions that the OpenBLAS of the routines must export, as
#: ``scipy_openblas_<name>64_``: its thread-count controls and the name of
#: the kernel it dispatched to, with their argument and result types.
_CONTROLS = {
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
    "get_corename": ([], ctypes.c_char_p),
}


class UnsupportedBuildError(RuntimeError):
    """numpy's OpenBLAS does not export the LAPACKE routines and controls a run needs."""

    def __init__(self):
        super().__init__("numpy's OpenBLAS LAPACKE is required: this numpy's OpenBLAS exports no "
                         "scipy_LAPACKE_*64_ routines with scipy_openblas_*_num_threads64_ "
                         "and scipy_openblas_get_corename64_ "
                         "(Linux numpy wheels bundling scipy-openblas64 do)")


@functools.cache
def routines() -> dict | None:
    """The LAPACKE routines of :data:`_SIGNATURES` and :data:`_CONTROLS`, or None on an unsupported build.

    ``dlsym`` on numpy's linalg extension also searches the libraries it
    links, so each name is that of the OpenBLAS numpy's linalg calls.
    Looked up at the first call, not at import.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        found = {name: getattr(lib, f"scipy_LAPACKE_{name}64_") for name in _SIGNATURES}
        found.update({name: getattr(lib, f"scipy_openblas_{name}64_") for name in _CONTROLS})
    except (ImportError, AttributeError, OSError):
        return None
    for name, fn in found.items():
        fn.argtypes, fn.restype = (([ctypes.c_int, *_SIGNATURES[name][1]], _I) if name in _SIGNATURES
                                   else _CONTROLS[name])
    return found


def require() -> dict:
    """:func:`routines`, or :class:`UnsupportedBuildError` where this numpy's OpenBLAS lacks them."""
    found = routines()
    if found is None:
        raise UnsupportedBuildError()
    return found


#: The calls of the innermost :func:`counting` of the running context, or None.
_COUNTS = contextvars.ContextVar("toeplab_lapack_counts", default=None)


@contextlib.contextmanager
def counting():
    """Count this context's LAPACK calls in the dict it yields: routine (``zgetrf`` for
    ``zgetrf_work``) -> the call's size arguments in LAPACK's order, joined by commas
    (``"301,301"`` for ``zgetrf``'s ``m, n``) -> calls.  ``zgeev``'s workspace query is a
    call.  A context variable holds it, so a pool task that enters its own ``counting``
    counts its own calls alone; nothing global is patched."""
    token = _COUNTS.set(collections.defaultdict(collections.Counter))
    try:
        yield _COUNTS.get()
    finally:
        _COUNTS.reset(token)


def _call(name: str, *args) -> int:
    """Call LAPACKE ``name`` column-major; returns LAPACK's ``info`` when it is not negative.

    A negative ``info`` (an illegal argument, a NaN that the input scan of
    ``zhbevd`` found, or -1010 when LAPACKE could not allocate its
    workspace) raises ValueError, as scipy does for an illegal argument.
    The call counts in the running :func:`counting`, if any.
    """
    counts = _COUNTS.get()
    if counts is not None:
        counts[name.removesuffix("_work")][",".join(str(args[i]) for i in _SIZES[name])] += 1
    info = require()[name](_COL_MAJOR, *args)
    if info < 0:
        raise ValueError(f"LAPACKE_{name} returned info {info}")
    return info


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


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix, overwriting it: ``np.linalg.eigvals``'s ``zgeev``, without the GIL.

    ``a`` is a Fortran-ordered complex128 array.  ``zgeev`` without vectors
    balances, reduces and iterates in ``a`` itself, after the workspace
    query that numpy makes, so the eigenvalues are ``np.linalg.eigvals``'s
    bits and the call holds ``a``, ``O(n)`` workspace and nothing more.
    Raises ``LinAlgError`` on an inf or nan entry and when the QR algorithm
    does not converge, as numpy does.
    """
    if a.dtype != np.complex128 or not a.flags.f_contiguous:
        raise ValueError("eigvals overwrites a Fortran-ordered complex128 array")
    n = _square(a)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    w, rwork, query = np.empty(n, dtype=np.complex128), np.empty(2 * n), np.zeros(1, dtype=np.complex128)
    args = (b"N", b"N", n, a.ctypes.data, max(n, 1), w.ctypes.data, None, 1, None, 1)
    _call("zgeev_work", *args, query.ctypes.data, -1, rwork.ctypes.data)
    lwork = int(query[0].real)                  # LAPACKE's own reading of the query
    work = np.empty(max(lwork, 1), dtype=np.complex128)
    if _call("zgeev_work", *args, work.ctypes.data, lwork, rwork.ctypes.data):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def singular_values(M: np.ndarray) -> np.ndarray:
    """Descending singular values of a 2-D ``M``, from ``zgesdd`` without the GIL.

    Every input goes to the ``zgesdd`` call that numpy makes for complex
    input (no singular vectors), on a complex128 Fortran-ordered copy, so a
    complex128 ``M`` gets the bits of ``np.linalg.svd(M, compute_uv=False)``
    and a real one the values of its complex copy.  Raises ValueError on an
    inf or nan entry, ``LinAlgError`` when the solver does not converge.
    """
    _require_finite(M)
    a = np.array(M, dtype=np.complex128, order="F")
    m, n = a.shape
    s = np.empty(min(m, n))
    if _call("zgesdd", b"N", m, n, a.ctypes.data, max(m, 1), s.ctypes.data, None, 1, None, 1):
        raise np.linalg.LinAlgError("SVD did not converge")
    return s


def lu_factor(a: np.ndarray):
    """Pivoted LU (``zgetrf``) of a square matrix, as ``scipy.linalg.lu_factor``.

    Factors in place when ``a`` is a Fortran-ordered complex128 array.
    Returns ``(lu, piv)`` for :func:`lu_solve` and :func:`rcond`.  Raises
    ValueError on an inf or nan entry; an exactly singular ``a`` leaves a zero
    on the diagonal of ``lu`` (scipy also warns).
    """
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
    n = _factor(lu, piv)
    x = _rhs(b, n)
    _call("zgetrs_work", b"N", n, x.shape[1], lu.ctypes.data, max(lu.shape[0], 1),
          piv.ctypes.data, x.ctypes.data, max(n, 1))
    return x


def rcond(lu: np.ndarray, anorm: float) -> float:
    """LAPACK's reciprocal 1-norm condition estimate (``zgecon``) from :func:`lu_factor`'s ``lu``.

    ``anorm`` is the 1-norm of the factored matrix.
    """
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
    n = _square(a)
    return _call("zpotrf_work", b"U", n, a.ctypes.data, max(n, 1))


def solve_upper_adjoint(r: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` with ``r^-H b`` (``ztrtrs``), reading only the upper triangle of the square ``r``.

    Both are Fortran-ordered complex128 arrays, ``r`` as :func:`cholesky_upper`
    leaves its factor; ``b`` has ``r``'s row count.  Raises ``LinAlgError``
    on a zero on the diagonal of ``r``.
    """
    if any(x.dtype != np.complex128 or not x.flags.f_contiguous for x in (r, b)):
        raise ValueError("solve_upper_adjoint takes Fortran-ordered complex128 arrays")
    n = _square(r)
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not have {n} rows")
    if _call("ztrtrs_work", b"U", b"C", b"N", n, b.shape[1], r.ctypes.data, max(n, 1), b.ctypes.data,
             max(n, 1)):
        raise np.linalg.LinAlgError("singular triangular factor")


def eigvalsh_banded(band: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (``zhbevd``) of a Hermitian matrix in lower band storage ``band``.

    As ``scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)``:
    ValueError on an inf or nan entry, ``LinAlgError`` when the solver does
    not converge.
    """
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
    lu = np.asfortranarray(ab, dtype=np.complex128)
    if lu.ndim != 2 or lu.shape[0] != 2 * kl + ku + 1:
        raise ValueError(f"band storage of shape {lu.shape} does not have 2 kl + ku + 1 rows")
    n = lu.shape[1]
    piv = np.empty(n, dtype=np.int64)
    _call("zgbtrf_work", n, n, kl, ku, lu.ctypes.data, lu.shape[0], piv.ctypes.data)
    return lu, piv


def band_solve(lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, b) -> np.ndarray:
    """``a^-1 b`` (``zgbtrs``) from :func:`band_lu`'s ``(lu, piv)``; ``b`` (2-D) is kept."""
    n = _factor(lu, piv)
    x = _rhs(b, n)
    _call("zgbtrs_work", b"N", n, kl, ku, x.shape[1], lu.ctypes.data, lu.shape[0], piv.ctypes.data,
          x.ctypes.data, max(n, 1))
    return x
