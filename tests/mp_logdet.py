"""A 40-digit ``log|det(M - z)|`` and singular-value split in mpmath: the oracles of the
double-precision routes to them.

Tests compare each route (the spectrum's log-sum, the banded and the dense
LU, the Grushin split's count and bulk term) with them at a few probes; an
mpmath determinant takes about a second at dimension 50, and an SVD half a
second at dimension 40, so keep the probes few.
"""

import mpmath
import numpy as np


def _mp_shifted(M, z: complex):
    """``M - z`` as an mpmath matrix of the exact double entries, at the working precision."""
    M = np.asarray(M, dtype=complex)
    shifted = mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in M.tolist()])
    for i in range(len(M)):
        shifted[i, i] -= mpmath.mpc(complex(z).real, complex(z).imag)
    return shifted


def mp_log_abs_det(M, z: complex, dps: int = 40) -> float:
    """``log|det(M - z)|`` for a square ``M``, from an LU at ``dps`` digits of the exact double entries."""
    with mpmath.workdps(dps):
        return float(mpmath.log(abs(mpmath.det(_mp_shifted(M, z)))))


def mp_small_split(M, z: complex, alpha: float, dps: int = 40) -> tuple:
    """``(A, sum_{i >= A} log t_i, min |t_i^2 - alpha| / alpha)`` over the singular values
    ``t_i`` of ``M - z``, ascending, ``A`` the number with ``t_i^2 <= alpha``; an SVD at
    ``dps`` digits."""
    with mpmath.workdps(dps):
        values = mpmath.svd_c(_mp_shifted(M, z), compute_uv=False)
        t = sorted(values[i] for i in range(len(values)))
        A = sum(1 for x in t if x ** 2 <= alpha)
        gap = min(abs(x ** 2 - alpha) for x in t) / alpha
        return A, float(mpmath.fsum(mpmath.log(x) for x in t[A:])), float(gap)
