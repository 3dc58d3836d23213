"""A 40-digit ``log|det(M - z)|`` in mpmath: the oracle of the double-precision routes to it.

Tests compare each route (the spectrum's log-sum, the banded and the dense
LU) with it at a few probes; an mpmath determinant takes about a second at
dimension 50, so keep the probes few.
"""

import mpmath
import numpy as np


def mp_log_abs_det(M, z: complex, dps: int = 40) -> float:
    """``log|det(M - z)|`` for a square ``M``, from an LU at ``dps`` digits of the exact double entries."""
    M = np.asarray(M, dtype=complex)
    with mpmath.workdps(dps):
        shifted = mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in M.tolist()])
        for i in range(len(M)):
            shifted[i, i] -= mpmath.mpc(complex(z).real, complex(z).imag)
        return float(mpmath.log(abs(mpmath.det(shifted))))
