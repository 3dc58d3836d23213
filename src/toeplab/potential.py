"""Logarithmic potentials of empirical and classical spectral measures.

The empirical potential of a perturbed quantization at a probe ``z`` is
``log|det(T + delta G - z)| / dim``; the classical potential is the
volume-normalized integral of ``log|z - f0|``.  A run's potential stage
evaluates both over the probe grid of every cell (``harness.run``).

Over a probe grid the empirical potential is read off the cell's spectrum,
``sum log|lambda_i - z| / dim``, with a few probes cross-checked by the LU
route: one partial-pivot LU of the balanced Hessenberg form ``H`` that the
cell eigensolve leaves behind (``det(M - z) = det(H - z)``), O(dim^2) per
probe (see :func:`potential_from_spectrum`), which in the same sweep also
gives route one of each Grushin probe's Schur check (``harness.run``): a run
takes no dense LU of ``M - z``.  :func:`log_abs_det` (one dense LU,
``slogdet``'s bits) is the test oracle of the Hessenberg route and gives the
Grushin corner's log-determinant.  The classical potential has one quadrature loop,
:func:`limit_potential_many`, against the symbol's image on the run's grid
(``geometry.symbol_image``); the probe grid spans the box of that same image.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .geometry import SymbolImage, symbol_image

#: Probes closer than this to an eigenvalue are dropped from a realization.
PROBE_EXCLUSION_RADIUS = 1e-4

#: Largest gap between the eigenvalue and Hessenberg-LU routes to the
#: normalized potential that a cell may show on its cross-check probes before
#: every probe of the cell falls back to the Hessenberg-LU route.  Measured
#: agreement is <= 4e-15 on perturbed cells and 1.4e-12 on the unperturbed
#: N=50 torus cell; strongly non-normal matrices, whose computed eigenvalues
#: are ill-conditioned, land far above it.
LOGDET_CHECK_BOUND = 1e-9


def log_abs_det(M: np.ndarray, z: complex = 0.0) -> float:
    """log|det(M - z)| from one LU of one copy of M (``slogdet``'s bits); -inf on a zero pivot.

    Raises ValueError on an inf or nan entry, where ``slogdet`` returns nan.
    """
    shifted = np.array(M, dtype=np.complex128, order="F")
    shifted[np.diag_indices(len(shifted))] -= z
    return _lapack.lu_log_abs_det(_lapack.lu_factor(shifted)[0])


def hessenberg_log_abs_dets(rows, probes) -> np.ndarray:
    """log|det(H - z)| at each probe ``z``; -inf on a zero pivot.

    ``H`` is upper Hessenberg, given by ``rows`` as
    :func:`~toeplab._lapack.hessenberg_eigvals` packs it (row ``i`` from
    column ``max(i - 1, 0)``).  One LU with partial pivoting serves every
    probe at once: at step ``k`` only row ``k + 1`` has an entry in column
    ``k``, so the two candidate rows are the working row and row ``k + 1`` of
    ``H - z``.  The pivot's magnitude joins the sum, the other row less its
    multiple of the pivot row becomes the next working row, and the U rows
    are never stored: O(dim^2) work and O(dim) memory per probe.
    """
    probes = np.asarray(probes, dtype=complex)
    n = len(rows)
    if not len(probes):
        return np.zeros(0)
    work = np.tile(rows[0], (len(probes), 1))              # the working row, from column k
    work[:, 0] -= probes
    total = np.zeros(len(probes))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            below = np.tile(rows[k + 1][1:], (len(probes), 1))   # row k + 1 from column k + 1
            below[:, 0] -= probes
            lead, sub = work[:, 0], rows[k + 1][0]
            swap = abs(sub) > np.abs(lead)
            pivot = np.where(swap, sub, lead)
            multiplier = np.where(pivot == 0, 0, np.where(swap, lead, sub) / pivot)
            total += np.log(np.abs(pivot))
            swap = swap[:, None]
            work = (np.where(swap, work[:, 1:], below)
                    - multiplier[:, None] * np.where(swap, below, work[:, 1:]))
        total += np.log(np.abs(work[:, 0]))
    return total


def potential_from_spectrum(rows, lam, probes, log_det_probes=()):
    """Normalized ``log|det(M - z)| / dim`` over probes from the spectrum of M.

    ``rows`` is the balanced Hessenberg form of ``M`` and ``lam`` its
    eigenvalues, both from :func:`~toeplab._lapack.hessenberg_eigvals`.
    Returns ``(values, kept, health, log_dets)``: ``values[i]`` is the
    potential at ``probes[i]`` (nan where the probe is dropped), ``kept`` the
    mask of probes at least :data:`PROBE_EXCLUSION_RADIUS` from every
    eigenvalue, and ``log_dets[j]`` is ``log|det(M - z)|``, not normalized,
    at ``log_det_probes[j]`` (a run's Grushin probes: route one of their
    Schur checks).

    The values are ``sum log|lambda_i - z| / dim``.
    :func:`hessenberg_log_abs_dets` on the first, middle and last kept probe
    checks them, in the one call that also gives ``log_dets``; each probe of
    that call comes out as it would alone.  If the two routes differ by more
    than :data:`LOGDET_CHECK_BOUND`, every kept probe is recomputed by that LU
    route, which may give -inf on an exactly singular shift.  The check
    shares the balancing and the Hessenberg reduction with the eigenvalues;
    it tests the QR stage and the log-sum, where an ill-conditioned spectrum
    shows.  ``health`` records ``probes_dropped``, the worst gap on the
    checked probes as ``logdet_check_residual`` (0 when no probe is kept)
    and whether the cell took the ``logdet_fallback``.
    """
    lam = np.asarray(lam)
    probes = np.asarray(probes, dtype=complex)
    dim = len(rows)
    dist = np.abs(probes[:, None] - lam[None, :])
    kept = dist.min(axis=1) >= PROBE_EXCLUSION_RADIUS
    with np.errstate(divide="ignore"):
        values = np.log(dist, out=dist).sum(axis=1) / dim
    values[~kept] = np.nan

    idx = np.flatnonzero(kept)
    checks = np.unique(idx[[0, len(idx) // 2, -1]]) if len(idx) else idx
    swept = hessenberg_log_abs_dets(rows, [*probes[checks], *log_det_probes])
    gaps = np.abs(swept[:len(checks)] / dim - values[checks])
    residual = float(np.max(gaps, initial=0.0))
    fallback = not residual <= LOGDET_CHECK_BOUND
    if fallback:
        values[idx] = hessenberg_log_abs_dets(rows, probes[idx]) / dim
    health = {"probes_dropped": len(probes) - len(idx),
              "logdet_check_residual": residual, "logdet_fallback": fallback}
    return values, kept, health, swept[len(checks):]


def limit_potential_many(image: SymbolImage, probes) -> np.ndarray:
    """Volume-normalized quadrature of log|z - f0| against ``image`` at each probe ``z``.

    A probe that lands exactly on a node image is retried on the image's
    resolution plus 1, 2 and 3 (node positions shift with resolution)
    rather than returning -inf; one that hits a node image at every
    refinement gets nan.  Probes are done one at a time, so the working set
    is one grid-sized array however many probes there are.
    """
    images = [image]
    volume = image.symbol.space.volume
    out = np.full(len(probes), np.nan)
    for i, z in enumerate(probes):
        for attempt in range(4):
            if attempt == len(images):
                images.append(symbol_image(image.symbol, image.resolution + attempt))
            dist = np.abs(complex(z) - images[attempt].values)
            if np.all(dist > 0.0):
                out[i] = np.dot(images[attempt].weights, np.log(dist)) / volume
                break
    return out


def default_probe_grid(image: SymbolImage, nx: int, ny: int) -> np.ndarray:
    """Probe grid on the bounding box of ``image``'s values inflated by 50%."""
    vals = image.values
    re0, re1 = float(vals.real.min()), float(vals.real.max())
    im0, im1 = float(vals.imag.min()), float(vals.imag.max())
    cre, cim = 0.5 * (re0 + re1), 0.5 * (im0 + im1)
    hre = max(0.75 * (re1 - re0), 0.1)
    him = max(0.75 * (im1 - im0), 0.1)
    xs = np.linspace(cre - hre, cre + hre, nx)
    ys = np.linspace(cim - him, cim + him, ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()
