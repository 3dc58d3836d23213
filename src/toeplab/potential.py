"""Logarithmic potentials of empirical and classical spectral measures.

The empirical potential of a perturbed quantization at a probe ``z`` is
``log|det(T + delta G - z)| / dim``; the classical potential is the
volume-normalized integral of ``log|z - f0|``.  A run's potential stage
evaluates both over the probe grid of every cell (``harness.run``).

Over a probe grid the empirical potential is read off the cell's spectrum
by :func:`log_abs_sums`, which also gives route one of each Grushin probe's
Schur check (``harness.run``); a run takes no dense LU of ``M - z``.  The
spectrum's log-sum is checked by routes that share no reduction with the
eigensolve: in an unperturbed cell, where ``M = T`` is banded, by one
pivoted banded LU of ``T - z`` at every probe (:func:`band_log_abs_dets`,
see :func:`potential_from_spectrum`); in a perturbed cell by the Schur
check at each Grushin probe.  :func:`log_abs_det` (one dense LU,
``slogdet``'s bits) is the test oracle of these routes and gives the Grushin
corner's log-determinant.  The classical potential has one quadrature loop,
:func:`limit_potential_many`, against the symbol's image on the run's grid
(``geometry.symbol_image``); the probe grid spans the box of that same
image.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .geometry import SymbolImage, symbol_image

#: Probes closer than this to an eigenvalue are dropped from a realization.
PROBE_EXCLUSION_RADIUS = 1e-4


def log_abs_det(M: np.ndarray, z: complex = 0.0) -> float:
    """log|det(M - z)| from one LU of one copy of M (``slogdet``'s bits); -inf on a zero pivot.

    Raises ValueError on an inf or nan entry, where ``slogdet`` returns nan.
    """
    shifted = np.array(M, dtype=np.complex128, order="F")
    shifted[np.diag_indices(len(shifted))] -= z
    return _lapack.lu_log_abs_det(_lapack.lu_factor(shifted)[0])


def band_log_abs_dets(T, probes) -> np.ndarray:
    """log|det(T - z)| at each probe ``z`` for a quantization matrix ``T``; -inf on a zero pivot.

    One pivoted banded LU (``zgbtrf``) of ``T - z`` per probe, in the order
    of ``T.band`` (an interleaving permutes rows and columns alike, which
    keeps the determinant): O(dim (lo + hi)^2) per probe, no dense matrix.
    """
    band, dim = T.band, T.dim
    kl, ku = band.lo, band.hi
    ab = np.zeros((2 * kl + ku + 1, dim), dtype=complex, order="F")   # LAPACK general band storage
    ab[kl + ku + band.rows - band.cols, band.cols] = band.values
    out = np.empty(len(probes))
    for i, z in enumerate(probes):
        shifted = ab.copy(order="F")            # band_lu factors it in place
        shifted[kl + ku] -= z
        pivots = _lapack.band_lu(shifted, kl, ku)[0][kl + ku]
        with np.errstate(divide="ignore"):
            out[i] = np.log(np.abs(pivots)).sum()
    return out


def log_abs_sums(lam, points) -> np.ndarray:
    """``log|det(M - z)| = sum_i log|lambda_i - z|`` at each point ``z``, ``lam`` the spectrum of ``M``;
    -inf at an eigenvalue.  One row sum per point: a point's bits do not depend on the other points."""
    dist = np.abs(np.subtract.outer(np.asarray(points, dtype=complex), lam))
    with np.errstate(divide="ignore"):
        return np.log(dist, out=dist).sum(axis=1)


def potential_from_spectrum(lam, probes, T=None):
    """Normalized ``log|det(M - z)| / dim`` over probes from the eigenvalues ``lam`` of M.

    Returns ``(values, kept, health)``: ``values[i]`` is :func:`log_abs_sums`
    over ``dim`` at ``probes[i]`` (nan where the probe is dropped), and
    ``kept`` the mask of probes at least :data:`PROBE_EXCLUSION_RADIUS` from
    every eigenvalue.  ``health`` records ``probes_dropped``.

    ``T`` is given when ``M`` is the quantization matrix ``T`` itself (an
    unperturbed cell): :func:`band_log_abs_dets` then checks every kept
    probe, by a route that shares nothing with the eigensolve, and
    ``health`` records the worst gap per dim as ``logdet_check_residual``
    (0 when no probe is kept).  The values stay the log-sums either way.
    """
    probes = np.asarray(probes, dtype=complex)
    dim = len(lam)
    kept = np.abs(np.subtract.outer(probes, lam)).min(axis=1) >= PROBE_EXCLUSION_RADIUS
    values = log_abs_sums(lam, probes) / dim
    values[~kept] = np.nan
    health = {"probes_dropped": int(np.count_nonzero(~kept))}
    if T is not None:
        gaps = np.abs(band_log_abs_dets(T, probes[kept]) / dim - values[kept])
        health["logdet_check_residual"] = float(np.max(gaps, initial=0.0))
    return values, kept, health


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
