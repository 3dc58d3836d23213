"""Logarithmic potentials of empirical and classical spectral measures.

The empirical potential of a perturbed quantization at a probe ``z`` is
``log|det(T + delta G - z)| / dim``; the classical potential is the
volume-normalized integral of ``log|z - f0|``.  A run's potential stage
evaluates both over the probe grid of every cell (``harness.run``).

Over a probe grid the empirical potential is read off the cell's spectrum,
``sum log|lambda_i - z| / dim``, with a few probes cross-checked by the LU
route: one partial-pivot LU of the balanced Hessenberg form ``H`` that the
cell eigensolve leaves behind (``det(M - z) = det(H - z)``), O(dim^2) per
probe (see :func:`potential_from_spectrum`).  The potential stage takes no
dense LU of ``M - z``.  :func:`log_abs_det` (one dense LU, ``slogdet``'s
bits) is the test oracle of the Hessenberg route and serves the Grushin
split, whose route one is a dense LU of ``M - z`` at every probe with
``A >= 1`` (``grushin.b_diagnostics``).  The
classical potential has one quadrature loop, :func:`limit_potential_many`;
:func:`limit_potential` is that loop at one probe.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .geometry import (
    QuadratureGrid,
    SymbolSpec,
    evaluate_symbol_grid,
    liouville_quadrature,
)

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


def potential_from_spectrum(rows, lam, probes):
    """Normalized ``log|det(M - z)| / dim`` over probes from the spectrum of M.

    ``rows`` is the balanced Hessenberg form of ``M`` and ``lam`` its
    eigenvalues, both from :func:`~toeplab._lapack.hessenberg_eigvals`.
    Returns ``(values, kept, health)``: ``values[i]`` is the potential at
    ``probes[i]`` (nan where the probe is dropped) and ``kept`` the mask of
    probes at least :data:`PROBE_EXCLUSION_RADIUS` from every eigenvalue.

    The values are ``sum log|lambda_i - z| / dim``.
    :func:`hessenberg_log_abs_dets` on the first, middle and last kept probe
    checks them; if the two routes differ by more than
    :data:`LOGDET_CHECK_BOUND`, every kept probe is recomputed by that LU
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
    gaps = np.abs(hessenberg_log_abs_dets(rows, probes[checks]) / dim - values[checks])
    residual = float(np.max(gaps, initial=0.0))
    fallback = not residual <= LOGDET_CHECK_BOUND
    if fallback:
        values[idx] = hessenberg_log_abs_dets(rows, probes[idx]) / dim
    health = {"probes_dropped": len(probes) - len(idx),
              "logdet_check_residual": residual, "logdet_fallback": fallback}
    return values, kept, health


def limit_potential(f: SymbolSpec, z: complex, grid: QuadratureGrid | None = None) -> float:
    """:func:`limit_potential_many` at the single probe ``z``."""
    return float(limit_potential_many(f, [z], grid)[0])


def limit_potential_many(f: SymbolSpec, probes, grid: QuadratureGrid | None = None) -> np.ndarray:
    """Volume-normalized quadrature of log|z - f0| at each probe ``z``.

    Uses ``grid`` on the symbol's space (by default its default-resolution
    grid).  A probe that lands exactly on a node image is retried on the
    default resolution plus 1, 2 and 3 (node positions shift with
    resolution) rather than returning -inf.  Probes are done one at a time, so the working set is one
    grid-sized array however many probes there are.
    """
    f0, space = f.principal(), f.space
    grids = [grid or liouville_quadrature(space, space.quadrature_default)]
    images = [evaluate_symbol_grid(f0, grids[0].points)]
    out = np.empty(len(probes))
    for i, z in enumerate(probes):
        for attempt in range(4):
            if attempt == len(grids):
                grids.append(liouville_quadrature(space, space.quadrature_default + attempt))
                images.append(evaluate_symbol_grid(f0, grids[attempt].points))
            dist = np.abs(complex(z) - images[attempt])
            if np.all(dist > 0.0):
                out[i] = np.dot(grids[attempt].weights, np.log(dist)) / space.volume
                break
        else:
            raise ValueError(f"probe z={z} hits quadrature node images at every refinement")
    return out


def default_probe_grid(f: SymbolSpec, nx: int, ny: int) -> np.ndarray:
    """Probe grid on the symbol image's bounding box inflated by 50%."""
    g = liouville_quadrature(f.space, f.space.quadrature_default)
    vals = evaluate_symbol_grid(f.principal(), g.points)
    re0, re1 = float(vals.real.min()), float(vals.real.max())
    im0, im1 = float(vals.imag.min()), float(vals.imag.max())
    cre, cim = 0.5 * (re0 + re1), 0.5 * (im0 + im1)
    hre = max(0.75 * (re1 - re0), 0.1)
    him = max(0.75 * (im1 - im0), 0.1)
    xs = np.linspace(cre - hre, cre + hre, nx)
    ys = np.linspace(cim - him, cim + him, ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()
