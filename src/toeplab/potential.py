"""Logarithmic potentials of empirical and classical spectral measures.

The empirical potential of a perturbed quantization at a probe ``z`` is
``log|det(T + delta G - z)| / dim``; the classical potential is the
volume-normalized integral of ``log|z - f0|``.  A run's potential stage
evaluates both over the probe grid of every cell (``harness.run``).

Over a probe grid the empirical potential is read off the cell's spectrum,
``sum log|lambda_i - z| / dim``, with :func:`log_abs_det` on a few probes as an
in-run cross-check (see :func:`potential_from_spectrum`).  The classical
potential has one quadrature loop, :func:`limit_potential_many`;
:func:`limit_potential` is that loop at one probe.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .geometry import (
    PhaseSpace,
    QuadratureGrid,
    SymbolSpec,
    evaluate_symbol_grid,
    liouville_quadrature,
)

#: Probes closer than this to an eigenvalue are dropped from a realization.
PROBE_EXCLUSION_RADIUS = 1e-4

#: Largest gap between the eigenvalue and LU routes to the normalized
#: potential that a cell may show on its cross-check probes before every probe
#: of the cell falls back to the LU route.  Measured agreement is <= 4e-15 on
#: perturbed cells and 3.5e-12 on the unperturbed N=50 torus cell; strongly
#: non-normal matrices, whose computed eigenvalues are ill-conditioned, land
#: far above it.
LOGDET_CHECK_BOUND = 1e-9


def log_abs_det(M: np.ndarray, z: complex = 0.0) -> float:
    """log|det(M - z)| from one LU of one copy of M (``slogdet``'s bits); -inf on a zero pivot.

    Raises ValueError on an inf or nan entry, where ``slogdet`` returns nan.
    """
    shifted = np.array(M, dtype=np.complex128, order="F")
    shifted[np.diag_indices(len(shifted))] -= z
    return _lapack.lu_log_abs_det(_lapack.lu_factor(shifted)[0])


def potential_from_spectrum(M: np.ndarray, lam, probes):
    """Normalized ``log|det(M - z)| / dim`` over probes from the spectrum of M.

    Returns ``(values, kept, health)``: ``values[i]`` is the potential at
    ``probes[i]`` (nan where the probe is dropped) and ``kept`` the mask of
    probes at least :data:`PROBE_EXCLUSION_RADIUS` from every eigenvalue.

    The values are ``sum log|lambda_i - z| / dim`` over ``lam = eigvals(M)``.
    :func:`log_abs_det` of ``M - z`` on the first, middle and last kept probe
    checks them; if the two routes differ by more than
    :data:`LOGDET_CHECK_BOUND`, every kept probe is recomputed by that LU
    route, which may give -inf on an exactly singular shift.  ``health``
    records ``probes_dropped``, the worst gap on the checked probes as
    ``logdet_check_residual`` (0 when no probe is kept) and whether the cell
    took the ``logdet_fallback``.
    """
    M = np.asarray(M)
    lam = np.asarray(lam)
    probes = np.asarray(probes, dtype=complex)
    dim = M.shape[0]
    dist = np.abs(probes[:, None] - lam[None, :])
    kept = dist.min(axis=1) >= PROBE_EXCLUSION_RADIUS
    with np.errstate(divide="ignore"):
        values = np.log(dist, out=dist).sum(axis=1) / dim
    values[~kept] = np.nan

    idx = np.flatnonzero(kept)
    checks = np.unique(idx[[0, len(idx) // 2, -1]]) if len(idx) else idx
    residual = max((abs(log_abs_det(M, probes[i]) / dim - values[i]) for i in checks), default=0.0)
    fallback = not residual <= LOGDET_CHECK_BOUND
    if fallback:
        for i in idx:
            values[i] = log_abs_det(M, probes[i]) / dim
    health = {"probes_dropped": len(probes) - len(idx),
              "logdet_check_residual": float(residual), "logdet_fallback": fallback}
    return values, kept, health


def limit_potential(f: SymbolSpec, space: PhaseSpace, z: complex,
                    grid: QuadratureGrid | None = None) -> float:
    """:func:`limit_potential_many` at the single probe ``z``."""
    return float(limit_potential_many(f, space, [z], grid)[0])


def limit_potential_many(f: SymbolSpec, space: PhaseSpace, probes,
                         grid: QuadratureGrid | None = None) -> np.ndarray:
    """Volume-normalized quadrature of log|z - f0| at each probe ``z``.

    Uses ``grid`` (by default the space's default-resolution grid).  A probe
    that lands exactly on a node image is retried on the default resolution
    plus 1, 2 and 3 (node positions shift with resolution) rather than
    returning -inf.  Probes are done one at a time, so the working set is one
    grid-sized array however many probes there are.
    """
    f0 = f.principal()
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


def default_probe_grid(f: SymbolSpec, space: PhaseSpace, nx: int = 41, ny: int = 41) -> np.ndarray:
    """Probe grid on the symbol image's bounding box inflated by 50%."""
    g = liouville_quadrature(space, space.quadrature_default)
    vals = evaluate_symbol_grid(f.principal(), g.points)
    re0, re1 = float(vals.real.min()), float(vals.real.max())
    im0, im1 = float(vals.imag.min()), float(vals.imag.max())
    cre, cim = 0.5 * (re0 + re1), 0.5 * (im0 + im1)
    hre = max(0.75 * (re1 - re0), 0.1)
    him = max(0.75 * (im1 - im0), 0.1)
    xs = np.linspace(cre - hre, cre + hre, nx)
    ys = np.linspace(cim - him, cim + him, ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()
