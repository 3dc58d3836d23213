"""Logarithmic potentials of empirical and classical spectral measures.

The empirical potential of a perturbed quantization at a probe ``z`` is
``log|det(T + delta G - z)| / dim``; the classical potential is the
volume-normalized integral of ``log|z - f0|``.  A run's potential stage
evaluates both over the probe grid of every cell (``harness.run``).

Over a probe grid the empirical potential is read off the cell's spectrum,
``sum log|lambda_i - z| / dim``, with ``slogdet`` on a few probes as an
in-run cross-check (see :func:`potential_from_spectrum`).
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    PhaseSpace,
    QuadratureGrid,
    SymbolSpec,
    evaluate_symbol_grid,
    liouville_quadrature,
)

#: Probes closer than this to an eigenvalue are dropped from a realization.
PROBE_EXCLUSION_RADIUS = 1e-4

#: Largest gap between the eigenvalue and ``slogdet`` routes to the normalized
#: potential that a cell may show on its cross-check probes before every probe
#: of the cell falls back to ``slogdet``.  Measured agreement is <= 4e-15 on
#: perturbed cells and 3.5e-12 on the unperturbed N=50 torus cell; strongly
#: non-normal matrices, whose computed eigenvalues are ill-conditioned, land
#: far above it.
LOGDET_CHECK_BOUND = 1e-9


def log_abs_det(M: np.ndarray) -> float:
    """log|det M| from a pivoted factorization; -inf when a pivot vanishes."""
    M = np.asarray(M)
    sign, value = np.linalg.slogdet(M)
    if sign == 0:
        return float("-inf")
    return float(value)


def potential_from_spectrum(M: np.ndarray, lam, probes):
    """Normalized ``log|det(M - z)| / dim`` over probes from the spectrum of M.

    Returns ``(values, kept, health)``: ``values[i]`` is the potential at
    ``probes[i]`` (nan where the probe is dropped) and ``kept`` the mask of
    probes at least :data:`PROBE_EXCLUSION_RADIUS` from every eigenvalue.

    The values are ``sum log|lambda_i - z| / dim`` over ``lam = eigvals(M)``.
    ``slogdet(M - z)`` on the first, middle and last kept probe checks them;
    if the two routes differ by more than :data:`LOGDET_CHECK_BOUND`,
    every kept probe is recomputed with ``slogdet``, which may give -inf on
    an exactly singular shift.  ``health`` records ``probes_dropped``, the
    worst gap on the checked probes as ``logdet_check_residual`` (0 when no
    probe is kept) and whether the cell took the ``logdet_fallback``.
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

    def via_slogdet(i):
        shifted = M.copy()
        shifted.flat[::dim + 1] -= probes[i]
        return log_abs_det(shifted) / dim

    idx = np.flatnonzero(kept)
    checks = np.unique(idx[[0, len(idx) // 2, -1]]) if len(idx) else idx
    residual = max((abs(via_slogdet(i) - values[i]) for i in checks), default=0.0)
    fallback = not residual <= LOGDET_CHECK_BOUND
    if fallback:
        for i in idx:
            values[i] = via_slogdet(i)
    health = {"probes_dropped": len(probes) - len(idx),
              "logdet_check_residual": float(residual), "logdet_fallback": fallback}
    return values, kept, health


def limit_potential(f: SymbolSpec, space: PhaseSpace, z: complex,
                    grid: QuadratureGrid | None = None) -> float:
    """Volume-normalized quadrature of log|z - f0|.

    If the probe lands exactly on a node image the grid is refined (node
    positions shift with resolution) rather than returning -inf.
    """
    resolution = space.quadrature_default
    for attempt in range(4):
        g = grid if (grid is not None and attempt == 0) else liouville_quadrature(space, resolution + attempt)
        dist = np.abs(complex(z) - evaluate_symbol_grid(f.principal(), g.points))
        if np.all(dist > 0.0):
            return float(np.dot(g.weights, np.log(dist)) / space.volume)
    raise ValueError(f"probe z={z} hits quadrature node images at every refinement")


def limit_potential_many(f: SymbolSpec, space: PhaseSpace, probes,
                         grid: QuadratureGrid | None = None) -> np.ndarray:
    """Vectorized :func:`limit_potential` over a probe list."""
    g = grid or liouville_quadrature(space, space.quadrature_default)
    vals = evaluate_symbol_grid(f.principal(), g.points)
    out = np.empty(len(probes))
    for i, z in enumerate(probes):
        dist = np.abs(complex(z) - vals)
        if np.any(dist == 0.0):
            out[i] = limit_potential(f, space, z)  # refine path
        else:
            out[i] = np.dot(g.weights, np.log(dist)) / space.volume
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
