"""Disk counting functions of a spectrum and the classical prediction.

The empirical side is the fraction of a (perturbed) quantization matrix's
eigenvalues in each disk ``|z| <= r`` about the origin (the figure
convention); the caller computes the eigenvalue array (``harness.run`` with
``_lapack.hessenberg_eigvals``, which gives ``np.linalg.eigvals``'s bits but,
unlike it, releases the GIL at dimensions up to 500 too).  The classical side is
the push-forward of the normalized Liouville measure by the principal
symbol, integrated over the same disks on a quadrature grid.
``match_eigenvalues`` compares two spectra as multisets.  All return plain
values; ``harness`` writes them to ``eig_*.csv`` and ``cdf_*.csv``.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    QuadratureGrid,
    SymbolSpec,
    evaluate_symbol_grid,
    liouville_quadrature,
)


def empirical_cdf_disks(lam, radii) -> np.ndarray:
    """Fraction of the eigenvalues ``lam`` with |lambda| <= r, per radius."""
    moduli = np.abs(np.asarray(lam))
    return (moduli[None, :] <= np.asarray(radii, dtype=float)[:, None]).mean(axis=1)


def weyl_predict(f: SymbolSpec, radii, grid: QuadratureGrid | None = None) -> np.ndarray:
    """Classical fraction mu{|f0| <= r} / vol for each radius.

    Integrates the disk indicators on the Liouville ``grid`` of the symbol's
    space (by default its default-resolution grid).
    """
    grid = grid or liouville_quadrature(f.space, f.space.quadrature_default)
    vals = evaluate_symbol_grid(f.principal(), grid.points)
    # cumulative weights over sorted moduli: exactly monotone in r
    dist = np.abs(vals)
    order = np.argsort(dist)
    cum = np.concatenate([[0.0], np.cumsum(grid.weights[order])])
    idx = np.searchsorted(dist[order], np.asarray(radii, dtype=float), side="right")
    return cum[idx] / f.space.volume


def match_eigenvalues(a, b) -> float:
    """Greedy nearest-neighbor multiset pairing; returns the largest pair gap."""
    a = np.asarray(a, dtype=complex).copy()
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise ValueError("spectra have different sizes")
    worst = 0.0
    for lam in a:
        dist = np.abs(np.asarray(b) - lam)
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        b.pop(j)
    return worst
