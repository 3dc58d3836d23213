"""Disk counting functions of a spectrum and the classical prediction.

The empirical side is the fraction of a (perturbed) quantization matrix's
eigenvalues in each disk ``|z| <= r`` about the origin (the figure
convention); the caller computes the eigenvalue array (``harness.run`` with
``_lapack.eigvals``, which gives ``np.linalg.eigvals``'s bits but, unlike
it, releases the GIL at dimensions up to 500 too).  The classical side is
the push-forward of the normalized Liouville measure by the principal
symbol, integrated over the same disks against the symbol's image on the
run's quadrature grid (``geometry.symbol_image``), the image that also gives
the run's probes and classical potential.
``match_eigenvalues`` compares two spectra as multisets.  All return plain
values; ``harness`` writes them to ``eig_*.csv`` and ``cdf_*.csv``.
"""

from __future__ import annotations

import numpy as np

from .geometry import SymbolImage


def empirical_cdf_disks(lam, radii) -> np.ndarray:
    """Fraction of the eigenvalues ``lam`` with |lambda| <= r, per radius."""
    moduli = np.abs(np.asarray(lam))
    return (moduli[None, :] <= np.asarray(radii, dtype=float)[:, None]).mean(axis=1)


def weyl_predict(image: SymbolImage, radii) -> np.ndarray:
    """Classical fraction mu{|f0| <= r} / vol for each radius, integrated against ``image``."""
    # cumulative weights over sorted moduli: exactly monotone in r
    dist = np.abs(image.values)
    order = np.argsort(dist)
    cum = np.concatenate([[0.0], np.cumsum(image.weights[order])])
    idx = np.searchsorted(dist[order], np.asarray(radii, dtype=float), side="right")
    return cum[idx] / image.symbol.space.volume


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
