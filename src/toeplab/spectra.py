"""Disk counting functions of a spectrum and the classical prediction.

The empirical side is the fraction of a (perturbed) quantization matrix's
eigenvalues in each disk of a concentric family (the figure convention); the
caller computes the eigenvalue array (``harness.run`` with
``np.linalg.eigvals``).  The classical side is the push-forward of the
normalized Liouville measure by the principal symbol, integrated over the
same disks on a quadrature grid.  ``match_eigenvalues`` compares two spectra
as multisets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    PhaseSpace,
    QuadratureGrid,
    SymbolSpec,
    evaluate_symbol_grid,
    liouville_quadrature,
)


@dataclass(frozen=True)
class DiskFamily:
    """Concentric disks |z - center| <= r for an ascending radii list."""

    center: complex
    radii: tuple

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.size and (np.any(r < 0.0) or np.any(np.diff(r) < 0.0)):
            raise ValueError("disk radii must be nonnegative and ascending")

    def membership(self, values: np.ndarray) -> np.ndarray:
        d = np.abs(np.asarray(values) - self.center)
        return d[None, :] <= np.asarray(self.radii, dtype=float)[:, None]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def empirical_cdf_disks(lam, center: complex, radii) -> np.ndarray:
    """Fraction of the eigenvalues ``lam`` with |lambda - center| <= r, per radius."""
    family = DiskFamily(complex(center), tuple(float(r) for r in radii))
    return family.membership(lam).mean(axis=1)


def weyl_predict(f: SymbolSpec, space: PhaseSpace, disks: DiskFamily,
                 grid: QuadratureGrid | None = None) -> np.ndarray:
    """Classical fraction mu{f0 in disk} / vol for each disk of a family.

    Integrates the disk indicators on the Liouville ``grid`` (by default the
    space's default-resolution grid).
    """
    grid = grid or liouville_quadrature(space, space.quadrature_default)
    vals = evaluate_symbol_grid(f.principal(), grid.points)
    # cumulative weights over sorted distances: exactly monotone in r
    dist = np.abs(vals - disks.center)
    order = np.argsort(dist)
    cum = np.concatenate([[0.0], np.cumsum(grid.weights[order])])
    idx = np.searchsorted(dist[order], np.asarray(disks.radii, dtype=float), side="right")
    return cum[idx] / space.volume


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


def spectrum_csv_rows(lam):
    yield "re,im"
    for z in lam:
        yield f"{float(z.real)!r},{float(z.imag)!r}"
