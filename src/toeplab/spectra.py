"""Non-Hermitian spectra, disk counting functions, and the classical prediction.

The empirical side is the fraction of a (perturbed) quantization matrix's
eigenvalues in each disk of a concentric family (the figure convention); the
classical side is the push-forward of the normalized Liouville measure by the
principal symbol, integrated over the same disks on a quadrature grid.
``match_eigenvalues`` compares two spectra as multisets.
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
class SpectrumResult:
    """Full eigenvalue multiset of a matrix, with provenance."""

    eigenvalues: np.ndarray
    source: str


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


@dataclass(frozen=True)
class WeylPrediction:
    """Classical fraction mu{f0 in disk} / vol per disk of a family."""

    regions: DiskFamily
    fractions: np.ndarray


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eigenvalues(M: np.ndarray, source: str = "") -> SpectrumResult:
    """Full spectrum via a dense eigendecomposition.

    Hermitian inputs take the symmetric path.  LAPACK non-convergence is
    re-raised with the matrix id attached.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigenvalues requires a square matrix")
    if not np.all(np.isfinite(M.real)) or (np.iscomplexobj(M) and not np.all(np.isfinite(M.imag))):
        raise ValueError(f"matrix {source or '<unnamed>'} has non-finite entries")
    try:
        if np.allclose(M, np.asarray(M).conj().T, atol=1e-14, rtol=0.0):
            vals = np.linalg.eigvalsh(M).astype(complex)
        else:
            vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for matrix {source or '<unnamed>'}: {exc}") from exc
    return SpectrumResult(eigenvalues=vals, source=source)


def empirical_cdf_disks(spec: SpectrumResult, center: complex, radii) -> np.ndarray:
    """Fraction of eigenvalues with |lambda - center| <= r, per radius."""
    family = DiskFamily(complex(center), tuple(float(r) for r in radii))
    return family.membership(spec.eigenvalues).mean(axis=1)


def weyl_predict(f: SymbolSpec, space: PhaseSpace, disks: DiskFamily,
                 grid: QuadratureGrid | None = None) -> WeylPrediction:
    """Classical counting prediction for the principal symbol on a disk family.

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
    return WeylPrediction(disks, cum[idx] / space.volume)


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


def spectrum_csv_rows(spec: SpectrumResult):
    yield "re,im"
    for lam in spec.eigenvalues:
        yield f"{float(lam.real)!r},{float(lam.imag)!r}"
