"""Disk counting functions of a spectrum and the classical prediction.

The empirical side is the fraction of a (perturbed) quantization matrix's
eigenvalues in each disk ``|z| <= r`` about the origin (the figure
convention); the caller computes the eigenvalue array (``harness.run`` with
``_lapack.eigvals``, which gives ``np.linalg.eigvals``'s bits but, unlike
it, releases the GIL at dimensions up to 500 too).  The classical side is
the push-forward of the normalized Liouville measure by the principal
symbol, integrated over the same disks against the symbol's image on the
run's quadrature grid (``geometry.symbol_image``), the image that also gives
the run's probes and classical potential.  Both return plain values;
``harness`` writes them to ``eig_*.csv`` and ``cdf_*.csv``.
"""

from __future__ import annotations

import numpy as np

from .geometry import BLOCK_NODES, SymbolImage


def empirical_cdf_disks(lam, radii) -> np.ndarray:
    """Fraction of the eigenvalues ``lam`` with |lambda| <= r, per radius."""
    moduli = np.abs(np.asarray(lam))
    return (moduli[None, :] <= np.asarray(radii, dtype=float)[:, None]).mean(axis=1)


def weyl_predict(image: SymbolImage, radii) -> np.ndarray:
    """Classical fraction mu{|f0| <= r} / vol for each radius, integrated against ``image``.

    The weights are summed in the order of the sorted moduli, so the result is exactly monotone
    in r.  That sum is formed a block of :data:`~toeplab.geometry.BLOCK_NODES` nodes at a time,
    each block's first weight carrying the total so far (one ``np.cumsum``'s bits), and only
    its values at the radii are kept.
    """
    moduli = np.abs(image.values)
    order = np.argsort(moduli)
    moduli.sort()                               # moduli[order], in place
    idx = np.searchsorted(moduli, np.asarray(radii, dtype=float), side="right")
    cum = np.zeros(len(idx))                    # the weight of the idx smallest moduli
    total = 0.0
    for start in range(0, len(order), BLOCK_NODES):
        block = image.weights[order[start:start + BLOCK_NODES]]
        block[0] += total
        np.cumsum(block, out=block)
        inside = (idx > start) & (idx <= start + len(block))
        cum[inside] = block[idx[inside] - start - 1]
        total = block[-1]
    return cum / image.symbol.space.volume
