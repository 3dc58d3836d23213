"""Numerical laboratory for Berezin-Toeplitz quantization on T^2 and S^2.

Builds quantization matrices for finite symbol expansions, perturbs them with
scaled complex Gaussian noise, and measures spectral distribution, potential
convergence, bordered-system determinant identities, and symbol-calculus
residuals at finite matrix size.

The package itself holds only its submodules and ``__version__``; each name
is imported from its module (``from toeplab.harness import run``).
"""

__version__ = "0.1.0"

from . import calculus, geometry, grushin, harness, potential, quantize, randmat, spectra  # noqa: E402,F401
