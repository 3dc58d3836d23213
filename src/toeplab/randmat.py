"""Complex Gaussian perturbations, the admissible noise window, tail experiments.

PRNG convention: all randomness flows from the Philox4x64-10 counter-based
generator keyed by a 64-bit seed.  Complex Gaussian entries use the polar
transform ``g = sqrt(-log(1 - u1)) * exp(2 pi i u2)`` on two uniform draws,
giving mean 0 and E|g|^2 = 1 (real and imaginary parts each of variance 1/2).
Derived seeds are SHA-256 hashes of the part list, so experiment cells get
independent, reproducible streams on any platform.  The noise is a plain array.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack

#: Frozen constant for the smallest-singular-value tail bound
#: P(s_min(B + delta G) < delta t) <= C * dim * t^2, checked on bins with at
#: least 5 successes (below that the empirical estimate is Poisson noise).
#: Fitted once from the reference experiment (dim=64, 500 trials, 10 seeds;
#: peak measured ratio 1.9) and frozen with headroom; never ground truth.
TAIL_BOUND_CONSTANT = 4.0


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a list of ints/strings (documented: SHA-256)."""
    blob = ",".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def sample_ginibre(dim: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw a dim x dim matrix of i.i.d. complex Gaussians (entry variance 1), deterministically.

    The matrix is Fortran-ordered, so LAPACK can factor it, or ``T + delta G``
    formed over it, in place.  Its entries are those of
    ``sqrt(-log1p(-u1)) * exp(2j pi u2)`` for two row-major ``dim x dim``
    uniform draws, bit for bit.  ``out``, a ``dim x dim`` complex128 array
    such as the top-left block of a larger Fortran buffer, takes the entries
    in place of a new array, and is returned.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if out is None:
        out = np.empty((dim, dim), dtype=complex, order="F")
    elif out.shape != (dim, dim) or out.dtype != np.complex128:
        raise ValueError(f"out must be a {dim} x {dim} complex128 array, got {out.dtype} {out.shape}")
    # both draws in blocks of rows, each evaluated in place in one buffer and
    # copied into the result once: the same bits, and no dim x dim array
    # beyond the result.  Philox yields one double per 64-bit output and four
    # outputs per counter step, so u2's stream starts dim^2 / 4 steps in.
    radii = np.random.Generator(np.random.Philox(key=int(seed)))
    past_u1 = np.random.Philox(key=int(seed))
    past_u1.advance(dim * dim // 4)
    angles = np.random.Generator(past_u1)
    angles.random(dim * dim % 4)
    radius, scratch = np.empty((32, dim)), np.empty((32, dim), dtype=complex)
    for i0 in range(0, dim, 32):
        r, block = radius[:min(32, dim - i0)], scratch[:min(32, dim - i0)]
        radii.random(out=r)
        np.negative(r, out=r)
        np.log1p(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        np.multiply(2j * np.pi, angles.random(block.shape), out=block)
        np.exp(block, out=block)
        np.multiply(r, block, out=block)
        out[i0:i0 + 32] = block
    return out


# ---------------------------------------------------------------------------
# noise size window
# ---------------------------------------------------------------------------

def noise_window(N: int, epsilon: float, c_exponent: float):
    """Admissible open interval ``(exp(-N^c_exponent), N^(-1/2 - epsilon))`` for delta(N).

    Both phase spaces have complex dimension 1, which fixes the upper edge's
    ``d/2`` at 1/2.
    """
    return float(np.exp(-float(N) ** c_exponent)), float(N) ** (-0.5 - epsilon)


# ---------------------------------------------------------------------------
# norms and tails
# ---------------------------------------------------------------------------

def operator_norm(M: np.ndarray) -> float:
    """Largest singular value (the bits of ``np.linalg.norm(M, 2)``)."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(_lapack.singular_values(M)[0])


#: :func:`certify_norm_bound` factors in this many block rows.  Its factor and
#: the one panel of scratch beside it hold about ``(1/2 + 3 / (2 * 12)) dim^2``
#: entries; 16 block rows hold 0.03 dim^2 less and take 10% more time at dim 1000.
_PANELS = 12


def certify_norm_bound(G: np.ndarray, c: float) -> float | None:
    """Prove ``||G|| < c`` for a square ``G``; the rounding shift used, or None.

    The proof is a Cholesky factorization ``R*R`` of ``c^2 I - G*G``
    shifted down by ``s``, an upper bound on every rounding error of forming
    and factoring it (Rump, "Verification of positive definiteness", BIT 46,
    2006).  With ``u`` the unit roundoff and ``gamma = k u / (1 - k u)`` at
    ``k = 2 dim + 4`` (complex dot products of length dim), ``s`` is twice

        gamma / (1 - gamma) * dim * c^2 (1 + u)  +  4 u c^2  +  (u + gamma) ||G||_F^2:

    the Cholesky backward error over the trace, the rounding of ``c^2`` and
    of the diagonal, and the error of the product ``G*G``, entry by entry.
    The factor 2 covers evaluating ``s`` itself.  Underflow is assumed not to
    occur.  A factorization that fails (or a non-finite ``G``) proves nothing
    and returns None.

    The factorization is left-looking by block rows of ``R``, ``ceil(dim /
    12)`` rows each.  A block row ``R[j0:j1, j0:]`` starts as that block row
    of the shifted ``c^2 I - G*G``, one product of the conjugated columns
    ``j0:j1`` of ``G`` with ``G[:, j0:]``; the products of the earlier block
    rows are subtracted from it, ``zpotrf`` factors its diagonal block and
    ``ztrtrs`` solves for the rest.  Every entry of ``R`` is still one entry
    of the matrix minus a sum of at most dim products, over a diagonal entry
    of ``R``; only the order of that sum differs from ``zpotrf``'s, and the
    backward error bound holds for any order, so ``s`` bounds this one too.
    Only the upper trapezoid of ``R`` is held, about half a dim^2 array, and
    never the matrix ``G*G``.
    """
    G = np.asarray(G, dtype=complex)
    dim = G.shape[0]
    nb = -(-dim // _PANELS)
    u = np.finfo(float).eps / 2.0
    gamma = (2 * dim + 4) * u / (1.0 - (2 * dim + 4) * u)
    squares = np.vecdot(G, G, axis=0).real              # |column|^2, each within gamma
    frobenius = math.fsum(squares) * (1.0 + 3.0 * gamma)
    c2 = float(c) * float(c)
    shift = 2.0 * (gamma / (1.0 - gamma) * dim * c2 * (1.0 + u)
                   + 4.0 * u * c2 + (u + gamma) * frobenius)
    if not (np.isfinite(shift) and shift < c2):
        return None
    scratch = np.empty(nb * dim, dtype=complex)         # a conjugated panel of G, then an update
    rows = []                                           # R[j0:j1, j0:] of each earlier j0
    for j0 in range(0, dim, nb):
        k, width = min(nb, dim - j0), dim - j0
        row = np.empty((k, width), dtype=complex, order="F")
        # numpy's products release the GIL, so the other pool threads run on
        conjugated = np.conjugate(G[:, j0:j0 + k].T, out=scratch[:k * dim].reshape(k, dim))
        np.negative(np.matmul(conjugated, G[:, j0:], out=row), out=row)
        row[np.arange(k), np.arange(k)] = (c2 - shift) - squares[j0:j0 + k]
        update = scratch[:k * width].reshape(k, width, order="F")
        for i0, earlier in zip(range(0, j0, nb), rows):
            block = earlier[:, j0 - i0:]                # R[i0:i1, j0:]
            np.subtract(row, np.matmul(block[:, :k].conj().T, block, out=update), out=row)
        if _lapack.cholesky_upper(row[:, :k]) != 0:
            return None
        _lapack.solve_upper_adjoint(row[:, :k], row[:, k:])
        rows.append(row)
    return shift


class NormBound:
    """``||G||`` for a Neumann test: a certified upper bound, the exact norm on demand.

    ``bound`` is ``c = 2 sqrt(dim) + 3`` when :func:`certify_norm_bound`
    proves it (``route`` ``"cholesky"``), otherwise the exact norm from an
    SVD (``"svd-fallback"``).  The choice of ``c`` comes from Gaussian
    concentration of a Ginibre matrix's norm around ``2 sqrt(dim)``
    (Vershynin, arXiv:1011.3027, Thm 5.32); only the factorization proves it.
    :meth:`exact` computes the SVD norm at most once, and the route then
    reads ``"svd-exact"``.  Whoever overwrites ``G`` calls :meth:`release`
    first; a later :meth:`exact` that would need ``G`` then raises.
    """

    def __init__(self, G: np.ndarray):
        self._G = G
        c = 2.0 * math.sqrt(G.shape[0]) + 3.0
        if certify_norm_bound(G, c) is not None:
            self.bound, self.route, self._exact = c, "cholesky", None
        else:
            self._exact = operator_norm(G)
            self.bound, self.route = self._exact, "svd-fallback"

    def exact(self) -> float:
        if self._exact is None:
            if self._G is None:
                raise RuntimeError("the exact norm of an overwritten G is not known")
            self._exact, self.route = operator_norm(self._G), "svd-exact"
        return self._exact

    def release(self) -> None:
        """Let go of ``G``, which its holder is about to overwrite."""
        self._G = None


@dataclass(frozen=True)
class TailExperiment:
    """Empirical tail of the smallest singular value of B + delta*G."""

    t_grid: np.ndarray
    successes: np.ndarray
    p_hat: np.ndarray


def smin_tail_experiment(B: np.ndarray, delta: float, t_grid, trials: int,
                         seed: int) -> TailExperiment:
    """Estimate P{s_min(B + delta G) < delta t} over a t grid.

    Per-trial seeds derive from ``seed`` by trial index, so results merge
    deterministically regardless of evaluation order.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= 1.0):
        raise ValueError("t_grid must lie in [0, 1)")
    B = np.asarray(B, dtype=complex)
    dim = B.shape[0]
    smin = np.empty(trials)
    for i in range(trials):
        G = sample_ginibre(dim, derive_seed(seed, "tail", i))
        smin[i] = np.linalg.svd(B + delta * G, compute_uv=False)[-1]
    successes = np.array([(smin < delta * t).sum() for t in t_grid])
    return TailExperiment(t_grid, successes, successes / trials)


def fit_tail_slope(result: TailExperiment, min_successes: int = 5):
    """Fitted tail exponent of p_hat vs t (log-log slope in the tail).

    Fits ``log(-log(1 - p))`` against ``log t``, which linearizes the
    quadratic-exponent tail family exactly and so removes the top-of-window
    curvature of a plain ``log p`` fit; for small p the two slopes agree.
    Bins below ``min_successes`` counts are dropped (Poisson noise floor).
    Returns ``(slope, bins_used)``.
    """
    mask = (result.successes >= min_successes) & (result.p_hat < 1.0) & (result.t_grid > 0.0)
    if mask.sum() < 2:
        raise ValueError("not enough populated tail bins to fit a slope")
    hazard = -np.log1p(-result.p_hat[mask])
    slope, _ = np.polyfit(np.log(result.t_grid[mask]), np.log(hazard), 1)
    return float(slope), int(mask.sum())
