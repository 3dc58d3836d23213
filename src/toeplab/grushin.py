"""Augmented (bordered) systems around small singular values of P - z.

Given the singular triples ``(P - z) e_i = t_i f_i`` with ascending ``t_i``,
the directions with ``t_i^2 <= alpha`` (``alpha = N^(-2 rho)``) are coupled
out through a bordered system

    [[P + delta*G - z,  R_minus], [R_plus, 0]]

whose inverse blocks are explicit at ``delta = 0``: the bulk inverse
``sum_{i>A} t_i^-1 e_i f_i*``, the isometric couplings, and the corner block
``-diag(t_1..t_A)``.  The determinant factorizes through the Schur complement,

    log|det(P + delta*G - z)| = log|det(bordered)| + log|det(corner block)|,

which splits the normalized log-determinant into a bulk part (b1), a
perturbation shift (b2) and a small-singular-value part (b3).

``b_diagnostics`` is the fast route to the split.  Every matrix that a run
quantizes is banded: a sphere symbol of degree d gives band d, and a torus
symbol of largest mode m a cyclic band m, which the interleaving
``0, n-1, 1, n-2, ...`` turns into a plain band 2m.  For a banded
``P - z`` the singular values come from a banded Hermitian eigensolve of
``(P - z)*(P - z)``, and the small singular subspaces from shifted inverse
iteration on ``(P - z)*(P - z)`` and ``(P - z)(P - z)*``; only input that
is not banded takes a dense SVD.  The Neumann test takes ``||G||`` as a
Cholesky-certified upper bound (:class:`~toeplab.randmat.NormBound`) and
computes the exact norm only when the bound cannot rule the warning out.
The corner block always comes from the one LU of the bordered matrix; a
large condition estimate of that LU is flagged, not rerouted.  Every
LAPACK call of the fast route (the banded eigensolve, banded LU and solves,
the LUs of both Schur routes, the solve and the condition estimate) goes
through :mod:`toeplab._lapack`, numpy's OpenBLAS through ``ctypes``, which
releases the GIL.
``assemble_grushin`` (the bordered matrix from the dense singular triples
and its explicit ``inv``) is the one slow reference route, and
``schur_identity_residual`` checks the identity by comparing the LU
log-determinant of ``P + delta*G - z`` against it.  ``G`` is a plain array;
``harness`` writes the split's values, with the probe and cell labels, to
``diag_*.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .geometry import PhaseSpace, QuadratureGrid, SymbolSpec
from .potential import limit_potential, log_abs_det
from .quantize import quantize_symbol
from .randmat import NormBound

#: ``b_diagnostics`` flags a probe whose bordered-LU condition estimate exceeds
#: this; the corner still comes from that LU.  Worst estimates measured: 434 on
#: the benchmark workloads, 193 on the full-scale sphere figure (N = 2000).  On
#: 118 forced near-singular probes above it, a closed-form corner with a Neumann
#: correction was further from a 60-digit value than the LU corner on 102.
CONDITION_GUARD = 1e12


@dataclass(frozen=True)
class SingularTriples:
    """Ascending singular values of P - z with paired orthonormal vectors.

    Columns of ``right_vectors`` (e_i) and ``left_vectors`` (f_i) satisfy
    ``(P - z) e_i = t_i f_i`` and ``(P - z)* f_i = t_i e_i``.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


def singular_triples(P: np.ndarray, z: complex) -> SingularTriples:
    shifted = np.array(P, dtype=complex)
    if shifted.ndim != 2 or shifted.shape[0] != shifted.shape[1]:
        raise ValueError("singular_triples requires a square matrix")
    shifted.flat[:: shifted.shape[0] + 1] -= complex(z)
    U, s, Vh = np.linalg.svd(shifted)
    order = np.argsort(s)
    return SingularTriples(
        values=s[order],
        right_vectors=Vh.conj().T[:, order],
        left_vectors=U[:, order],
    )


@dataclass(frozen=True)
class GrushinParams:
    """Cutoff alpha = N^(-2 rho) and the count of singular values below it."""

    rho: float
    alpha: float
    n_small: int


def grushin_params(N: int, rho: float, triples: SingularTriples) -> GrushinParams:
    return _params_of_values(N, rho, triples.values)


def _params_of_values(N: int, rho: float, values: np.ndarray) -> GrushinParams:
    if not (0.0 < rho < 0.5):
        raise ValueError(f"rho must lie in (0, 1/2), got {rho}")
    alpha = float(N) ** (-2.0 * rho)
    n_small = int(np.sum(values**2 <= alpha))
    return GrushinParams(rho=float(rho), alpha=alpha, n_small=n_small)


def _banded_grams(P: np.ndarray, z: complex):
    """Lower band storage of ``B*B`` and ``B B*`` for a banded ``B = P - z``, else None.

    Returns ``(right, left, perm)``: the two Gram bands of ``B`` with rows and
    columns taken in the order ``perm``, which is None for a plain band.  A
    cyclic band of width m (the torus quantizes a trigonometric polynomial
    of largest mode m to one) becomes a plain band of width 2m under the
    interleaving ``0, n-1, 1, n-2, ...``.  Bands wider than ``dim/4`` return
    None: the banded work no longer pays there.
    """
    n = P.shape[0]
    widest = n // 4
    if np.count_nonzero(P) > n * (2 * widest + 1):
        return None
    rows, cols = np.nonzero(P)
    entries = P[rows, cols]
    perm = None
    if np.max(np.abs(cols - rows), initial=0) > widest:
        perm = np.empty(n, dtype=np.intp)
        perm[0::2] = np.arange((n + 1) // 2)
        perm[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
        position = np.empty(n, dtype=np.intp)
        position[perm] = np.arange(n)
        rows, cols = position[rows], position[cols]
        if np.max(np.abs(cols - rows), initial=0) > widest:
            return None
    offsets = cols - rows
    lo, hi = max(0, -int(np.min(offsets, initial=0))), max(0, int(np.max(offsets, initial=0)))
    # diagonals, row-indexed: diags[lo + k, r] = B[r, r + k], and the same for B*
    diags = np.zeros((lo + hi + 1, n), dtype=complex)
    diags[lo + offsets, rows] = entries
    diags[lo] -= complex(z)
    adjoint = np.zeros_like(diags)
    adjoint[hi - offsets, cols] = entries.conj()
    adjoint[hi] -= complex(z).conjugate()
    return _gram_band(diags, lo, hi), _gram_band(adjoint, hi, lo), perm


def _gram_band(diags: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Lower band storage ``band[d, c] = (B*B)[c + d, c]`` from the diagonals of ``B``."""
    n = diags.shape[1]
    band = np.zeros((lo + hi + 1, n), dtype=complex)
    for d in range(lo + hi + 1):
        for k in range(-lo, hi - d + 1):        # B[r, r+k] and B[r, r+k+d] share row r
            r0, r1 = max(0, -k), min(n, n - k)
            column = diags[lo + k, r0:r1]
            if d == 0:
                band[0, r0 + k:r1 + k] += np.abs(column) ** 2
            else:
                band[d, r0 + k:r1 + k] += diags[lo + k + d, r0:r1].conj() * column
    return band


def _band_matvec(band: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M X`` for the Hermitian ``M`` in lower band storage ``band``."""
    n = band.shape[1]
    Y = band[0][:, None] * X
    for d in range(1, band.shape[0]):
        Y[d:] += band[d, :n - d, None] * X[:n - d]
        Y[:n - d] += band[d, :n - d, None].conj() * X[d:]
    return Y


def _smallest_eigenvectors(band: np.ndarray, eigenvalues: np.ndarray, A: int):
    """Orthonormal eigenvectors of the ``A`` smallest eigenvalues of a banded Hermitian ``M``.

    ``eigenvalues`` are ``M``'s computed eigenvalues, ascending.  Shifted
    block inverse iteration: eigenvalues closer than ``1e3 * tol`` (``tol =
    n eps ||M||``, the eigensolver's error scale) form one cluster, and each
    cluster takes one pivoted banded LU of ``M - sigma`` with ``sigma`` ``tol``
    below the cluster (so an exact zero eigenvalue keeps ``M - sigma``
    nonsingular) and two solves from a fixed start block, each followed by
    orthogonalization against the earlier clusters.  One Rayleigh-Ritz step
    closes.  Returns the basis and the worst residual ``||M v - theta v||``.
    """
    w, n = band.shape[0] - 1, band.shape[1]
    if A == 0:
        return np.empty((n, 0), dtype=complex), 0.0
    tol = n * np.finfo(float).eps * max(float(eigenvalues[-1]), np.finfo(float).tiny)
    full = np.zeros((3 * w + 1, n), dtype=complex)   # LAPACK general band storage, w fill rows
    full[2 * w:] = band
    for d in range(1, w + 1):
        full[2 * w - d, d:] = band[d, :n - d].conj()
    ends = np.flatnonzero(np.diff(eigenvalues[:A]) > 1e3 * tol) + 1
    rng = np.random.Generator(np.random.Philox(key=0))
    basis = np.empty((n, A), dtype=complex)
    for start, stop in zip(np.r_[0, ends], np.r_[ends, A]):
        shifted = np.array(full, order="F")     # band_lu factors it in place
        shifted[2 * w] -= eigenvalues[start] - tol
        lu, piv = _lapack.band_lu(shifted, w, w)
        pivots = lu[2 * w]
        pivots[pivots == 0.0] = tol             # exactly singular: keep iterating
        block = rng.standard_normal((n, stop - start)).astype(complex)
        done = basis[:, :start]
        for _ in range(2):
            block = _lapack.band_solve(lu, piv, w, w, block)
            for _ in range(2):
                block -= done @ (done.conj().T @ block)
            block = np.linalg.qr(block)[0]
        basis[:, start:stop] = block
    image = _band_matvec(band, basis)
    theta, rotation = np.linalg.eigh(basis.conj().T @ image)
    basis = basis @ rotation
    return basis, _worst_residual(image @ rotation, basis, theta)


def _worst_residual(image: np.ndarray, basis: np.ndarray, theta: np.ndarray) -> float:
    """``max_i ||image_i - theta_i basis_i||`` over the columns; 0 for no columns."""
    return float(np.max(np.linalg.norm(image - basis * theta, axis=0), initial=0.0))


def _small_subspaces(P: np.ndarray, z: complex, N: int, rho: float):
    """Singular values of ``P - z``, the cutoff, and bases of its small singular subspaces.

    Returns ``(values, params, left, right_h, residual)``: the ascending
    singular values, :class:`GrushinParams` for ``(N, rho)``, the columns
    ``f_1..f_A``, the rows ``e_1*..e_A*`` and the worst residual
    ``||B*B v - lambda v||`` (``B = P - z``) over both bases, with ``B B*``
    for the left one.  A banded ``B`` (see :func:`_banded_grams`) takes the
    values from a banded Hermitian eigensolve of ``B*B`` (LAPACK ``zhbevd``)
    and both bases from shifted inverse iteration on ``B*B`` and ``B B*``;
    any other matrix takes :func:`singular_triples`.  The two banded bases
    span the singular subspaces but are not paired vector by vector, which
    changes no ``|det|`` of the split.
    """
    grams = _banded_grams(P, z)
    if grams is None:
        triples = singular_triples(P, z)
        values = triples.values
        params = _params_of_values(N, rho, values)
        A = params.n_small
        left, right = triples.left_vectors[:, :A], triples.right_vectors[:, :A]
        B = P - complex(z) * np.eye(len(P))
        squares = values[:A] ** 2
        residual = max(_worst_residual(B.conj().T @ (B @ right), right, squares),
                       _worst_residual(B @ (B.conj().T @ left), left, squares))
        return values, params, left, right.conj().T, residual

    right_gram, left_gram, perm = grams
    squares = _lapack.eigvalsh_banded(right_gram)
    values = np.sqrt(np.clip(squares, 0.0, None))
    params = _params_of_values(N, rho, values)
    A = params.n_small
    right, right_residual = _smallest_eigenvectors(right_gram, squares, A)
    left, left_residual = _smallest_eigenvectors(left_gram, squares, A)
    if perm is not None:                        # back from the interleaved order
        order = np.argsort(perm)
        right, left = right[order], left[order]
    return values, params, left, right.conj().T, max(right_residual, left_residual)


@dataclass(frozen=True)
class InverseBlocks:
    """The four inverse blocks of the unperturbed bordered system.

    ``bulk_inverse`` inverts P - z on the complement of the small singular
    directions, ``right_injection``/``left_projection`` are the isometric
    couplings, and ``corner`` is minus the diagonal of small singular values.
    ``singular_tail`` flags a vanishing singular value above the cutoff, in
    which case the bulk block is omitted (zero) and norms are infinite.
    """

    bulk_inverse: np.ndarray
    right_injection: np.ndarray
    left_projection: np.ndarray
    corner: np.ndarray
    singular_tail: bool


def closed_form_inverse(triples: SingularTriples, n_small: int) -> InverseBlocks:
    dim = triples.dim
    A = int(n_small)
    if not (0 <= A <= dim):
        raise ValueError(f"n_small must lie in [0, {dim}]")
    t = triples.values
    e = triples.right_vectors
    f = triples.left_vectors
    tail = t[A:]
    singular_tail = bool(np.any(tail == 0.0))
    if A < dim and not singular_tail:
        bulk = (e[:, A:] / tail[None, :]) @ f[:, A:].conj().T
    else:
        bulk = np.zeros((dim, dim), dtype=complex)
    return InverseBlocks(
        bulk_inverse=bulk,
        right_injection=e[:, :A].copy(),
        left_projection=f[:, :A].conj().T.copy(),
        corner=-np.diag(t[:A]).astype(complex),
        singular_tail=singular_tail,
    )


@dataclass(frozen=True)
class GrushinSystem:
    """An assembled bordered system with its inverse blocks."""

    matrix: np.ndarray
    inverse: np.ndarray
    dim: int
    warnings: tuple

    @property
    def bulk_inverse(self) -> np.ndarray:
        return self.inverse[: self.dim, : self.dim]

    @property
    def right_injection(self) -> np.ndarray:
        return self.inverse[: self.dim, self.dim:]

    @property
    def left_projection(self) -> np.ndarray:
        return self.inverse[self.dim:, : self.dim]

    @property
    def corner(self) -> np.ndarray:
        return self.inverse[self.dim:, self.dim:]


def _bordered_matrix(shifted: np.ndarray, triples: SingularTriples, A: int) -> np.ndarray:
    dim = shifted.shape[0]
    M = np.zeros((dim + A, dim + A), dtype=complex)
    M[:dim, :dim] = shifted
    M[:dim, dim:] = triples.left_vectors[:, :A]
    M[dim:, :dim] = triples.right_vectors[:, :A].conj().T
    return M


def _bulk_norm(values: np.ndarray, A: int) -> float:
    """``||bulk inverse|| = 1/t_{A+1}``: zero without a tail, infinite on a singular tail."""
    if A == len(values):
        return 0.0
    t = values[A]
    return 1.0 / t if t > 0.0 else float("inf")


def _neumann_warning(delta: float, g_norm: NormBound, values: np.ndarray, A: int) -> str | None:
    """Warning text when ``delta ||G|| (||bulk|| + ||injection||) >= 1``, else None.

    ``values`` are the ascending singular values of ``P - z``.  The exact
    ``||G||`` is computed only when ``g_norm``'s certified bound cannot rule
    the warning out, so the warning is the one the exact norm gives.
    """
    reach = _bulk_norm(values, A) + (1.0 if A else 0.0)
    if delta * g_norm.bound * reach < 1.0:
        return None
    neumann = delta * g_norm.exact() * reach
    if neumann >= 1.0:
        return f"Neumann invertibility condition violated ({neumann:.3g} >= 1): inverting anyway"
    return None


def assemble_grushin(triples: SingularTriples, params: GrushinParams,
                     perturbation=None) -> GrushinSystem:
    """Build the bordered matrix and invert it with ``np.linalg.inv``.

    ``perturbation`` is ``(delta, G)`` with ``G`` a matrix; omit it for the
    unperturbed system.  If the Neumann invertibility
    condition ``delta ||G|| (||bulk|| + ||injection||) < 1`` fails, a warning
    is attached and the inversion is still attempted.  This is the slow
    reference route that ``b_diagnostics`` is tested against.
    """
    dim = triples.dim
    A = params.n_small
    warnings = []

    # reconstruct P - z from the triples so callers need not carry P around
    shifted = (triples.left_vectors * triples.values[None, :]) @ triples.right_vectors.conj().T
    if perturbation is not None:
        delta, G = perturbation
        delta = float(delta)
        G = np.asarray(G, dtype=complex)
        if G.shape != (dim, dim):
            raise ValueError(f"perturbation shape {G.shape} does not match dim {dim}")
        if delta != 0.0:
            shifted = shifted + delta * G
            warning = _neumann_warning(delta, NormBound(G), triples.values, A)
            if warning:
                warnings.append(warning)

    M = _bordered_matrix(shifted, triples, A)
    return GrushinSystem(M, np.linalg.inv(M), dim, tuple(warnings))


def _closed_route_inverse(closed: InverseBlocks, delta: float, Gm, dim: int, A: int) -> np.ndarray:
    E0 = np.zeros((dim + A, dim + A), dtype=complex)
    E0[:dim, :dim] = closed.bulk_inverse
    E0[:dim, dim:] = closed.right_injection
    E0[dim:, :dim] = closed.left_projection
    E0[dim:, dim:] = closed.corner
    if delta == 0.0 or Gm is None:
        return E0
    # bordered_perturbed @ E0 = I + K with K supported on the first block row
    K = np.zeros((dim + A, dim + A), dtype=complex)
    K[:dim, :dim] = delta * (Gm @ closed.bulk_inverse)
    K[:dim, dim:] = delta * (Gm @ closed.right_injection)
    return E0 @ np.linalg.inv(np.eye(dim + A) + K)


def schur_identity_residual(P: np.ndarray, z: complex, perturbation=None) -> float:
    """Residual of the determinant factorization, via independent routes.

    Route one is :func:`log_abs_det` of ``P + delta G - z`` built from ``P``; route
    two is ``log|det matrix| + log|det corner|`` of :func:`assemble_grushin`
    with ``rho = 1/4`` and ``N = dim``.  Returns ``nan`` (never an exception)
    when any determinant is singular.
    """
    P = np.asarray(P, dtype=complex)
    dim = P.shape[0]
    shifted = P - complex(z) * np.eye(dim)
    if perturbation is not None:
        delta, G = perturbation
        shifted = shifted + float(delta) * np.asarray(G, dtype=complex)

    triples = singular_triples(P, z)
    try:
        system = assemble_grushin(triples, grushin_params(dim, 0.25, triples), perturbation)
    except np.linalg.LinAlgError:               # exactly singular bordered matrix
        return float("nan")
    direct = log_abs_det(shifted)
    total = log_abs_det(system.matrix) + log_abs_det(system.corner)
    if not (np.isfinite(direct) and np.isfinite(total)):
        return float("nan")
    return abs(direct - total)


@dataclass(frozen=True)
class SplitDiagnostics:
    """Three-way split of the normalized log-determinant deviation.

    ``b1`` compares the unperturbed bulk log-determinant with the classical
    integral, ``b2`` is the perturbation shift of the bordered determinant,
    ``b3`` is the normalized corner log-determinant.  Their sum reassembles
    ``log|det(P + delta G - z)| / dim - avg log|z - f0|`` exactly (Schur).
    ``condition`` is LAPACK's 1-norm condition estimate of the bordered matrix.
    ``cutoff_gap`` is ``min_i |t_i^2 - alpha| / alpha``: how far the nearest
    singular value sits from the cutoff, so how fragile the count ``A`` is.
    ``subspace_residual`` is the worst ``||B*B v - lambda v||`` over the two
    small singular bases (``B B*`` for the left one), ``B = P - z``.
    """

    b1: float
    b2: float
    b3: float
    n_small: int
    log_det_bordered: float
    log_det_corner: float
    schur_residual: float
    condition: float
    cutoff_gap: float
    subspace_residual: float
    flags: tuple


def b_diagnostics(T, z: complex, rho: float, delta: float, G: np.ndarray,
                  grid: QuadratureGrid | None = None,
                  g_norm: NormBound | None = None) -> SplitDiagnostics:
    """Compute the three-way split for a quantization matrix at one probe.

    ``T`` must be a ToeplitzMatrix (the classical side needs its symbol).
    The unperturbed bulk term uses ``log|det bordered| = sum_{i>A} log t_i``,
    which is exact for the unperturbed system.  ``g_norm`` is the
    :class:`~toeplab.randmat.NormBound` of ``G``, whose exact norm is
    computed only when its certified bound cannot rule out the Neumann
    warning; callers probing one ``G`` at several ``z`` pass it once,
    otherwise it is built here.

    Dense work per probe: one LU each of ``P + delta G - z`` (Schur route
    one), of the bordered matrix, which gives ``log|det bordered|``, the
    corner block (solving against ``[0; I_A]``) and LAPACK's 1-norm
    condition estimate, and of the ``A x A`` corner; ``lu_log_abs_det``
    sums each one's pivots.  With ``A = 0`` the bordered matrix is ``P + delta G - z`` itself, so its LU
    serves both routes and the residual is 0 by construction.  The singular
    values and the ``A``-dimensional small singular subspaces come from
    :func:`_small_subspaces`: a banded eigensolve and banded inverse
    iteration when ``P - z`` is banded, plainly or cyclically (no dense
    SVD), otherwise one SVD of which only the values and the ``A`` smallest
    vector pairs are kept.
    ``P + delta G - z`` is built in the bordered matrix's top-left block, so
    concurrent probes stay lean.  A condition estimate above
    ``CONDITION_GUARD`` adds a flag; the corner still comes from the LU.
    ``assemble_grushin`` (the bordered matrix and its explicit ``inv``) is
    the slow reference route for this path.
    """
    entries = T.entries
    space, f = T.space, T.symbol
    dim = entries.shape[0]
    flags = []

    # columns f_1..f_A, rows e_1*..e_A*
    values, params, left, right_h, subspace_residual = _small_subspaces(entries, z, T.N, rho)
    A = params.n_small
    cutoff_gap = float(np.min(np.abs(values**2 - params.alpha))) / params.alpha
    if A == dim:
        flags.append("all-singular-values-small")

    tail = values[A:]
    if np.any(tail == 0.0):
        flags.append("zero-singular-value-above-cutoff")
        log_free = float("-inf")
    else:
        log_free = float(np.sum(np.log(tail))) if A < dim else 0.0

    classical = limit_potential(f, space, z, grid)
    b1 = log_free / dim - classical

    delta = float(delta)
    G = np.asarray(G, dtype=complex)
    if G.shape != (dim, dim):
        raise ValueError(f"perturbation shape {G.shape} does not match dim {dim}")
    if delta != 0.0:
        warning = _neumann_warning(delta, NormBound(G) if g_norm is None else g_norm, values, A)
        if warning:
            flags.append(warning)

    # Fortran order lets lu_factor factor M in place instead of copying it
    M = np.empty((dim + A, dim + A), dtype=complex, order="F")
    shifted = M[:dim, :dim]
    np.multiply(G, delta, out=shifted)
    shifted += entries
    shifted[np.diag_indices(dim)] -= complex(z)
    M[:dim, dim:] = left
    M[dim:, :dim] = right_h
    M[dim:, dim:] = 0.0
    log_direct = log_abs_det(shifted) if A else None    # A = 0: the LU below is route one

    anorm = np.linalg.norm(M, 1)
    lu, piv = _lapack.lu_factor(M)
    rcond = _lapack.rcond(lu, anorm)
    condition = 1.0 / rcond if rcond > 0.0 else float("inf")
    log_bordered = _lapack.lu_log_abs_det(lu)
    if condition > CONDITION_GUARD:
        flags.append(f"condition estimate {condition:.3g} exceeds {CONDITION_GUARD:.0e}")
    if A == 0:
        log_direct, log_corner = log_bordered, 0.0
    else:
        unit = np.zeros((dim + A, A), dtype=complex)
        unit[dim:, :] = np.eye(A)
        log_corner = log_abs_det(_lapack.lu_solve(lu, piv, unit)[dim:, :])
    b2 = (log_bordered - log_free) / dim
    b3 = log_corner / dim
    if not np.isfinite(b2):
        flags.append("singular-bordered-determinant")
    if A > 0 and not np.isfinite(b3):
        flags.append("singular-corner-determinant")

    total = log_bordered + log_corner
    if np.isfinite(log_direct) and np.isfinite(total):
        residual = abs(log_direct - total)
    else:
        residual = float("nan")
    return SplitDiagnostics(
        b1=float(b1), b2=float(b2), b3=float(b3), n_small=A,
        log_det_bordered=log_bordered, log_det_corner=float(log_corner),
        schur_residual=float(residual), condition=float(condition), cutoff_gap=cutoff_gap,
        subspace_residual=subspace_residual, flags=tuple(flags),
    )


@dataclass(frozen=True)
class CountScan:
    """Small-singular-value counts across matrix sizes with a growth fit."""

    n_values: tuple
    counts: tuple
    fitted_exponent: float | None


def small_eigen_count_scan(f: SymbolSpec, space: PhaseSpace, z: complex, rho: float,
                           n_values) -> CountScan:
    """Count singular values with t^2 <= N^(-2 rho) for each N and fit growth.

    The count takes :func:`b_diagnostics`' route to the singular values, so
    the scan and the split agree on ``A``.
    """
    counts = []
    for N in n_values:
        N = int(N)
        _, params, _, _, _ = _small_subspaces(quantize_symbol(f, N).entries, z, N, rho)
        counts.append(params.n_small)
    ns = np.asarray([int(N) for N in n_values], dtype=float)
    cs = np.asarray(counts, dtype=float)
    mask = cs >= 1
    exponent = None
    if mask.sum() >= 2:
        exponent = float(np.polyfit(np.log(ns[mask]), np.log(cs[mask]), 1)[0])
    return CountScan(tuple(int(N) for N in n_values), tuple(counts), exponent)
