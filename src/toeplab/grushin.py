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

``b_diagnostics`` is the fast route to the split.  It takes every ``P - z``
as a band matrix, from :attr:`~toeplab.quantize.ToeplitzMatrix.band`, the
one form the quantization matrix is held in, and in that band's order: the
plain one or the interleaving ``0, n-1, 1, n-2, ...``, whichever band is narrower.
A sphere symbol of degree d gives band d, and a torus symbol of largest
mode m a cyclic band m, which the interleaving turns into a plain band 2m.
The singular values come from a banded Hermitian eigensolve of
``(P - z)*(P - z)``, and the small singular subspaces from shifted inverse
iteration on ``(P - z)*(P - z)`` and ``(P - z)(P - z)*``; there is no
dense SVD.  The Neumann test takes ``||G||`` as a Cholesky-certified upper
bound (:class:`~toeplab.randmat.NormBound`) and computes the exact norm only
when the bound cannot rule the warning out.  The corner block always comes
from the one LU of the bordered matrix; a large condition estimate of that
LU is flagged, not rerouted.  Every LAPACK call of the fast route goes
through :mod:`toeplab._lapack`, numpy's OpenBLAS through ``ctypes``.  Both
slow reference routes return a :class:`GrushinSystem` from the dense
singular triples of :func:`singular_triples`: ``closed_form_inverse``
writes the unperturbed inverse in closed form, ``assemble_grushin`` inverts
the bordered matrix with ``np.linalg.inv``; ``schur_identity_residual``
checks the identity against the latter.  ``G`` is a plain array;
``harness`` checks the identity on the fast route's right-hand side against
the cell's spectrum, and writes both, with the probe and cell labels, to
``diag_*.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .geometry import SymbolSpec
from .potential import log_abs_det
from .quantize import ToeplitzMatrix, quantize_symbol
from .randmat import NormBound

#: ``b_diagnostics`` flags a probe whose bordered-LU condition estimate exceeds
#: this; the corner still comes from that LU.  Worst estimates measured: 434 on
#: the benchmark workloads, 193 on the full-scale sphere figure (N = 2000).  On
#: 118 forced near-singular probes above it, a closed-form corner with a Neumann
#: correction was further from a 60-digit value than the LU corner on 102.
CONDITION_GUARD = 1e12

#: The warning of a vanishing singular value above the cutoff.
SINGULAR_TAIL = "zero-singular-value-above-cutoff"


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


def _banded_grams(T: ToeplitzMatrix, z: complex):
    """Lower band storage of ``B*B`` and ``B B*`` for ``B = 2^-e (T - z)``.

    Returns ``(right, left, perm, e)``: the two Gram bands of ``B`` with rows
    and columns taken in the order of ``T.band`` (``perm`` is its
    interleaving, or None for the plain order), and the exponent ``e`` that
    puts the largest entry of ``B`` in ``[1/2, 1)`` (0 for ``T = z``), so
    that squaring the entries neither overflows nor underflows; a power of
    two scales every value exactly in between.  Every matrix has a band (a
    dense one reaches ``n - 1`` diagonals each way), and the Gram bands keep
    at most ``n - 1`` subdiagonals.
    """
    band, n = T.band, T.dim
    lo, hi, rows, cols = band.lo, band.hi, band.rows, band.cols
    offsets = cols - rows
    # diagonals, column-aligned: diags[lo + k, c] = B[c - k, c], and the same for B*
    diags = np.zeros((lo + hi + 1, n), dtype=complex)
    diags[lo + offsets, cols] = band.values
    diags[lo] -= complex(z)
    adjoint = np.zeros_like(diags)
    adjoint[hi - offsets, rows] = band.values.conj()
    adjoint[hi] -= complex(z).conjugate()
    e = math.frexp(float(np.max(np.abs(diags), initial=0.0)))[1]
    diags, adjoint = (np.ldexp(x.view(float), -e).view(complex) for x in (diags, adjoint))
    return _gram_band(diags, lo, hi), _gram_band(adjoint, hi, lo), band.perm, e


def _gram_band(diags: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Lower band storage ``band[d, c] = (B*B)[c + d, c]`` from the column-aligned diagonals of ``B``.

    ``(B*B)[c + d, c] = sum_k conj(B[c - k, c + d]) B[c - k, c]``, and both
    factors sit in column ``c`` of a shifted slice of ``diags``, so each
    ``d`` is one product of two slices, summed over ``k`` by
    :func:`_sum_rows` (entries outside ``B`` are zeros, which leave each
    sum's bits alone).
    """
    n, count = diags.shape[1], diags.shape[0]
    width = min(lo + hi, n - 1)                 # (B*B)[c + d, c] needs c + d < n
    band = np.zeros((width + 1, n), dtype=complex)
    band[0] = _sum_rows(np.abs(diags) ** 2)
    for d in range(1, width + 1):
        band[d, :n - d] = _sum_rows(diags[d:, d:].conj() * diags[:count - d, :n - d])
    return band


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D ``terms``, each added row after row from zero.

    numpy reduces the rows of a wider array one after another, but sums a
    single column pairwise, so that one takes Python's ``sum``.
    """
    if terms.shape[1] == 1:
        return np.array([sum(terms[:, 0].tolist(), 0j)])
    return np.sum(terms, axis=0, initial=0.0)


def _band_matvec(band: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M X`` for the Hermitian ``M`` in lower band storage ``band``."""
    n = band.shape[1]
    Y = band[0][:, None] * X
    for d in range(1, band.shape[0]):
        Y[d:] += band[d, :n - d, None] * X[:n - d]
        Y[:n - d] += band[d, :n - d, None].conj() * X[d:]
    return Y


def _smallest_eigenvectors(band: np.ndarray, eigenvalues: np.ndarray, A: int):
    """An orthonormal basis ``Q`` of the ``A`` smallest eigenvectors' span, ``M`` banded Hermitian.

    ``eigenvalues`` are ``M``'s computed eigenvalues, ascending.  Shifted
    block inverse iteration: eigenvalues closer than ``1e3 * tol`` (``tol =
    n eps ||M||``, the eigensolver's error scale) form one cluster, and each
    cluster takes one pivoted banded LU of ``M - sigma`` with ``sigma`` ``tol``
    below the cluster (so an exact zero eigenvalue keeps ``M - sigma``
    nonsingular) and two solves from a fixed start block.  One rule makes
    the basis orthonormal: after each solve, each new column is projected
    twice off every earlier one, then normalized, and one that projects to
    ``n eps`` of its norm or less, so lies in their span, gives way to a
    fresh start vector.  No ``|det|`` of the split depends on the basis
    inside the span, so no Rayleigh-Ritz step rotates it.  Returns ``Q`` and
    the worst column norm of ``M Q - Q (Q* M Q)`` over ``||M||``.
    """
    w, n = band.shape[0] - 1, band.shape[1]
    if A == 0:
        return np.empty((n, 0), dtype=complex), 0.0
    norm = max(float(eigenvalues[-1]), np.finfo(float).tiny)           # ||M||
    tol = n * np.finfo(float).eps * norm
    full = np.zeros((3 * w + 1, n), dtype=complex)   # LAPACK general band storage, w fill rows
    full[2 * w:] = band
    for d in range(1, w + 1):
        full[2 * w - d, d:] = band[d, :n - d].conj()
    ends = np.flatnonzero(np.diff(eigenvalues[:A]) > 1e3 * tol) + 1
    rng = np.random.Generator(np.random.Philox(key=0))
    basis = np.empty((n, A), dtype=complex, order="F")
    adjoint = np.empty((A, n), dtype=complex)   # basis.conj().T, row by row: no projection copies it
    for start, stop in zip(np.r_[0, ends], np.r_[ends, A]):
        shifted = np.array(full, order="F")     # band_lu factors it in place
        shifted[2 * w] -= eigenvalues[start] - tol
        lu, piv = _lapack.band_lu(shifted, w, w)
        pivots = lu[2 * w]
        pivots[pivots == 0.0] = tol             # exactly singular: keep iterating
        block = rng.standard_normal((n, stop - start)).astype(complex)
        for _ in range(2):
            for k, column in enumerate(_lapack.band_solve(lu, piv, w, w, block).T, start):
                while True:
                    scale = np.linalg.norm(column)
                    for _ in range(2):
                        column = column - basis[:, :k] @ (adjoint[:k] @ column)
                    if (length := np.linalg.norm(column)) > n * np.finfo(float).eps * scale:
                        break
                    column = rng.standard_normal(n).astype(complex)
                basis[:, k] = column / length
                adjoint[k] = basis[:, k].conj()
            block = basis[:, start:stop]
    image = _band_matvec(band, basis)
    return basis, float(np.max(np.linalg.norm(image - basis @ (adjoint @ image), axis=0))) / norm


def _small_values(T: ToeplitzMatrix, z: complex, rho: float):
    """Singular values of ``T - z`` and the cutoff, from a banded Hermitian eigensolve.

    Returns ``(values, params, grams)``: the ascending singular values,
    :class:`GrushinParams` for ``(T.N, rho)``, and ``(right, left, perm,
    squares)``, the two scaled Gram bands of :func:`_banded_grams` with their
    order and the eigenvalues of the right one, which :func:`_small_subspaces`
    iterates on.  The values come from ``zhbevd`` on the right band, scaled back.
    """
    right_gram, left_gram, perm, e = _banded_grams(T, z)
    squares = _lapack.eigvalsh_banded(right_gram)         # of B*B / 4^e
    values = np.ldexp(np.sqrt(np.clip(squares, 0.0, None)), e)
    return values, _params_of_values(T.N, rho, values), (right_gram, left_gram, perm, squares)


def _small_subspaces(T: ToeplitzMatrix, z: complex, rho: float):
    """Singular values of ``T - z``, the cutoff, and bases of its small singular subspaces.

    Returns ``(values, params, left, right_h, residual)``: the values and
    :class:`GrushinParams` of :func:`_small_values`, the columns
    ``f_1..f_A``, the rows ``e_1*..e_A*`` and the worst residual of
    :func:`_smallest_eigenvectors` over both, which iterates on the scaled
    bands of ``B*B`` and ``B B*`` (``B = T - z``).  The bases span the
    singular subspaces but are not singular vectors, which changes no
    ``|det|`` of the split.
    """
    values, params, (right_gram, left_gram, perm, squares) = _small_values(T, z, rho)
    A = params.n_small
    right, right_residual = _smallest_eigenvectors(right_gram, squares, A)
    left, left_residual = _smallest_eigenvectors(left_gram, squares, A)
    if perm is not None:                        # back from the interleaved order
        order = np.argsort(perm)
        right, left = right[order], left[order]
    return values, params, left, right.conj().T, max(right_residual, left_residual)


@dataclass(frozen=True)
class GrushinSystem:
    """A bordered system: its matrix, its inverse and the inverse's four blocks.

    ``bulk_inverse`` inverts P - z on the complement of the small singular
    directions, ``right_injection``/``left_projection`` are the couplings,
    and ``corner`` is the A x A block, ``-diag(t_1..t_A)`` when unperturbed.
    """

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


def _bordered_matrix(triples: SingularTriples, A: int) -> np.ndarray:
    """The unperturbed bordered matrix, with P - z rebuilt from the triples as ``U diag(t) V*``."""
    dim = triples.dim
    M = np.zeros((dim + A, dim + A), dtype=complex)
    M[:dim, :dim] = (triples.left_vectors * triples.values[None, :]) @ triples.right_vectors.conj().T
    M[:dim, dim:] = triples.left_vectors[:, :A]
    M[dim:, :dim] = triples.right_vectors[:, :A].conj().T
    return M


def closed_form_inverse(triples: SingularTriples, n_small: int) -> GrushinSystem:
    """The unperturbed bordered system, inverted in closed form from the triples.

    The bulk block is ``sum_{i>A} t_i^-1 e_i f_i*``.  A vanishing singular
    value above the cutoff leaves it zero and adds the warning
    ``zero-singular-value-above-cutoff``.
    """
    dim = triples.dim
    A = int(n_small)
    if not (0 <= A <= dim):
        raise ValueError(f"n_small must lie in [0, {dim}]")
    t, e, f = triples.values, triples.right_vectors, triples.left_vectors
    tail = t[A:]
    warnings = (SINGULAR_TAIL,) if np.any(tail == 0.0) else ()
    inverse = np.zeros((dim + A, dim + A), dtype=complex)
    if A < dim and not warnings:
        inverse[:dim, :dim] = (e[:, A:] / tail[None, :]) @ f[:, A:].conj().T
    inverse[:dim, dim:] = e[:, :A]
    inverse[dim:, :dim] = f[:, :A].conj().T
    inverse[dim:, dim:] = -np.diag(t[:A])
    return GrushinSystem(_bordered_matrix(triples, A), inverse, dim, warnings)


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
    """The bordered system from the triples, inverted with ``np.linalg.inv``.

    ``perturbation`` is ``(delta, G)`` with ``G`` a matrix; omit it for the
    unperturbed system.  If the Neumann invertibility
    condition ``delta ||G|| (||bulk|| + ||injection||) < 1`` fails, a warning
    is attached and the inversion is still attempted.  This is the slow
    reference route that ``b_diagnostics`` is tested against.
    """
    dim = triples.dim
    A = params.n_small
    warnings = []

    # P - z comes from the triples, so callers need not carry P around
    M = _bordered_matrix(triples, A)
    if perturbation is not None:
        delta, G = perturbation
        delta = float(delta)
        G = np.asarray(G, dtype=complex)
        if G.shape != (dim, dim):
            raise ValueError(f"perturbation shape {G.shape} does not match dim {dim}")
        if delta != 0.0:
            M[:dim, :dim] += delta * G
            warning = _neumann_warning(delta, NormBound(G), triples.values, A)
            if warning:
                warnings.append(warning)
    return GrushinSystem(M, np.linalg.inv(M), dim, tuple(warnings))


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
    ``subspace_residual`` is the worst column norm of ``M Q - Q (Q* M Q)``
    over ``||M||`` for the two small singular bases ``Q``, ``M = B*B`` or
    ``B B*`` with ``B = P - z``: the same at any scale of ``P``.
    """

    b1: float
    b2: float
    b3: float
    n_small: int
    log_det_bordered: float
    log_det_corner: float
    condition: float
    cutoff_gap: float
    subspace_residual: float
    flags: tuple


def b_diagnostics(T, z: complex, rho: float, delta: float, G: np.ndarray, classical: float,
                  g_norm: NormBound | None = None, bases=None,
                  bordered: np.ndarray | None = None) -> SplitDiagnostics:
    """Compute the three-way split for a quantization matrix at one probe.

    ``T`` must be a ToeplitzMatrix.  ``classical`` is the classical
    potential ``avg log|z - f0|`` at ``z`` (``potential.limit_potential_many``),
    computed by the caller, so a probe does no quadrature.
    The unperturbed bulk term uses ``log|det bordered| = sum_{i>A} log t_i``,
    which is exact for the unperturbed system.  ``g_norm`` is the
    :class:`~toeplab.randmat.NormBound` of ``G``, whose exact norm is
    computed only when its certified bound cannot rule out the Neumann
    warning; callers probing one ``G`` at several ``z`` pass it once,
    otherwise it is built here.

    Dense work per probe: one LU of the bordered matrix, which gives
    ``log|det bordered|``, the corner block (solving against ``[0; I_A]``)
    and LAPACK's 1-norm condition estimate, and one of the ``A x A``
    corner (none when ``A = 0``); ``lu_log_abs_det`` sums each one's
    pivots.  The singular values and the small singular subspaces come
    from :func:`_small_subspaces`, with no dense SVD; ``bases`` is its
    result for ``(T, z, rho)`` when the caller has it already.  The bordered
    matrix is factored where it is built, ``P`` taken from its band and
    its 1-norm summed over column blocks, so a probe holds one ``(dim + A)^2``
    matrix and O(dim A) beside ``G`` and ``T``, which it leaves unchanged.
    ``bordered``, a Fortran-ordered complex128 ``(dim + A)^2`` array, is the
    matrix to build it in instead of a new one.  ``G`` may be its top-left
    block: the Neumann test reads ``G`` first, then ``delta G`` overwrites it
    in place and ``g_norm`` lets go of it (:meth:`~toeplab.randmat.NormBound.release`),
    so the probe holds no second ``(dim + A)^2`` or dim^2 array.
    A condition estimate above ``CONDITION_GUARD`` adds a flag; the corner
    still comes from the LU.  Route one of the Schur check,
    ``log|det(P + delta G - z)|``, is not computed here: a run reads it
    off the cell's spectrum (``harness.run``).
    """
    dim = T.dim
    flags = []

    # columns f_1..f_A, rows e_1*..e_A*
    values, params, left, right_h, subspace_residual = (_small_subspaces(T, z, rho) if bases is None
                                                        else bases)
    A = params.n_small
    cutoff_gap = float(np.min(np.abs(values**2 - params.alpha))) / params.alpha
    if A == dim:
        flags.append("all-singular-values-small")

    tail = values[A:]
    if np.any(tail == 0.0):
        flags.append(SINGULAR_TAIL)
        log_free = float("-inf")
    else:
        log_free = float(np.sum(np.log(tail))) if A < dim else 0.0

    b1 = log_free / dim - classical

    delta = float(delta)
    G = np.asarray(G, dtype=complex)
    if G.shape != (dim, dim):
        raise ValueError(f"perturbation shape {G.shape} does not match dim {dim}")
    if delta != 0.0:
        g_norm = NormBound(G) if g_norm is None else g_norm
        warning = _neumann_warning(delta, g_norm, values, A)
        if warning:
            flags.append(warning)

    if bordered is None:                # Fortran order lets lu_factor factor M in place
        M = np.empty((dim + A, dim + A), dtype=complex, order="F")
    elif (bordered.shape != (dim + A, dim + A) or bordered.dtype != np.complex128
          or not bordered.flags.f_contiguous):
        raise ValueError(f"bordered must be a Fortran-ordered complex128 array of shape "
                         f"{(dim + A, dim + A)}, got {bordered.dtype} {bordered.shape}")
    else:
        M = bordered
        if g_norm is not None and np.may_share_memory(G, M):
            g_norm.release()            # delta G is formed over G
    top = T.add_to(np.multiply(G, delta, out=M[:dim, :dim]))   # P from its band, no dim^2 add
    top[np.diag_indices(dim)] -= complex(z)                     # P + delta G - z
    M[:dim, dim:] = left
    M[dim:, :dim] = right_h
    M[dim:, dim:] = 0.0

    # np.linalg.norm(M, 1)'s bits, without its (dim + A)^2 temporary of |M|
    anorm = max(float(np.abs(M[:, j:j + 64]).sum(axis=0).max()) for j in range(0, dim + A, 64))
    lu, piv = _lapack.lu_factor(M)
    rcond = _lapack.rcond(lu, anorm)
    condition = 1.0 / rcond if rcond > 0.0 else float("inf")
    log_bordered = _lapack.lu_log_abs_det(lu)
    if condition > CONDITION_GUARD:
        flags.append(f"condition estimate {condition:.3g} exceeds {CONDITION_GUARD:.0e}")
    log_corner = 0.0
    if A:
        unit = np.zeros((dim + A, A), dtype=complex)
        unit[dim:, :] = np.eye(A)
        log_corner = log_abs_det(_lapack.lu_solve(lu, piv, unit)[dim:, :])
    b2 = (log_bordered - log_free) / dim
    b3 = log_corner / dim
    if not np.isfinite(b2):
        flags.append("singular-bordered-determinant")
    if A > 0 and not np.isfinite(b3):
        flags.append("singular-corner-determinant")
    return SplitDiagnostics(b1=float(b1), b2=float(b2), b3=float(b3), n_small=A,
                            log_det_bordered=log_bordered, log_det_corner=float(log_corner),
                            condition=float(condition), cutoff_gap=cutoff_gap,
                            subspace_residual=subspace_residual, flags=tuple(flags))


@dataclass(frozen=True)
class CountScan:
    """Small-singular-value counts across matrix sizes with a growth fit."""

    n_values: tuple
    counts: tuple
    fitted_exponent: float | None


def small_eigen_count_scan(f: SymbolSpec, z: complex, rho: float, n_values) -> CountScan:
    """Count singular values with t^2 <= N^(-2 rho) for each N and fit growth.

    The count takes :func:`b_diagnostics`' route to the singular values
    (:func:`_small_values`), so the scan and the split agree on ``A``; it
    computes no small singular subspace.
    """
    counts = [_small_values(quantize_symbol(f, int(N)), z, rho)[1].n_small for N in n_values]
    ns = np.asarray([int(N) for N in n_values], dtype=float)
    cs = np.asarray(counts, dtype=float)
    mask = cs >= 1
    exponent = None
    if mask.sum() >= 2:
        exponent = float(np.polyfit(np.log(ns[mask]), np.log(cs[mask]), 1)[0])
    return CountScan(tuple(int(N) for N in n_values), tuple(counts), exponent)
