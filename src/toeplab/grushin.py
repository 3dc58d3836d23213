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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhaseSpace, QuadratureGrid, SymbolSpec
from .potential import limit_potential, log_abs_det
from .quantize import quantize_symbol
from .randmat import operator_norm

#: Direct inversion of the bordered matrix is rejected above this condition
#: estimate; the closed-form route with a Neumann correction is used instead.
#: The branch is kept as recovery from an ill-conditioned bordered LU, not as
#: a path real runs take: the worst LAPACK 1-norm estimate measured is 434
#: on the benchmark workloads and 193 on the full-scale sphere figure (N =
#: 2000).  ``TestFastRouteOracle`` forces it by lowering the guard.
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
    z: complex
    source: str = ""

    @property
    def dim(self) -> int:
        return len(self.values)


def _shifted_svd(P: np.ndarray, z: complex, source: str):
    """Full SVD ``U, s, Vh`` of ``P - z`` and the ascending order of ``s``."""
    shifted = np.array(P, dtype=complex)
    if shifted.ndim != 2 or shifted.shape[0] != shifted.shape[1]:
        raise ValueError("singular_triples requires a square matrix")
    shifted.flat[:: shifted.shape[0] + 1] -= complex(z)
    try:
        U, s, Vh = np.linalg.svd(shifted)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular value decomposition failed for {source or '<unnamed>'}: {exc}") from exc
    return U, s, Vh, np.argsort(s)


def singular_triples(P: np.ndarray, z: complex, source: str = "") -> SingularTriples:
    U, s, Vh, order = _shifted_svd(P, z, source)
    return SingularTriples(
        values=s[order],
        right_vectors=Vh.conj().T[:, order],
        left_vectors=U[:, order],
        z=complex(z),
        source=source,
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
    n_small: int
    delta: float
    condition: float
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


def _neumann_warning(shift_norm: float, values: np.ndarray, A: int) -> str | None:
    """Warning text when ``delta ||G|| (||bulk|| + ||injection||) >= 1``, else None.

    ``values`` are the ascending singular values of ``P - z``.
    """
    neumann = shift_norm * (_bulk_norm(values, A) + (1.0 if A else 0.0))
    if neumann >= 1.0:
        return f"Neumann invertibility condition violated ({neumann:.3g} >= 1); inverting anyway"
    return None


def assemble_grushin(triples: SingularTriples, params: GrushinParams,
                     perturbation=None) -> GrushinSystem:
    """Build the bordered matrix and invert it.

    ``perturbation`` is ``(delta, G)`` with ``G`` a matrix or a Ginibre
    sample; omit it for the unperturbed system.  If the Neumann invertibility
    condition ``delta ||G|| (||bulk|| + ||injection||) < 1`` fails, a warning
    is attached and the inversion is still attempted.  Direct inversion falls
    back to the closed form (with a Neumann correction when perturbed) above
    the condition guard.
    """
    dim = triples.dim
    A = params.n_small
    warnings = []

    delta = 0.0
    Gm = None
    if perturbation is not None:
        delta, G = perturbation
        delta = float(delta)
        Gm = G.entries if hasattr(G, "entries") else np.asarray(G, dtype=complex)
        if Gm.shape != (dim, dim):
            raise ValueError(f"perturbation shape {Gm.shape} does not match dim {dim}")

    # reconstruct P - z from the triples so callers need not carry P around
    shifted = (triples.left_vectors * triples.values[None, :]) @ triples.right_vectors.conj().T
    if Gm is not None and delta != 0.0:
        shifted = shifted + delta * Gm

    closed = closed_form_inverse(triples, A)
    if delta != 0.0 and Gm is not None:
        warning = _neumann_warning(delta * operator_norm(Gm), triples.values, A)
        if warning:
            warnings.append(warning)

    M = _bordered_matrix(shifted, triples, A)
    condition = float(np.linalg.cond(M)) if M.size else 1.0
    if condition <= CONDITION_GUARD:
        inverse = np.linalg.inv(M) if M.size else M.copy()
    else:
        warnings.append(
            f"condition estimate {condition:.3g} exceeds guard; using closed-form route")
        inverse = _closed_route_inverse(closed, delta, Gm, dim, A)
    return GrushinSystem(M, inverse, dim, A, delta, condition, tuple(warnings))


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


def schur_identity_residual(P: np.ndarray, z: complex, perturbation=None,
                            params: GrushinParams | None = None,
                            rho: float = 0.25, N: int | None = None) -> float:
    """Residual of the determinant factorization, via independent routes.

    Route one factors ``P + delta G - z`` directly; route two factors the
    bordered matrix and its corner inverse block.  Returns ``nan`` (never an
    exception) when any determinant is singular.
    """
    P = np.asarray(P, dtype=complex)
    triples = singular_triples(P, z)
    if params is None:
        params = grushin_params(N if N is not None else P.shape[0], rho, triples)
    A = params.n_small
    dim = triples.dim

    delta, Gm = 0.0, None
    if perturbation is not None:
        delta, G = perturbation
        Gm = G.entries if hasattr(G, "entries") else np.asarray(G, dtype=complex)
    shifted = P - complex(z) * np.eye(dim)
    if Gm is not None and delta != 0.0:
        shifted = shifted + float(delta) * Gm

    direct = log_abs_det(shifted)
    if A == 0:
        other = log_abs_det(shifted)  # identity degenerates, no augmentation
        return abs(direct - other)
    M = _bordered_matrix(shifted, triples, A)
    log_bordered = log_abs_det(M)
    corner = np.linalg.inv(M)[dim:, dim:]
    log_corner = log_abs_det(corner)
    total = log_bordered + log_corner
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
    """

    b1: float
    b2: float
    b3: float
    n_small: int
    z: complex
    rho: float
    delta: float
    seed: int
    log_det_bordered_free: float
    log_det_bordered: float
    log_det_corner: float
    classical_integral: float
    schur_residual: float
    condition: float
    flags: tuple

    def total(self) -> float:
        return self.b1 + self.b2 + self.b3

    def small_count_rate_ratio(self, N: int, kappa: float) -> float:
        """Coupling count against its predicted growth scale.

        Returns ``n_small / N^(1 - min(2 rho kappa, 1 - 2 rho))`` (complex
        dimension 1).  The implied constant is not asserted; the ratio is a
        diagnostic to be tracked across sizes.
        """
        rate = 1.0 - min(2.0 * self.rho * kappa, 1.0 - 2.0 * self.rho)
        return self.n_small / float(N) ** rate

    def csv_row(self, N: int) -> str:
        f = lambda x: repr(float(x))
        return ",".join([
            str(N), f(self.z.real), f(self.z.imag), f(self.rho), f(self.delta),
            str(self.seed), str(self.n_small), f(self.b1), f(self.b2), f(self.b3),
            f(self.schur_residual), ";".join(self.flags),
        ])


DIAGNOSTICS_CSV_HEADER = "N,z_re,z_im,rho,delta,seed,A,B1,B2,B3,schur_residual,flags"


def b_diagnostics(T, z: complex, rho: float, delta: float, G,
                  grid: QuadratureGrid | None = None, seed: int = -1,
                  g_norm: float | None = None) -> SplitDiagnostics:
    """Compute the three-way split for a quantization matrix at one probe.

    ``T`` must be a ToeplitzMatrix (the classical side needs its symbol).
    The unperturbed bulk term uses ``log|det bordered| = sum_{i>A} log t_i``,
    which is exact for the unperturbed system.  ``g_norm`` is ``||G||``;
    callers probing one ``G`` at several ``z`` pass it once, otherwise it is
    computed here.

    Dense work per probe: one SVD of ``P - z``, one ``slogdet`` of
    ``P + delta G - z`` (Schur route one) and one LU of the bordered matrix,
    which gives ``log|det bordered|``, the corner block (solving against the
    ``A`` unit columns ``[0; I_A]``) and LAPACK's 1-norm condition estimate.
    With ``A = 0`` the bordered matrix is ``P + delta G - z`` itself, so its
    LU serves both routes and the residual is 0 by construction.  Only the
    singular values and the ``A`` smallest vector pairs outlive the SVD, and
    ``P + delta G - z`` is built in the bordered matrix's top-left block, so
    concurrent probes stay lean.  Above ``CONDITION_GUARD`` the corner comes
    from the closed-form route, which recomputes the full triples.
    ``assemble_grushin`` and ``schur_identity_residual`` are the slow oracles
    for this path.
    """
    import scipy.linalg  # deferred: keeps ``import toeplab`` light

    entries = T.entries
    space, f = T.space, T.symbol
    dim = entries.shape[0]
    flags = []

    U, s, Vh, order = _shifted_svd(entries, z, source=f"N={T.N}")
    values = s[order]
    A = _params_of_values(T.N, rho, values).n_small
    small = order[:A]
    left, right_h = U[:, small], Vh[small]      # columns f_1..f_A, rows e_1*..e_A*
    del U, Vh
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
    Gm = G.entries if hasattr(G, "entries") else np.asarray(G, dtype=complex)
    if Gm.shape != (dim, dim):
        raise ValueError(f"perturbation shape {Gm.shape} does not match dim {dim}")
    if delta != 0.0:
        warning = _neumann_warning(
            delta * (operator_norm(Gm) if g_norm is None else float(g_norm)), values, A)
        if warning:
            flags.append(warning)

    # Fortran order lets lu_factor overwrite M instead of copying it
    M = np.empty((dim + A, dim + A), dtype=complex, order="F")
    shifted = M[:dim, :dim]
    np.multiply(Gm, delta, out=shifted)
    shifted += entries
    shifted[np.diag_indices(dim)] -= complex(z)
    M[:dim, dim:] = left
    M[dim:, :dim] = right_h
    M[dim:, dim:] = 0.0
    log_direct = log_abs_det(shifted) if A else None    # A = 0: the LU below is route one

    anorm = np.linalg.norm(M, 1)
    lu, piv = scipy.linalg.lu_factor(M, overwrite_a=True)
    rcond, _ = scipy.linalg.lapack.zgecon(lu, anorm, norm="1")
    condition = 1.0 / rcond if rcond > 0.0 else float("inf")
    with np.errstate(divide="ignore"):
        log_bordered = float(np.sum(np.log(np.abs(np.diag(lu)))))
    guarded = condition > CONDITION_GUARD
    if guarded:
        flags.append(f"condition estimate {condition:.3g} exceeds guard; using closed-form route")
    if A == 0:
        log_direct, log_corner = log_bordered, 0.0
    else:
        if guarded:
            closed = closed_form_inverse(singular_triples(entries, z), A)
            corner = _closed_route_inverse(closed, delta, Gm, dim, A)[dim:, dim:]
        else:
            unit = np.zeros((dim + A, A), dtype=complex)
            unit[dim:, :] = np.eye(A)
            corner = scipy.linalg.lu_solve((lu, piv), unit)[dim:, :]
        log_corner = log_abs_det(corner)
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
        b1=float(b1), b2=float(b2), b3=float(b3), n_small=A, z=complex(z),
        rho=float(rho), delta=delta, seed=int(seed),
        log_det_bordered_free=log_free, log_det_bordered=log_bordered,
        log_det_corner=float(log_corner), classical_integral=float(classical),
        schur_residual=float(residual), condition=float(condition), flags=tuple(flags),
    )


@dataclass(frozen=True)
class CountScan:
    """Small-singular-value counts across matrix sizes with a growth fit."""

    n_values: tuple
    counts: tuple
    fitted_exponent: float | None
    fit_stderr: float | None


def small_eigen_count_scan(f: SymbolSpec, space: PhaseSpace, z: complex, rho: float,
                           n_values) -> CountScan:
    """Count singular values with t^2 <= N^(-2 rho) for each N and fit growth."""
    counts = []
    for N in n_values:
        N = int(N)
        T = quantize_symbol(f, N)
        t = np.linalg.svd(T.entries - complex(z) * np.eye(T.dim), compute_uv=False)
        alpha = float(N) ** (-2.0 * rho)
        counts.append(int(np.sum(t**2 <= alpha)))
    ns = np.asarray([int(N) for N in n_values], dtype=float)
    cs = np.asarray(counts, dtype=float)
    mask = cs >= 1
    exponent = stderr = None
    if mask.sum() >= 2:
        x, y = np.log(ns[mask]), np.log(cs[mask])
        coeffs, cov = np.polyfit(x, y, 1, cov=True)
        exponent = float(coeffs[0])
        stderr = float(np.sqrt(cov[0, 0]))
    return CountScan(tuple(int(N) for N in n_values), tuple(counts), exponent, stderr)
