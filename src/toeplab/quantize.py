r"""Quantization matrices for torus and sphere symbols.

Torus rule (clock and shift, symmetric ordering).  With
``D = diag(e^{2 pi i k / N})`` for ``k = 1..N`` and ``S`` the cyclic shift
``S e_k = e_{k+1 mod N}``, a Fourier mode quantizes as::

    e^{2 pi i (m x + n xi)}  ->  e^{-i pi m n / N} D^m S^n

extended linearly.  The phase factor makes real symbols quantize to Hermitian
matrices; it only matters for mixed modes (m*n != 0).

Sphere rule (monomial sections).  The coordinate space is spanned by the
sections ``z^k``, ``k = 0..N``, orthogonal under the weight
``(1 + |z|^2)^-N`` and the calibrated area form, with
``||z^k||^2 = 2 pi k! (N-k)! / (N+1)!``.  Matrix entries of multiplication by
a polynomial in ``(x1, x2, x3)`` reduce to Beta-function integrals: writing
the polynomial as ``P(z, zbar) / (1 + |z|^2)^deg`` via::

    x1 = (z + zbar)/(1 + |z|^2),  x2 = -i (z - zbar)/(1 + |z|^2),
    x3 = (1 - |z| ^2)/(1 + |z|^2),

each monomial ``z^p zbar^q`` couples section ``k`` to section ``k + p - q``
with weight ``B(k+p+1, N+deg+1-(k+p))``.  Entries are evaluated in closed
form through log-gamma; a 2D quadrature path is kept as a cross-check oracle.

Lower-order corrections of a symbol are quantized by the same rules with
coefficient ``N^-j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .geometry import (
    SPHERE,
    TORUS,
    PhaseSpace,
    SymbolSpec,
    make_phase_space,
    symbol_from_record,
    symbol_to_record,
)

_MATRIX_MAGIC = b"TOEPLABMAT1\n"


@dataclass(frozen=True)
class ToeplitzMatrix:
    """A dense quantization matrix with its provenance."""

    space: PhaseSpace
    N: int
    dim: int
    entries: np.ndarray
    symbol: SymbolSpec


def bergman_dimension(space: PhaseSpace, N: int) -> int:
    """Dimension of the quantization space: N+1 on the sphere, N on the torus."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return N + 1 if space.kind == SPHERE else N


def quantize_symbol(f: SymbolSpec, N: int) -> ToeplitzMatrix:
    """Dispatch to the builder matching the symbol's phase space."""
    return quantize_sphere(f, N) if f.kind == SPHERE else quantize_torus(f, N)


def check_size(f: SymbolSpec, N: int) -> None:
    """Raise ValueError when N is too small to quantize ``f``.

    On the sphere the total degree must be at most N/2; on the torus every
    mode (m, n), corrections included, needs ``2 max(|m|, |n|) < N``.
    """
    if f.kind == SPHERE:
        deg = f.total_degree()
        if deg > N / 2:
            raise ValueError(f"symbol degree {deg} exceeds N/2 = {N / 2:g}; increase N")
        return
    for order, terms in [(0, f.terms)] + list(f.corrections):
        for (m, n) in terms:
            if 2 * max(abs(m), abs(n)) >= N:
                raise ValueError(
                    f"N={N} is too small for mode (m, n)=({m}, {n}); need N > {2 * max(abs(m), abs(n))}")


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def quantize_torus(f: SymbolSpec, N: int) -> ToeplitzMatrix:
    """Quantize a finite Fourier expansion on the torus."""
    if f.kind != TORUS:
        raise ValueError("quantize_torus requires a torus symbol")
    check_size(f, N)
    space = make_phase_space(TORUS)
    T = np.zeros((N, N), dtype=complex)
    diag = np.exp(2j * np.pi * np.arange(1, N + 1) / N)  # clock entries, k = 1..N
    cols = np.arange(N)
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (m, n), c in terms.items():
            rows = (cols + n) % N  # shift part; clock part acts on the row index
            T[rows, cols] += scale * c * np.exp(-1j * np.pi * m * n / N) * diag[rows]**m
    return ToeplitzMatrix(space, int(N), N, T, f)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def _log_beta(j, M):
    # log B(j+1, M+1-j) = log( j! (M-j)! / (M+1)! )
    return gammaln(j + 1.0) + gammaln(M - j + 1.0) - gammaln(M + 2.0)


def _monomial_zq(a: int, b: int, c: int) -> dict:
    """Expand x1^a x2^b x3^c into {(p, q): coeff} of z^p zbar^q."""
    out = {(0, 0): 1.0 + 0.0j}

    def mul(t1, t2):
        prod = {}
        for (p1, q1), c1 in t1.items():
            for (p2, q2), c2 in t2.items():
                key = (p1 + p2, q1 + q2)
                prod[key] = prod.get(key, 0.0 + 0.0j) + c1 * c2
        return prod

    for _ in range(a):
        out = mul(out, {(1, 0): 1.0 + 0.0j, (0, 1): 1.0 + 0.0j})
    for _ in range(b):
        out = mul(out, {(1, 0): -1.0j, (0, 1): 1.0j})
    for _ in range(c):
        out = mul(out, {(0, 0): 1.0 + 0.0j, (1, 1): -1.0 + 0.0j})
    return out


def quantize_sphere(f: SymbolSpec, N: int) -> ToeplitzMatrix:
    """Quantize a polynomial symbol on the sphere via closed-form entries."""
    if f.kind != SPHERE:
        raise ValueError("quantize_sphere requires a sphere (polynomial) symbol")
    check_size(f, N)
    space = make_phase_space(SPHERE)
    dim = N + 1
    T = np.zeros((dim, dim), dtype=complex)
    k = np.arange(dim)
    log_norm = _log_beta(k, N)  # log ||z^k||^2 / (2 pi)
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (a, b, c), coeff in terms.items():
            M = N + a + b + c
            for (p, q), cpq in _monomial_zq(a, b, c).items():
                lo, hi = max(0, q - p), min(dim, dim + q - p)  # rows k+p-q in range
                kk = np.arange(lo, hi)
                ll = kk + p - q
                vals = np.exp(_log_beta(kk + p, M) - 0.5 * (log_norm[kk] + log_norm[ll]))
                T[ll, kk] += scale * coeff * cpq * vals
    return ToeplitzMatrix(space, int(N), dim, T, f)


def sphere_entries_quadrature(f: SymbolSpec, N: int, resolution: int | None = None) -> np.ndarray:
    """Quantization entries by 2D numerical quadrature (cross-check oracle).

    Integrates ``<f s_k, s_l> / (||s_k|| ||s_l||)`` in the coordinates
    ``u = cos(theta)``, ``phi``, with the section amplitudes normalized in log
    space for stability.  Independent of the closed-form path except for the
    shared norm constants.
    """
    if f.kind != SPHERE:
        raise ValueError("sphere quadrature entries require a sphere symbol")
    deg = f.total_degree()
    n_u = resolution or (N + 2 * deg + 8)
    # frequencies up to N + deg appear before the selection rule kills them;
    # anything coarser aliases onto spurious far-off-diagonal couplings
    n_phi = 2 * (N + deg) + 8
    u, wu = np.polynomial.legendre.leggauss(n_u)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    U, PHI = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - U**2)
    pts = np.stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), U.ravel()], axis=-1)
    from .geometry import evaluate_symbol_grid

    fvals = evaluate_symbol_grid(f, pts, N).reshape(n_u, n_phi)

    dim = N + 1
    k = np.arange(dim)
    # normalized amplitude a_k(u) = sin^k(t/2) cos^(N-k)(t/2) / ||z^k|| with
    # ||z^k||^2 = 2 pi B(k+1, N+1-k); logs avoid under/overflow.
    log_sin_half = 0.5 * np.log((1.0 - u) / 2.0)
    log_cos_half = 0.5 * np.log((1.0 + u) / 2.0)
    log_amp = (k[:, None] * log_sin_half[None, :]
               + (N - k)[:, None] * log_cos_half[None, :]
               - 0.5 * (_log_beta(k, N)[:, None] + np.log(2.0 * np.pi)))
    amp = np.exp(log_amp)  # (dim, n_u)

    # phi integral: H[m, i] = (2 pi / n_phi) sum_j f(i, j) e^{-i m phi_j}
    w_phi = 2.0 * np.pi / n_phi
    freqs = k[:, None] - k[None, :]  # l - k for entry (l, k)
    ph = np.exp(-1j * np.outer(np.arange(-N, N + 1), phi))  # (2N+1, n_phi)
    H = w_phi * (fvals @ ph.T)  # (n_u, 2N+1), column m+N is frequency m

    T = np.zeros((dim, dim), dtype=complex)
    half_wu = 0.5 * wu
    for l in range(dim):
        rowamp = amp[l] * half_wu
        Hcols = H[:, (l - k) + N]  # (n_u, dim)
        T[l, :] = (rowamp[:, None] * Hcols * amp.T).sum(axis=0)
    return T


# ---------------------------------------------------------------------------
# persistence (bit-exact round trip)
# ---------------------------------------------------------------------------

def save_matrix(T: ToeplitzMatrix, path) -> None:
    """Write magic + JSON header + row-major little-endian complex128 payload."""
    header = {
        "kind": T.space.kind,
        "N": T.N,
        "dim": T.dim,
        "symbol": symbol_to_record(T.symbol),
    }
    payload = np.ascontiguousarray(T.entries, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def load_matrix(path) -> ToeplitzMatrix:
    """Read a :func:`save_matrix` file; malformed files raise ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MATRIX_MAGIC))
        if magic != _MATRIX_MAGIC:
            raise ValueError(f"{path}: not a toeplab matrix file")
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    missing = {"kind", "N", "dim", "symbol"} - set(header)
    if missing:
        raise ValueError(f"{path}: header lacks {sorted(missing)}")
    dim = int(header["dim"])
    expected = dim * dim * 16
    if len(raw) != expected:
        problem = "truncated payload" if len(raw) < expected else "trailing bytes after payload"
        raise ValueError(f"{path}: {problem}: header dim {dim} needs {expected} bytes, "
                         f"file holds {len(raw)}")
    entries = np.frombuffer(raw, dtype="<c16").reshape(dim, dim).copy()
    return ToeplitzMatrix(
        space=make_phase_space(header["kind"]),
        N=int(header["N"]),
        dim=dim,
        entries=entries,
        symbol=symbol_from_record(header["symbol"]),
    )
