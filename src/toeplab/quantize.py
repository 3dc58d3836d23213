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
with weight ``B(k+p+1, N+deg+1-(k+p))``.  Over the section norms these
Beta functions cancel to the square root of a product of ``2 deg``
integers over a product of ``deg`` (:func:`_beta_ratios`), so entries are
exact to rounding; a 2D quadrature path is kept as a cross-check oracle.

Lower-order corrections of a symbol are quantized by the same rules with
coefficient ``N^-j``.

Each builder sums its terms diagonal by diagonal; :func:`_toeplitz` keeps the
nonzero entries once, as the :class:`Band` that a :class:`ToeplitzMatrix` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SPHERE, TORUS, PhaseSpace, SymbolSpec, evaluate_symbol_grid


@dataclass(frozen=True)
class Band:
    """A matrix's nonzero entries, in the row and column order of its narrower band.

    ``perm`` is the interleaving ``0, n-1, 1, n-2, ...`` when it gives a
    narrower band than the plain order, else None: a cyclic band of width m
    (the torus quantizes a trigonometric polynomial of largest mode m to one)
    becomes a plain band of width 2m under it.  ``rows`` and ``cols`` are the
    entries' positions in that order, and the band spans ``lo`` subdiagonals
    and ``hi`` superdiagonals, the main diagonal always included.
    """

    lo: int
    hi: int
    perm: np.ndarray | None
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def positions(self) -> tuple:
        """The entries' rows and columns in the matrix's own order."""
        return (self.rows, self.cols) if self.perm is None else (self.perm[self.rows], self.perm[self.cols])


@dataclass(frozen=True)
class ToeplitzMatrix:
    """A quantization matrix held as its :class:`Band`; its symbol fixes its phase space.

    The band, built once by the quantizer, is the only stored form: :meth:`add_to`
    adds its entries to an array and :meth:`dense` builds the matrix itself.
    """

    N: int
    symbol: SymbolSpec
    band: Band

    @property
    def space(self) -> PhaseSpace:
        return self.symbol.space

    @property
    def dim(self) -> int:
        return bergman_dimension(self.space, self.N)

    def add_to(self, out: np.ndarray) -> np.ndarray:
        """``out += T`` at the stored entries, for a ``dim x dim`` array (or view) ``out``."""
        out[self.band.positions()] += self.band.values
        return out

    def dense(self) -> np.ndarray:
        """The ``dim x dim`` matrix; of a run, only the ``matrix`` stage builds it."""
        return self.add_to(np.zeros((self.dim, self.dim), dtype=complex))


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
    diagonals: dict = {}
    diag = np.exp(2j * np.pi * np.arange(1, N + 1) / N)  # clock entries, k = 1..N
    cols = np.arange(N)
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (m, n), c in terms.items():
            rows = (cols + n) % N  # shift part; clock part acts on the row index
            diagonal = diagonals.setdefault(n % N, np.zeros(N, dtype=complex))
            diagonal += scale * c * np.exp(-1j * np.pi * m * n / N) * diag[rows]**m
    return _toeplitz(N, f, diagonals)


def _toeplitz(N: int, f: SymbolSpec, diagonals: dict) -> ToeplitzMatrix:
    """The matrix of ``diagonals``, with its nonzero entries held in the narrower band order.

    ``diagonals`` maps a shift ``s`` to the entries ``T[c + s, c]`` over the
    columns ``c`` where ``0 <= c + s < dim`` (sphere), or ``T[(c + s) mod N, c]``
    over every column (torus: the cyclic shifts of the clock and shift rule).
    An entry can cancel exactly: ``i x1 + x2`` on the sphere puts ``i v - i v``
    on its superdiagonal, and a run must see a band of 1, not 2.
    """
    n = bergman_dimension(f.space, N)
    rows, cols, values = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
    for shift in sorted(diagonals):
        c = np.arange(n) if f.kind == TORUS else np.arange(max(0, -shift), min(n, n - shift))
        rows.append((c + shift) % n)
        cols.append(c)
        values.append(diagonals[shift])
    rows, cols, values = np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    perm = np.empty(n, dtype=np.intp)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    position = np.argsort(perm)
    # lo + hi, the band's width, is the spread of the offsets col - row and 0
    if np.ptp(np.r_[0, position[cols] - position[rows]]) < np.ptp(np.r_[0, cols - rows]):
        rows, cols = position[rows], position[cols]
    else:
        perm = None
    offsets = cols - rows
    lo, hi = max(0, -int(np.min(offsets, initial=0))), max(0, int(np.max(offsets, initial=0)))
    return ToeplitzMatrix(int(N), f, Band(lo, hi, perm, rows, cols, values))


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def _beta_ratios(k: np.ndarray, p: int, q: int, N: int, deg: int) -> np.ndarray:
    """``B(k+p+1, N+deg+1-k-p) / sqrt(B(k+1, N+1-k) B(l+1, N+1-l))`` at each ``k``, ``l = k+p-q``.

    The entry that ``z^p zbar^q / (1 + |z|^2)^deg`` gives between the normalized
    sections ``z^k`` and ``z^l``.  Its Gamma factors cancel to
    ``sqrt(prod num) / prod_{t<deg} (N+2+t)``, whose ``2 deg`` numerator factors
    are ``k+1+t`` (t < p), ``l+1+t`` (t < q), ``N-k+1+t`` (t < deg-p) and
    ``N-l+1+t`` (t < deg-q).  Each pair of them enters as ``sqrt(a b) / (N+2+t)``,
    below ``(N+deg) / (N+2)``, so the product holds no power of N and each
    ratio is exact to a few roundings per degree.
    """
    k = np.asarray(k, dtype=float)
    l = k + (p - q)
    num = ([k + (1 + t) for t in range(p)] + [l + (1 + t) for t in range(q)]
           + [(N + 1 + t) - k for t in range(deg - p)] + [(N + 1 + t) - l for t in range(deg - q)])
    out = np.ones_like(k)
    for t in range(deg):
        out *= np.sqrt(num[2 * t] * num[2 * t + 1]) / (N + 2 + t)
    return out


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
    dim = N + 1
    diagonals: dict = {}
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (a, b, c), coeff in terms.items():
            for (p, q), cpq in _monomial_zq(a, b, c).items():
                lo, hi = max(0, q - p), min(dim, dim + q - p)  # rows k+p-q in range
                vals = _beta_ratios(np.arange(lo, hi), p, q, N, a + b + c)
                diagonal = diagonals.setdefault(p - q, np.zeros(hi - lo, dtype=complex))
                diagonal += scale * coeff * cpq * vals
    return _toeplitz(N, f, diagonals)


def sphere_entries_quadrature(f: SymbolSpec, N: int) -> np.ndarray:
    """Quantization entries by 2D numerical quadrature (cross-check oracle).

    Integrates ``<f s_k, s_l> / (||s_k|| ||s_l||)`` in the coordinates
    ``u = cos(theta)``, ``phi``, with the section amplitudes normalized in log
    space for stability, their norms from :func:`math.lgamma`.  It shares no
    code with the closed-form path that it checks.
    """
    if f.kind != SPHERE:
        raise ValueError("sphere quadrature entries require a sphere symbol")
    deg = f.total_degree()
    n_u = N + 2 * deg + 8                   # Gauss-Legendre nodes in u
    # frequencies up to N + deg appear before the selection rule kills them;
    # anything coarser aliases onto spurious far-off-diagonal couplings
    n_phi = 2 * (N + deg) + 8
    u, wu = np.polynomial.legendre.leggauss(n_u)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    U, PHI = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - U**2)
    pts = np.stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), U.ravel()], axis=-1)
    fvals = evaluate_symbol_grid(f, pts, N).reshape(n_u, n_phi)

    dim = N + 1
    k = np.arange(dim)
    # normalized amplitude a_k(u) = sin^k(t/2) cos^(N-k)(t/2) / ||z^k|| with
    # ||z^k||^2 = 2 pi B(k+1, N+1-k); logs avoid under/overflow.
    log_sin_half = 0.5 * np.log((1.0 - u) / 2.0)
    log_cos_half = 0.5 * np.log((1.0 + u) / 2.0)
    log_norm = np.array([math.lgamma(j + 1) + math.lgamma(N - j + 1) - math.lgamma(N + 2) for j in k])
    log_amp = (k[:, None] * log_sin_half[None, :]
               + (N - k)[:, None] * log_cos_half[None, :]
               - 0.5 * (log_norm[:, None] + np.log(2.0 * np.pi)))
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

