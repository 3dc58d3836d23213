r"""Phase spaces, symbols, Liouville quadrature and sublevel-set regularity.

Two phase spaces are supported, both of complex dimension 1:

* ``"torus"``  -- the flat torus with coordinates ``(x, xi)`` taken mod 1.
* ``"sphere"`` -- the unit 2-sphere embedded in R^3 with coordinates
  ``(x1, x2, x3)``.

The Liouville volume of both spaces is calibrated to ``2*pi`` so that
``(N / 2*pi) * volume`` reproduces the quantization dimensions (``N`` on the
torus, ``N + 1`` on the sphere) up to a bounded error.

Symbols are finite expansions: Fourier modes ``sum c[m,n] e^{2 pi i (m x + n xi)}``
on the torus, polynomials ``sum c[a,b,c] x1^a x2^b x3^c`` on the sphere.  A
symbol may carry lower-order corrections entering with weight ``N^-j``; the
``N``-independent part is the principal part.  A symbol names its phase
space by its ``kind`` tag, and :attr:`SymbolSpec.space` is that space, so
no function here or downstream takes a space beside a symbol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

TORUS = "torus"
SPHERE = "sphere"

_OFF_MANIFOLD_TOL = 1e-12


@dataclass(frozen=True)
class PhaseSpace:
    """A quantizable phase space with its calibrated Liouville volume."""

    kind: str
    complex_dimension: int
    volume: float
    quadrature_default: int


def make_phase_space(kind: str) -> PhaseSpace:
    """Return the phase space named by `kind` ("torus" or "sphere")."""
    if kind == TORUS:
        return PhaseSpace(kind=TORUS, complex_dimension=1, volume=2.0 * math.pi,
                          quadrature_default=256)
    if kind == SPHERE:
        return PhaseSpace(kind=SPHERE, complex_dimension=1, volume=2.0 * math.pi,
                          quadrature_default=200)
    raise ValueError(f"unknown phase space kind: {kind!r}")


@dataclass(frozen=True)
class SymbolSpec:
    """A finite symbol expansion with optional ``N^-j`` corrections.

    ``terms`` maps exponent tuples to complex coefficients: ``(m, n)`` Fourier
    modes on the torus, ``(a, b, c)`` monomial exponents on the sphere.
    ``corrections`` is a tuple of ``(order, terms)`` pairs with order >= 1.
    Instances are treated as immutable.
    """

    kind: str
    terms: dict = field(default_factory=dict)
    corrections: tuple = ()

    @property
    def space(self) -> PhaseSpace:
        """The phase space that ``kind`` names."""
        return make_phase_space(self.kind)

    def principal(self) -> "SymbolSpec":
        """The N-independent part of the expansion."""
        return SymbolSpec(self.kind, dict(self.terms), ())

    def total_degree(self) -> int:
        """Largest total degree over all terms (sphere polynomials)."""
        return max((sum(t) for t in self._all_terms()), default=0)

    def _all_terms(self):
        for t in self.terms:
            yield t
        for _, terms in self.corrections:
            for t in terms:
                yield t


def torus_symbol(terms: dict, corrections: tuple = ()) -> SymbolSpec:
    return SymbolSpec(TORUS, _normalized_terms(terms, 2), _normalized_corrections(corrections, 2))


def sphere_symbol(terms: dict, corrections: tuple = ()) -> SymbolSpec:
    return SymbolSpec(SPHERE, _normalized_terms(terms, 3), _normalized_corrections(corrections, 3))


def scottish_flag_symbol() -> SymbolSpec:
    """cos(2 pi x) + i cos(2 pi xi) on the torus (crossed-cosines symbol)."""
    return torus_symbol({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5j, (0, -1): 0.5j})


def _normalized_terms(terms: dict, arity: int) -> dict:
    out = {}
    for exps, c in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != arity:
            raise ValueError(f"exponent tuple {exps} has arity {len(exps)}, expected {arity}")
        if arity == 3 and any(e < 0 for e in exps):
            raise ValueError(f"sphere monomial exponents must be nonnegative, got {exps}")
        c = complex(c)
        if c != 0:
            out[exps] = out.get(exps, 0.0 + 0.0j) + c
    return {e: c for e, c in out.items() if c != 0}


def _normalized_corrections(corrections, arity: int) -> tuple:
    out = []
    for order, terms in corrections:
        order = int(order)
        if order < 1:
            raise ValueError("correction orders must be >= 1")
        out.append((order, _normalized_terms(terms, arity)))
    return tuple(out)


# ---------------------------------------------------------------------------
# symbol evaluation
# ---------------------------------------------------------------------------

def evaluate_symbol_grid(f: SymbolSpec, points: np.ndarray, N: int | None = None) -> np.ndarray:
    """Evaluate the symbol on an (n, 2) array of torus or (n, 3) array of sphere points.

    With ``N`` given, corrections enter with weight ``N^-j``; otherwise only
    the principal part is evaluated.  Points of the other space's shape raise
    ValueError.  Sphere points must satisfy |p|^2 = 1 within 1e-12, torus
    coordinates are taken mod 1.
    """
    pts = np.asarray(points, dtype=float)
    arity = 2 if f.kind == TORUS else 3
    if pts.ndim != 2 or pts.shape[1] != arity:
        raise ValueError(f"a {f.kind} symbol takes (n, {arity}) points, got shape {pts.shape}")
    if f.kind == SPHERE:
        drift = np.abs(np.einsum("ij,ij->i", pts, pts) - 1.0)
        if np.any(drift > _OFF_MANIFOLD_TOL):
            raise ValueError(f"a point lies off the unit sphere (|p|^2 - 1 = {np.max(drift):g})")
    values = _eval_terms(f.kind, f.terms, pts)
    for order, terms in f.corrections:
        if N is None:
            continue
        values = values + float(N) ** (-order) * _eval_terms(f.kind, terms, pts)
    return values


def _eval_terms(kind: str, terms: dict, pts: np.ndarray) -> np.ndarray:
    values = np.zeros(pts.shape[0], dtype=complex)
    if kind == TORUS:
        for (m, n), c in terms.items():
            values += c * np.exp(2j * np.pi * (m * pts[:, 0] + n * pts[:, 1]))
    else:
        for (a, b, cc), c in terms.items():
            values += c * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** cc
    return values


def is_real_valued(f: SymbolSpec, samples: int = 4096, seed: int = 0) -> bool:
    """Whether the principal symbol is real on a dense sample of the space."""
    pts = sample_points(f.space, samples, seed)
    vals = evaluate_symbol_grid(f.principal(), pts)
    return bool(np.max(np.abs(vals.imag)) < 1e-12)


def sup_abs(f: SymbolSpec, resolution: int = 0, N: int | None = None) -> float:
    """sup |f| over a dense quadrature sample grid of the symbol's space."""
    grid = liouville_quadrature(f.space, resolution or f.space.quadrature_default)
    return float(np.max(np.abs(evaluate_symbol_grid(f, grid.points, N))))


# ---------------------------------------------------------------------------
# symbol algebra (both symbol classes are closed under +, *, powers)
# ---------------------------------------------------------------------------

def symbol_sum(f: SymbolSpec, g: SymbolSpec, cf: complex = 1.0, cg: complex = 1.0) -> SymbolSpec:
    if f.kind != g.kind:
        raise ValueError("cannot combine symbols on different spaces")
    orders: dict[int, dict] = {0: {}}
    for sym, c in ((f, cf), (g, cg)):
        for order, terms in [(0, sym.terms)] + list(sym.corrections):
            dst = orders.setdefault(order, {})
            for e, v in terms.items():
                dst[e] = dst.get(e, 0.0 + 0.0j) + c * v
    return _from_orders(f.kind, orders)


def symbol_product(f: SymbolSpec, g: SymbolSpec) -> SymbolSpec:
    """Pointwise product; exponents convolve, correction orders add."""
    if f.kind != g.kind:
        raise ValueError("cannot multiply symbols on different spaces")
    orders: dict[int, dict] = {}
    for jf, tf in [(0, f.terms)] + list(f.corrections):
        for jg, tg in [(0, g.terms)] + list(g.corrections):
            dst = orders.setdefault(jf + jg, {})
            for ef, vf in tf.items():
                for eg, vg in tg.items():
                    e = tuple(a + b for a, b in zip(ef, eg))
                    dst[e] = dst.get(e, 0.0 + 0.0j) + vf * vg
    return _from_orders(f.kind, orders)


def constant_symbol(kind: str, value: complex) -> SymbolSpec:
    exps = (0, 0) if kind == TORUS else (0, 0, 0)
    maker = torus_symbol if kind == TORUS else sphere_symbol
    return maker({exps: complex(value)})


def polynomial_of_symbol(coefficients, f: SymbolSpec) -> SymbolSpec:
    """sum_j coefficients[j] * f^j as a symbol (Horner evaluation)."""
    acc = constant_symbol(f.kind, 0.0)
    for c in reversed(list(coefficients)):
        acc = symbol_sum(symbol_product(acc, f), constant_symbol(f.kind, c))
    return acc


def _from_orders(kind: str, orders: dict[int, dict]) -> SymbolSpec:
    clean = {j: {e: v for e, v in t.items() if v != 0} for j, t in orders.items()}
    terms = clean.pop(0, {})
    corr = tuple((j, t) for j, t in sorted(clean.items()) if t)
    return SymbolSpec(kind, terms, corr)


# ---------------------------------------------------------------------------
# Liouville quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Cubature nodes and positive weights summing to the Liouville volume."""

    points: np.ndarray
    weights: np.ndarray


def liouville_quadrature(space: PhaseSpace, resolution: int) -> QuadratureGrid:
    """Build a quadrature for the calibrated Liouville measure.

    Torus: uniform product grid, ``resolution x resolution`` nodes (exact for
    trigonometric polynomials with mode indices below the resolution).
    Sphere: Gauss-Legendre in cos(theta) times a uniform azimuthal grid with
    ``2 * resolution`` nodes (exact for polynomials in (x1, x2, x3) up to
    degree ``2 * resolution - 1``).
    """
    if resolution < 2:
        raise ValueError("quadrature resolution must be >= 2")
    if space.kind == TORUS:
        x = np.arange(resolution) / resolution
        X, XI = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([X.ravel(), XI.ravel()], axis=-1)
        w = np.full(pts.shape[0], space.volume / pts.shape[0])
        return QuadratureGrid(pts, w)
    n_phi = 2 * resolution
    u, wu = np.polynomial.legendre.leggauss(resolution)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    U, PHI = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - U**2)
    pts = np.stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), U.ravel()], axis=-1)
    # d(mu) = (1/2) du dphi, total 2*pi
    w = (np.outer(wu, np.full(n_phi, 2.0 * np.pi / n_phi)) * 0.5).ravel()
    return QuadratureGrid(pts, w)


@dataclass(frozen=True)
class SymbolImage:
    """The principal symbol's values at the nodes of a Liouville quadrature, with the nodes' weights.

    The push-forward of the Liouville measure by ``f0`` on that grid, against
    which every classical quantity of a run integrates: the Weyl prediction,
    the classical potential and the probe box.  ``symbol`` (the principal
    part) and ``resolution`` let a caller evaluate on a refined grid.
    """

    symbol: SymbolSpec
    resolution: int
    values: np.ndarray
    weights: np.ndarray


def symbol_image(f: SymbolSpec, resolution: int) -> SymbolImage:
    """``f0`` at the nodes of the Liouville quadrature of ``resolution``; the nodes are dropped."""
    grid = liouville_quadrature(f.space, resolution)
    f0 = f.principal()
    return SymbolImage(f0, resolution, evaluate_symbol_grid(f0, grid.points), grid.weights)


def sample_points(space: PhaseSpace, n: int, seed: int = 0) -> np.ndarray:
    """n points sampled uniformly w.r.t. the Liouville measure."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if space.kind == TORUS:
        return rng.random((n, 2))
    u = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - u**2)
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=-1)


# ---------------------------------------------------------------------------
# sublevel-set regularity exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityEstimate:
    """Fitted exponent of mu{|f0 - z|^2 <= t} ~ t^kappa, uniform over probes.

    ``kappa`` is the minimum fitted slope over the probe grid, clamped to
    (0, 1].  ``fit_diagnostics`` holds one ``(z, slope, rms_residual, bins)``
    entry per fitted probe; ``skipped`` lists probes where every sublevel-set
    mass estimate was zero or the fit was degenerate.
    """

    kappa: float
    fit_diagnostics: tuple
    skipped: tuple


def estimate_kappa(f: SymbolSpec, z_grid, samples: int, t_grid, seed: int = 0) -> RegularityEstimate:
    """Monte-Carlo estimate of the sublevel-set regularity exponent.

    For each probe ``z`` the normalized mass ``m(z, t)`` of
    ``{|f0 - z|^2 <= t}`` is estimated from ``samples`` uniform points and
    ``log m`` is fitted against ``log t``; the reported exponent is the
    minimum slope over probes (the uniformity in z is what matters).
    """
    if samples < 10**4:
        raise ValueError("estimate_kappa requires samples >= 10**4")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if np.any(t_grid <= 0.0) or np.any(t_grid >= 1.0):
        raise ValueError("t_grid must lie in (0, 1)")
    pts = sample_points(f.space, int(samples), seed)
    vals = evaluate_symbol_grid(f.principal(), pts)

    diagnostics = []
    skipped = []
    for z in z_grid:
        z = complex(z)
        d2 = np.abs(vals - z) ** 2
        m = np.array([np.count_nonzero(d2 <= t) / d2.size for t in t_grid])    # np.mean's bits
        mask = m > 0
        if mask.sum() < 2 or np.ptp(np.log(m[mask])) == 0.0:
            skipped.append(z)
            continue
        logt, logm = np.log(t_grid[mask]), np.log(m[mask])
        slope, intercept = np.polyfit(logt, logm, 1)
        rms = float(np.sqrt(np.mean((logm - (slope * logt + intercept)) ** 2)))
        diagnostics.append((z, float(slope), rms, int(mask.sum())))
    if not diagnostics:
        raise ValueError("estimate_kappa: every probe was degenerate (constant symbol?)")
    kappa = min(s for _, s, _, _ in diagnostics)
    if kappa <= 0.0:
        raise ValueError(f"estimate_kappa: nonpositive fitted exponent {kappa:g}")
    return RegularityEstimate(
        kappa=min(1.0, float(kappa)),
        fit_diagnostics=tuple(diagnostics),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# symbol record serialization
# ---------------------------------------------------------------------------

def symbol_to_record(f: SymbolSpec) -> str:
    """Serialize to the structured text record.

    First line is the kind tag; each following line is
    ``order exponents... re im`` with order 0 for the principal part.
    """
    lines = [f.kind]
    for order, terms in [(0, f.terms)] + list(f.corrections):
        for exps in sorted(terms):
            c = terms[exps]
            parts = [str(order), *(str(e) for e in exps),
                     repr(float(c.real)), repr(float(c.imag))]
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


#: Largest real or imaginary part of a record's coefficient: the Grushin cutoff squares the
#: singular values of P - z (``grushin._params_of_values``), which overflow above sqrt(float max) = 1.3e154.
_COEFFICIENT_MAX = 1e150


def symbol_from_record(record: str) -> SymbolSpec:
    lines = [ln for ln in record.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty symbol record")
    kind = lines[0].strip()
    if kind not in (TORUS, SPHERE):
        raise ValueError(f"unknown symbol kind tag {kind!r}")
    arity = 2 if kind == TORUS else 3
    orders: dict[int, dict] = {0: {}}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != arity + 3:
            raise ValueError(f"malformed symbol record line: {ln!r}")
        order = int(parts[0])
        exps = tuple(int(p) for p in parts[1:1 + arity])
        c = complex(float(parts[1 + arity]), float(parts[2 + arity]))
        if not cmath.isfinite(c):                # a nan or inf would poison every quantity of a run
            raise ValueError(f"non-finite coefficient in symbol record line: {ln!r}")
        dst = orders.setdefault(order, {})
        dst[exps] = dst.get(exps, 0.0 + 0.0j) + c
        if max(abs(dst[exps].real), abs(dst[exps].imag)) > _COEFFICIENT_MAX:
            raise ValueError(f"coefficient outside [-1e150, 1e150] in symbol record line: {ln!r}")
    terms = orders.pop(0)
    corr = tuple((j, t) for j, t in sorted(orders.items()) if t)
    maker = torus_symbol if kind == TORUS else sphere_symbol
    return maker(terms, corr)
