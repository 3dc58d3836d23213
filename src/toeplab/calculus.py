"""Finite-size residuals of the quantized symbol calculus.

Each operation compares an exact matrix computation against its symbol-level
counterpart and reports the operator-norm residual over a ladder of sizes,
together with a fitted decay exponent.  Where a scalar function has to be
carried into symbol space, an explicit polynomial surrogate with a measured
sup-error budget is supplied by the caller (see :func:`chebyshev_surrogate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SymbolSpec,
    is_real_valued,
    liouville_quadrature,
    evaluate_symbol_grid,
    polynomial_of_symbol,
    sup_abs,
    symbol_product,
)
from .quantize import quantize_symbol
from .randmat import operator_norm


@dataclass(frozen=True)
class ResidualCurve:
    """Nonnegative residuals per size with a log-log decay fit."""

    n_values: tuple
    residuals: tuple
    fitted_exponent: float | None

    def halving_ratios(self):
        """(N, residual(2N)/residual(N)) for every doubled pair present."""
        lookup = dict(zip(self.n_values, self.residuals))
        out = []
        for N in self.n_values:
            if 2 * N in lookup and lookup[N] > 0.0:
                out.append((N, lookup[2 * N] / lookup[N]))
        return out


def _fit_curve(n_values, residuals) -> ResidualCurve:
    ns = np.asarray(n_values, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    mask = rs > 0.0
    exponent = None
    if mask.sum() >= 2:
        exponent = float(np.polyfit(np.log(ns[mask]), np.log(rs[mask]), 1)[0])
    return ResidualCurve(tuple(int(N) for N in n_values), tuple(float(r) for r in residuals),
                         exponent)


def composition_residual(f: SymbolSpec, g: SymbolSpec, n_values) -> ResidualCurve:
    """|| T(f) T(g) - T(f g) || per size; expects O(1/N) decay."""
    fg = symbol_product(f, g)
    residuals = []
    for N in n_values:
        Tf = quantize_symbol(f, int(N)).dense()
        Tg = quantize_symbol(g, int(N)).dense()
        Tfg = quantize_symbol(fg, int(N)).dense()
        residuals.append(operator_norm(Tf @ Tg - Tfg))
    return _fit_curve(n_values, residuals)


@dataclass(frozen=True)
class ScalarSurrogate:
    """A scalar function with a polynomial stand-in of measured sup-error."""

    fn: object
    coefficients: tuple  # power basis, ascending
    sup_error: float


def chebyshev_surrogate(fn, degree: int) -> ScalarSurrogate:
    """Chebyshev interpolant of ``fn`` on [-1, 1] converted to the power basis; its sup-error
    is measured at 2001 equispaced points."""
    from numpy.polynomial import chebyshev, polynomial

    cheb = chebyshev.Chebyshev.interpolate(fn, degree, domain=[-1.0, 1.0])
    power = cheb.convert(kind=polynomial.Polynomial)
    xs = np.linspace(-1.0, 1.0, 2001)
    err = float(np.max(np.abs(np.asarray([fn(x) for x in xs]) - power(xs))))
    return ScalarSurrogate(fn, tuple(complex(c) for c in power.coef), err)


def functional_calculus_residual(f: SymbolSpec, chi: ScalarSurrogate, n_values) -> ResidualCurve:
    """|| chi(T(f)) - T(p o f) || with p the polynomial surrogate of chi.

    ``chi(T(f))`` goes through the Hermitian eigendecomposition, so the symbol
    must be real-valued.
    """
    if not is_real_valued(f):
        raise ValueError("functional calculus requires a real-valued (Hermitian) symbol")
    chi_of_f = polynomial_of_symbol(chi.coefficients, f)
    residuals = []
    for N in n_values:
        T = quantize_symbol(f, int(N)).dense()
        if not np.allclose(T, T.conj().T, atol=1e-12, rtol=0.0):
            raise ValueError(f"quantization at N={N} is not Hermitian")
        w, V = np.linalg.eigh(T)
        chi_T = (V * np.asarray([chi.fn(x) for x in w])) @ V.conj().T
        T_chi = quantize_symbol(chi_of_f, int(N)).dense()
        residuals.append(operator_norm(chi_T - T_chi))
    return _fit_curve(n_values, residuals)


def trace_residual(f: SymbolSpec, n_values) -> ResidualCurve:
    """| tr T(f) - (N / 2 pi)^d * integral of f | per size (bounded for d=1)."""
    grid = liouville_quadrature(f.space, f.space.quadrature_default)
    d = f.space.complex_dimension
    residuals = []
    for N in n_values:
        N = int(N)
        T = quantize_symbol(f, N)
        integral = complex(np.dot(grid.weights, evaluate_symbol_grid(f, grid.points, N)))
        predicted = (N / (2.0 * np.pi)) ** d * integral
        residuals.append(abs(complex(np.trace(T.dense())) - predicted))
    return _fit_curve(n_values, residuals)


def norm_bound_check(f: SymbolSpec, n_values):
    """Per-size (norm, sup|f|) table; raises if the norm ever exceeds sup|f| by more than 1e-8."""
    rows = []
    for N in n_values:
        N = int(N)
        T = quantize_symbol(f, N)
        norm = operator_norm(T.dense())
        bound = sup_abs(f, N=N)
        rows.append((N, norm, bound))
        if norm > bound + 1e-8:
            raise ValueError(f"norm bound violated at N={N}: ||T|| = {norm:.12g} > sup|f| = {bound:.12g}")
    return rows
