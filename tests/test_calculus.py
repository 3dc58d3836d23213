import numpy as np
import pytest

from toeplab.calculus import (
    chebyshev_surrogate,
    composition_residual,
    functional_calculus_residual,
    norm_bound_check,
    trace_residual,
)
from toeplab.geometry import (
    scottish_flag_symbol,
    sphere_symbol,
    torus_symbol,
)
from toeplab.quantize import quantize_symbol
from toeplab.randmat import operator_norm

X3 = sphere_symbol({(0, 0, 1): 1.0})


class TestComposition:
    def test_identity_factor_is_exact(self):
        one = sphere_symbol({(0, 0, 0): 1.0})
        g = sphere_symbol({(1, 0, 0): 1.0, (0, 0, 2): 0.5})
        curve = composition_residual(one, g, [20, 40])
        assert curve.residuals == (0.0, 0.0)

    def test_height_squared_halving(self):
        curve = composition_residual(X3, X3, [50, 100, 200])
        for N, ratio in curve.halving_ratios():
            assert 0.35 <= ratio <= 0.65
        assert curve.fitted_exponent == pytest.approx(-1.0, abs=0.1)

    def test_clock_shift_commutation_phase(self):
        # oracle (direct computation): the product of the two elementary
        # modes differs from the quantized product mode by the ordering
        # phase, so the residual is exactly |1 - e^{-i pi / N}|
        f = torus_symbol({(1, 0): 1.0})
        g = torus_symbol({(0, 1): 1.0})
        curve = composition_residual(f, g, [16, 32, 64, 128])
        for N, res in zip(curve.n_values, curve.residuals):
            assert res == pytest.approx(2 * np.sin(np.pi / (2 * N)), abs=1e-12)
        assert curve.fitted_exponent == pytest.approx(-1.0, abs=0.01)

    def test_degree_overflow(self):
        f = sphere_symbol({(3, 0, 0): 1.0})
        with pytest.raises(ValueError, match="degree"):
            composition_residual(f, f, [10])


class TestParametrix:
    def test_matches_dense_inverse_budget(self):
        surrogate = chebyshev_surrogate(lambda s: 1.0 / (2.0 + s), 8)
        f = sphere_symbol({(0, 0, 0): 2.0, (0, 0, 1): 1.0})
        inv = sphere_symbol({(0, 0, j): surrogate.coefficients[j]
                             for j in range(len(surrogate.coefficients))})
        N = 100
        Tf = quantize_symbol(f, N).dense()
        Tg = quantize_symbol(inv, N).dense()
        direct = np.linalg.inv(Tf)
        assert operator_norm(direct - Tg) <= surrogate.sup_error + 5.0 / N


class TestFunctionalCalculus:
    def test_identity_function(self):
        surrogate = chebyshev_surrogate(lambda s: s, 1)
        curve = functional_calculus_residual(X3, surrogate, [20, 40])
        assert max(curve.residuals) < 1e-12

    def test_square_matches_composition(self):
        # chi(T) = T @ T exactly, and the squared symbol is the product
        # symbol, so the two residual routes must coincide
        surrogate = chebyshev_surrogate(lambda s: s * s, 2)
        fc = functional_calculus_residual(X3, surrogate, [30, 60])
        comp = composition_residual(X3, X3, [30, 60])
        np.testing.assert_allclose(fc.residuals, comp.residuals, atol=1e-10)

    def test_exponential_halving(self):
        surrogate = chebyshev_surrogate(np.exp, 14)
        assert surrogate.sup_error < 1e-12
        curve = functional_calculus_residual(X3, surrogate, [50, 100, 200])
        for N, ratio in curve.halving_ratios():
            assert 0.35 <= ratio <= 0.65

    def test_rejects_complex_symbol(self):
        f = sphere_symbol({(1, 0, 0): 1j})
        with pytest.raises(ValueError, match="real"):
            functional_calculus_residual(f, chebyshev_surrogate(np.exp, 5), [10])


class TestTrace:
    def test_constant_symbol_residuals(self):
        # dimension minus (N / 2 pi) * volume: exactly 1 on the sphere and
        # exactly 0 on the torus
        sphere_curve = trace_residual(sphere_symbol({(0, 0, 0): 1.0}), [20, 50])
        np.testing.assert_allclose(sphere_curve.residuals, [1.0, 1.0], atol=1e-9)
        torus_curve = trace_residual(torus_symbol({(0, 0): 1.0}), [20, 50])
        np.testing.assert_allclose(torus_curve.residuals, [0.0, 0.0], atol=1e-9)

    def test_height_symbol_vanishes(self):
        # both the trace and the integral vanish by antipodal symmetry
        curve = trace_residual(X3, [20, 50, 100])
        assert max(curve.residuals) < 1e-9

    def test_height_squared_uniformly_bounded(self):
        curve = trace_residual(sphere_symbol({(0, 0, 2): 1.0}), [50, 100, 200, 400])
        np.testing.assert_allclose(curve.residuals, 1.0 / 3.0, atol=1e-6)


class TestNormBound:
    def test_height_symbol_closed_form(self):
        rows = norm_bound_check(X3, [10, 50, 200])
        for N, norm, bound in rows:
            assert norm == pytest.approx(N / (N + 2.0), abs=1e-12)
            assert norm <= bound + 1e-8

    def test_crossed_cosines(self):
        rows = norm_bound_check(scottish_flag_symbol(), [4, 8, 50, 128, 500])
        for N, norm, bound in rows:
            assert bound == pytest.approx(np.sqrt(2.0), abs=1e-9)
            assert norm <= np.sqrt(2.0) + 1e-8

    def test_constant_norm_is_one(self):
        rows = norm_bound_check(sphere_symbol({(0, 0, 0): 1.0}), [15])
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
