import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplab.geometry import (
    estimate_kappa,
    evaluate_symbol_grid,
    is_real_valued,
    liouville_quadrature,
    make_phase_space,
    polynomial_of_symbol,
    sample_points,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_product,
    symbol_sum,
    symbol_to_record,
    sup_abs,
    torus_symbol,
)

TORUS = make_phase_space("torus")
SPHERE = make_phase_space("sphere")


class TestPhaseSpace:
    def test_volumes_calibrated(self):
        assert TORUS.volume == pytest.approx(2 * np.pi)
        assert SPHERE.volume == pytest.approx(2 * np.pi)

    def test_complex_dimension(self):
        assert TORUS.complex_dimension == 1
        assert SPHERE.complex_dimension == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_phase_space("plane")


class TestQuadrature:
    @pytest.mark.parametrize("space", [TORUS, SPHERE])
    @pytest.mark.parametrize("resolution", [16, 64, 200])
    def test_weights_sum_to_volume(self, space, resolution):
        grid = liouville_quadrature(space, resolution)
        assert grid.weights.sum() == pytest.approx(space.volume, rel=1e-6)
        assert np.all(grid.weights > 0)

    def test_constant_integrates_to_volume(self):
        grid = liouville_quadrature(SPHERE, 40)
        f = sphere_symbol({(0, 0, 0): 1.0})
        vals = evaluate_symbol_grid(f, grid.points)
        assert np.dot(grid.weights, vals).real == pytest.approx(SPHERE.volume, rel=1e-12)

    def test_sphere_odd_moment_vanishes(self):
        grid = liouville_quadrature(SPHERE, SPHERE.quadrature_default)
        x3 = grid.points[:, 2]
        assert abs(np.dot(grid.weights, x3)) < 1e-8

    # closed-form moments of the uniform sphere: for even exponents the
    # normalized moment is (a-1)!!(b-1)!!(c-1)!!/(a+b+c+1)!!, odd ones vanish
    @pytest.mark.parametrize("exps,expected", [
        ((0, 0, 2), 1.0 / 3.0),
        ((0, 0, 4), 1.0 / 5.0),
        ((0, 0, 6), 1.0 / 7.0),
        ((2, 2, 0), 1.0 / 15.0),
        ((6, 0, 0), 1.0 / 7.0),
        ((2, 2, 2), 1.0 / 105.0),
        ((4, 2, 0), 1.0 / 35.0),
        ((1, 0, 0), 0.0),
        ((2, 1, 2), 0.0),
    ])
    def test_sphere_polynomial_moments(self, exps, expected):
        grid = liouville_quadrature(SPHERE, 32)
        vals = np.prod(grid.points ** np.asarray(exps)[None, :], axis=1)
        moment = np.dot(grid.weights, vals) / SPHERE.volume
        if expected == 0.0:
            assert abs(moment) < 1e-10
        else:
            assert moment == pytest.approx(expected, rel=1e-6)

    def test_torus_fourier_orthogonality(self):
        grid = liouville_quadrature(TORUS, 32)
        for m, n in [(1, 0), (0, 3), (2, -5)]:
            vals = np.exp(2j * np.pi * (m * grid.points[:, 0] + n * grid.points[:, 1]))
            assert abs(np.dot(grid.weights, vals)) < 1e-10
        ones = np.ones(grid.points.shape[0])
        assert np.dot(grid.weights, ones) == pytest.approx(TORUS.volume)

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            liouville_quadrature(TORUS, 1)


class TestEvaluation:
    def test_constant(self):
        f = torus_symbol({(0, 0): 1.0})
        assert evaluate_symbol_grid(f, [(0.37, 0.91)])[0] == pytest.approx(1.0)

    def test_crossed_cosines_at_origin(self):
        f = scottish_flag_symbol()
        assert evaluate_symbol_grid(f, [(0.0, 0.0)])[0] == pytest.approx(1.0 + 1.0j)

    def test_x3_north_pole(self):
        f = sphere_symbol({(0, 0, 1): 1.0})
        assert evaluate_symbol_grid(f, [(0.0, 0.0, 1.0)])[0] == pytest.approx(1.0)

    def test_off_manifold_rejected(self):
        f = sphere_symbol({(0, 0, 1): 1.0})
        on = sample_points(SPHERE, 16, seed=3)
        assert evaluate_symbol_grid(f, on).shape == (16,)
        with pytest.raises(ValueError, match="off the unit sphere"):
            evaluate_symbol_grid(f, np.vstack([on, [(0.0, 0.0, 1.0 + 1e-6)]]))

    @pytest.mark.parametrize("f, other, message", [
        (scottish_flag_symbol(), SPHERE, r"a torus symbol takes \(n, 2\) points, got shape \(8, 3\)"),
        (sphere_symbol({(0, 0, 1): 1.0}), TORUS, r"a sphere symbol takes \(n, 3\) points, got shape \(8, 2\)"),
    ], ids=["torus-symbol", "sphere-symbol"])
    def test_points_of_the_other_space_rejected(self, f, other, message):
        with pytest.raises(ValueError, match=message):
            evaluate_symbol_grid(f, liouville_quadrature(other, 4).points[:8])

    def test_principal_is_n_independent(self):
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        p = sample_points(SPHERE, 16, seed=3)
        assert np.array_equal(evaluate_symbol_grid(f, p, N=5), evaluate_symbol_grid(f, p, N=500))

    def test_corrections_scale_with_n(self):
        f = sphere_symbol({(0, 0, 1): 1.0}, corrections=((1, {(0, 0, 0): 2.0}),))
        p = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        np.testing.assert_allclose(evaluate_symbol_grid(f, p, N=10), [1.0 + 0.2, -1.0 + 0.2])
        np.testing.assert_allclose(evaluate_symbol_grid(f, p, N=100), [1.0 + 0.02, -1.0 + 0.02])
        np.testing.assert_allclose(evaluate_symbol_grid(f, p), [1.0, -1.0])   # principal only

    def test_is_real_valued(self):
        assert is_real_valued(sphere_symbol({(0, 0, 1): 1.0}))
        assert is_real_valued(torus_symbol({(1, 0): 0.5, (-1, 0): 0.5}))
        assert not is_real_valued(scottish_flag_symbol())
        assert not is_real_valued(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}))

    def test_sup_abs(self):
        assert sup_abs(scottish_flag_symbol()) == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert sup_abs(sphere_symbol({(0, 0, 1): 1.0})) == pytest.approx(1.0, abs=1e-3)


class TestSymbolAlgebra:
    def _random_symbol(self, kind, rng, nterms=3, maxdeg=2):
        terms = {}
        for _ in range(nterms):
            if kind == "torus":
                e = (rng.integers(-maxdeg, maxdeg + 1), rng.integers(-maxdeg, maxdeg + 1))
            else:
                e = tuple(rng.integers(0, maxdeg + 1, 3))
            terms[e] = complex(rng.normal(), rng.normal())
        return torus_symbol(terms) if kind == "torus" else sphere_symbol(terms)

    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_product_matches_pointwise(self, kind):
        rng = np.random.default_rng(11)
        space = make_phase_space(kind)
        f = self._random_symbol(kind, rng)
        g = self._random_symbol(kind, rng)
        pts = sample_points(space, 32, seed=4)
        lhs = evaluate_symbol_grid(symbol_product(f, g), pts)
        rhs = evaluate_symbol_grid(f, pts) * evaluate_symbol_grid(g, pts)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_sum_matches_pointwise(self, kind):
        rng = np.random.default_rng(12)
        space = make_phase_space(kind)
        f = self._random_symbol(kind, rng)
        g = self._random_symbol(kind, rng)
        pts = sample_points(space, 32, seed=5)
        lhs = evaluate_symbol_grid(symbol_sum(f, g, 2.0, -0.5j), pts)
        rhs = 2.0 * evaluate_symbol_grid(f, pts) - 0.5j * evaluate_symbol_grid(g, pts)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_polynomial_of_symbol(self):
        f = sphere_symbol({(0, 0, 1): 1.0})
        # p(s) = 1 - 2 s + s^2 evaluated on the symbol
        p = polynomial_of_symbol([1.0, -2.0, 1.0], f)
        pts = sample_points(SPHERE, 16, seed=6)
        x3 = pts[:, 2]
        np.testing.assert_allclose(evaluate_symbol_grid(p, pts), (1.0 - x3) ** 2, atol=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            symbol_product(scottish_flag_symbol(), sphere_symbol({(0, 0, 1): 1.0}))


class TestKappa:
    def test_height_function_half(self):
        # push-forward of the uniform sphere by x3 is uniform on [-1, 1], so
        # the sublevel mass is sqrt(t) and the exponent is 1/2
        f = sphere_symbol({(0, 0, 1): 1.0})
        est = estimate_kappa(f, [0.0], 200_000, np.logspace(-3, -1, 8), seed=2)
        assert est.kappa == pytest.approx(0.5, abs=0.1)

    def test_interior_probe_slope_one(self):
        # planar push-forward density is bounded near interior points
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        est = estimate_kappa(f, [0.3j], 400_000, np.logspace(-3, -1, 8), seed=2)
        (z, slope, rms, bins) = est.fit_diagnostics[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_constant_symbol_probes_skipped(self):
        f = sphere_symbol({(0, 0, 0): 2.0})
        with pytest.raises(ValueError, match="degenerate"):
            estimate_kappa(f, [3.0, 1j], 10_000, np.logspace(-3, -1, 5), seed=0)

    def test_far_probe_skipped_but_reported(self):
        f = sphere_symbol({(0, 0, 1): 1.0})
        est = estimate_kappa(f, [0.0, 100.0], 10_000, np.logspace(-3, -1, 5), seed=0)
        assert 100.0 + 0j in est.skipped

    @pytest.mark.parametrize("f", [
        scottish_flag_symbol(),
        sphere_symbol({(0, 0, 1): 1.0}),
        sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}),
        sphere_symbol({(1, 0, 0): 1.0, (2, 0, 0): 2.0, (0, 1, 0): 1j}),
    ])
    def test_kappa_in_unit_interval(self, f):
        space = make_phase_space(f.kind)
        grid = liouville_quadrature(space, 32)
        vals = evaluate_symbol_grid(f.principal(), grid.points)
        probes = [complex(np.mean(vals.real), np.mean(vals.imag)), complex(vals[17])]
        est = estimate_kappa(f, probes, 50_000, np.logspace(-3, -1, 6), seed=9)
        assert 0.0 < est.kappa <= 1.0

    def test_sample_count_precondition(self):
        f = sphere_symbol({(0, 0, 1): 1.0})
        with pytest.raises(ValueError):
            estimate_kappa(f, [0.0], 100, np.logspace(-3, -1, 5))


class TestSampling:
    def test_sphere_samples_on_manifold(self):
        pts = sample_points(SPHERE, 1000, seed=1)
        np.testing.assert_allclose(np.sum(pts**2, axis=1), 1.0, atol=1e-12)

    def test_torus_samples_in_unit_square(self):
        pts = sample_points(TORUS, 1000, seed=1)
        assert np.all((pts >= 0.0) & (pts < 1.0))


class TestSerialization:
    def test_round_trip_flag(self):
        f = scottish_flag_symbol()
        g = symbol_from_record(symbol_to_record(f))
        assert g.kind == f.kind and g.terms == f.terms and g.corrections == f.corrections

    def test_round_trip_with_corrections(self):
        f = sphere_symbol({(1, 0, 2): 0.25 - 3j}, corrections=((2, {(0, 0, 1): 1.5}),))
        g = symbol_from_record(symbol_to_record(f))
        assert g == f

    coeff = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                               allow_nan=False, allow_infinity=False)

    @given(st.dictionaries(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)), coeff, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_torus(self, terms):
        f = torus_symbol(terms)
        assert symbol_from_record(symbol_to_record(f)) == f

    def test_bad_records(self):
        with pytest.raises(ValueError):
            symbol_from_record("")
        with pytest.raises(ValueError):
            symbol_from_record("plane\n0 1 0 1.0 0.0\n")
        with pytest.raises(ValueError):
            symbol_from_record("torus\n0 1 1.0 0.0\n")  # missing exponent
