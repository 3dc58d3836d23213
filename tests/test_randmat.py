from dataclasses import replace

import numpy as np
import pytest

from toeplab.geometry import scottish_flag_symbol, sphere_symbol
from toeplab.grushin import _small_subspaces, b_diagnostics
from toeplab.harness import ConfigError, preset_config
from toeplab.quantize import quantize_sphere, quantize_torus
from toeplab.randmat import (
    TAIL_BOUND_CONSTANT,
    NormBound,
    certify_norm_bound,
    derive_seed,
    fit_tail_slope,
    noise_window,
    operator_norm,
    sample_ginibre,
    smin_tail_experiment,
)


class TestGinibre:
    def test_determinism(self):
        a = sample_ginibre(64, 20260808)
        b = sample_ginibre(64, 20260808)
        assert np.array_equal(a, b)
        c = sample_ginibre(64, 20260809)
        assert not np.array_equal(a, c)

    def test_matches_reference_expression_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        u1, u2 = rng.random((40, 40)), rng.random((40, 40))
        reference = np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)
        got = sample_ginibre(40, 77)
        assert got.flags.f_contiguous                  # so LAPACK factors it in place
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 2, 3, 31, 32, 33, 97, 301])
    def test_row_blocks_keep_the_reference_bits(self, dim):
        # both uniform draws are taken in blocks of 32 rows, the second from a stream
        # advanced past the first, whatever dim^2 mod 4
        rng = np.random.Generator(np.random.Philox(key=dim))
        u1, u2 = rng.random((dim, dim)), rng.random((dim, dim))
        reference = np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)
        got = np.ascontiguousarray(sample_ginibre(dim, dim))
        assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))

    def test_holds_no_second_matrix(self):
        # the result and blocks of 32 rows (0.13 dim^2 at 601); a whole uniform draw is dim^2 / 2 entries
        import tracemalloc
        dim = 601
        sample_ginibre(dim, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_ginibre(dim, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 1.25 * dim * dim

    @pytest.mark.parametrize("dim", [1, 33, 97])
    def test_out_block_of_a_larger_fortran_buffer_takes_the_reference_bits(self, dim):
        # the Grushin task draws G into the top-left block of a bordered matrix
        buffer = np.full((dim + 5, dim + 5), 7.0 + 7.0j, order="F")
        got = sample_ginibre(dim, 11, out=buffer[:dim, :dim])
        assert np.shares_memory(got, buffer) and got.shape == (dim, dim)
        assert got.tobytes() == sample_ginibre(dim, 11).tobytes()
        assert np.all(buffer[dim:] == 7.0 + 7.0j) and np.all(buffer[:, dim:] == 7.0 + 7.0j)

    def test_out_of_another_shape_or_type_refused(self):
        for out in (np.empty((4, 5), dtype=complex), np.empty((5, 5))):
            with pytest.raises(ValueError, match="out must be"):
                sample_ginibre(5, 1, out=out)

    def test_moments_at_256(self):
        # entry law: mean 0, E|g|^2 = 1 (|g|^2 is Exp(1)); check within 3 SE
        g = sample_ginibre(256, 5)
        n = g.size
        assert abs(g.mean()) <= 3.0 / np.sqrt(n)  # complex mean, |.| bound
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) <= 3.0 / np.sqrt(n)
        # real and imaginary parts carry half the variance each
        assert np.var(g.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(g.imag) == pytest.approx(0.5, abs=0.02)

    def test_variance_at_1000(self):
        g = sample_ginibre(1000, 1)
        assert 0.99 <= np.mean(np.abs(g) ** 2) <= 1.01

    def test_norm_concentration(self):
        norms = [operator_norm(sample_ginibre(256, s)) / 16.0 for s in range(20)]
        assert 1.85 <= np.mean(norms) <= 2.15
        assert max(norms) <= 3.0

    def test_dim_precondition(self):
        with pytest.raises(ValueError):
            sample_ginibre(0, 1)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "cell", 100) == derive_seed(1, "cell", 100)
        assert derive_seed(1, "cell", 100) != derive_seed(2, "cell", 100)
        assert derive_seed(1, "cell", 100) != derive_seed(1, "cell", 200)

    def test_frozen_value(self):
        # cross-platform stability contract of the SHA-256 derivation
        assert derive_seed(0, "cell", 300) == 7407284075645938819


def _noise_config(delta, n_values, epsilon=0.25):
    return replace(preset_config("sphere-figure3"), n_values=n_values, delta=delta,
                   epsilon=epsilon, kappa_hat=0.9)


class TestDeltaWindow:
    def test_interval_example(self):
        lower, upper = noise_window(100, 0.25, 0.5)
        assert lower == pytest.approx(np.exp(-10.0))
        assert upper == pytest.approx(100 ** -0.75)
        assert lower < 0.01 < upper
        assert _noise_config({"preset": "weyl"}, [100]).noise_size(100) == 0.01

    def test_inverse_dimension_preset_accepted(self):
        sizes = [10, 100, 1000]
        for eps in (0.25, 0.3):
            cfg = _noise_config({"preset": "weyl"}, sizes, epsilon=eps)
            cfg.validate()
            for N in sizes:
                lower, upper = noise_window(N, eps, cfg.c_exponent)
                assert cfg.noise_size(N) == float(N) ** -1.0
                assert lower < cfg.noise_size(N) < upper

    def test_default_preset_accepted(self):
        sizes = [10, 100, 1000]
        for eps in (0.25, 0.3):
            cfg = _noise_config({"preset": "default"}, sizes, epsilon=eps)
            cfg.validate()
            for N in sizes:
                lower, upper = noise_window(N, eps, cfg.c_exponent)
                assert cfg.noise_size(N) == float(N) ** -(0.5 + 2 * eps)
                assert lower < cfg.noise_size(N) < upper

    def test_constant_delta_rejected(self):
        cfg = _noise_config({"power": 0.0}, [100])  # delta = 1
        assert cfg.noise_size(100) > noise_window(100, cfg.epsilon, cfg.c_exponent)[1]
        with pytest.raises(ConfigError, match="window"):
            cfg.validate()

    def test_window_invariant_over_range(self):
        for N in range(10, 500, 7):
            lower, upper = noise_window(N, 0.25, 0.5)
            assert lower == pytest.approx(np.exp(-N**0.5))
            assert upper == pytest.approx(N**-0.75)
            assert lower < 1.0 / N < upper


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        u *= 2.0 / np.linalg.norm(u)
        v *= 2.0 / np.linalg.norm(v)
        assert operator_norm(np.outer(u, v.conj())) == pytest.approx(4.0)


class TestNormCertificate:
    """The Cholesky-certified bound on ||G|| that the Grushin task's Neumann test uses."""

    def test_fails_just_below_the_norm_and_holds_just_above(self):
        G = sample_ginibre(200, 3)
        exact = operator_norm(G)
        assert certify_norm_bound(G, exact * (1.0 - 1e-9)) is None
        assert certify_norm_bound(G, exact * (1.0 + 1e-6)) is not None

    def test_large_rank_one_takes_the_svd_fallback(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=40) + 1j * rng.normal(size=40)
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        G = 100.0 * np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))
        norm = NormBound(G)                              # 2 sqrt(40) + 3 < 100
        assert norm.route == "svd-fallback"
        assert norm.bound == norm.exact() == operator_norm(G)
        assert norm.route == "svd-fallback"

    def test_rounding_shift_is_negligible_at_dim_1001(self):
        G = sample_ginibre(1001, derive_seed(0, "cell", 1000))
        c = 2.0 * np.sqrt(1001) + 3.0
        shift = certify_norm_bound(G, c)
        assert shift is not None and shift > 0.0
        assert shift <= 1e-6 * (c * c - operator_norm(G) ** 2)

    def test_holds_half_a_gram(self):
        # the upper trapezoid of the factor in block rows and one panel of scratch; a whole
        # Gram matrix (a dim^2 array) or a conjugated copy of G does not fit
        import tracemalloc
        dim = 300
        G = sample_ginibre(dim, derive_seed(0, "cell", dim - 1))
        c = 2.0 * np.sqrt(dim) + 3.0
        assert certify_norm_bound(G, c) is not None                     # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            certify_norm_bound(G, c)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 0.65 * dim * dim

    def test_nonfinite_noise_certifies_nothing(self):
        G = sample_ginibre(20, 1)
        G[3, 4] = np.nan
        assert certify_norm_bound(G, 1e6) is None

    def test_a_released_bound_computes_no_exact_norm(self):
        # whoever overwrites G releases it first; the exact norm of what is left would be wrong
        G = sample_ginibre(30, 2)
        norm = NormBound(G)
        norm.release()
        G[:] = 0.0
        with pytest.raises(RuntimeError, match="overwritten"):
            norm.exact()
        assert norm.route == "cholesky"
        kept = NormBound(sample_ginibre(30, 2))
        exact = kept.exact()
        kept.release()
        assert kept.exact() == exact == operator_norm(sample_ginibre(30, 2))

    def test_exact_norm_only_where_the_bound_cannot_decide(self):
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 79)
        G = sample_ginibre(T.dim, 8)
        z = 0.3 + 0.2j
        values, params, _, _, _ = _small_subspaces(T, z, 0.25)
        reach = 1.0 / values[params.n_small] + 1.0          # ||bulk inverse|| + ||injection||
        exact = operator_norm(G)
        bound = NormBound(G).bound
        assert exact < bound
        crossing = 2.0 / (reach * (exact + bound))           # bound >= threshold > exact
        for delta, route, flagged in ((0.5 / (reach * bound), "cholesky", False),
                                      (crossing, "svd-exact", False),
                                      (2.0 / (reach * exact), "svd-exact", True)):
            norm = NormBound(G)
            lazy = b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=norm)
            assert norm.route == route
            # the flags of the exact norm, from the Neumann inequality itself
            neumann = delta * exact * reach
            assert lazy.flags == ((f"Neumann invertibility condition violated ({neumann:.3g} >= 1): "
                                   "inverting anyway",) if neumann >= 1.0 else ())
            assert any("Neumann" in w for w in lazy.flags) == flagged


@pytest.fixture(scope="module")
def zero_matrix_tail():
    t_grid = np.concatenate([[0.0], np.logspace(-3, -1, 15)])
    return smin_tail_experiment(np.zeros((64, 64)), 1.0, t_grid, trials=500, seed=97)


class TestSminTail:
    def test_t_zero_probability_zero(self, zero_matrix_tail):
        assert zero_matrix_tail.p_hat[0] == 0.0

    def test_quadratic_slope(self, zero_matrix_tail):
        slope, bins = fit_tail_slope(zero_matrix_tail)
        assert bins >= 3
        assert 1.7 <= slope <= 2.3

    def test_slope_stable_across_seeds(self):
        t_grid = np.logspace(-3, -1, 15)
        slopes = []
        for seed in [0, 5, 11, 42, 123]:
            r = smin_tail_experiment(np.zeros((64, 64)), 1.0, t_grid, trials=500, seed=seed)
            slopes.append(fit_tail_slope(r)[0])
        assert 1.7 <= np.mean(slopes) <= 2.3

    def test_frozen_bound_constant(self, zero_matrix_tail):
        # bins below 5 successes are Poisson noise, not probability estimates
        mask = zero_matrix_tail.successes >= 5
        t = zero_matrix_tail.t_grid[mask]
        p = zero_matrix_tail.p_hat[mask]
        assert np.all(p <= TAIL_BOUND_CONSTANT * 64 * t**2)

    def test_structured_matrix_bound(self):
        # conservative constant-5 bound for a structured center matrix
        B = quantize_torus(scottish_flag_symbol(), 64).dense()
        t_grid = np.logspace(-3, -1, 10)
        res = smin_tail_experiment(B, 1e-3, t_grid, trials=200, seed=11)
        assert np.all(res.p_hat <= 5.0 * 64 * t_grid**2 + 1e-12)

    def test_determinism(self):
        t_grid = [0.01, 0.1]
        a = smin_tail_experiment(np.zeros((16, 16)), 1.0, t_grid, 100, seed=4)
        b = smin_tail_experiment(np.zeros((16, 16)), 1.0, t_grid, 100, seed=4)
        assert np.array_equal(a.successes, b.successes)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            smin_tail_experiment(np.zeros((4, 4)), 1.0, [0.1], trials=10, seed=0)
        with pytest.raises(ValueError):
            smin_tail_experiment(np.zeros((4, 4)), 1.0, [1.5], trials=100, seed=0)
