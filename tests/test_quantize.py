import numpy as np
import pytest

from toeplab.geometry import (
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_sum,
    torus_symbol,
)
from toeplab.quantize import (
    bergman_dimension,
    quantize_sphere,
    quantize_symbol,
    quantize_torus,
    sphere_entries_quadrature,
)
from toeplab.randmat import operator_norm

TORUS = make_phase_space("torus")
SPHERE = make_phase_space("sphere")


def crossed_cosines_matrix(N):
    """The expected quantization of cos(2 pi x) + i cos(2 pi xi): cosine clock
    diagonal, i/2 on the first off-diagonals and in the corners."""
    M = np.diag(np.cos(2 * np.pi * np.arange(1, N + 1) / N)).astype(complex)
    idx = np.arange(N - 1)
    M[idx, idx + 1] = 0.5j
    M[idx + 1, idx] = 0.5j
    M[0, N - 1] = 0.5j
    M[N - 1, 0] = 0.5j
    return M


class TestDimension:
    def test_sphere_counts_monomials(self):
        # oracle: the number of monomial sections z^k, k = 0..N
        for N in [1, 10, 137]:
            assert bergman_dimension(SPHERE, N) == len(range(N + 1))

    def test_torus_matches_matrix_size(self):
        assert bergman_dimension(TORUS, 50) == 50
        assert quantize_torus(scottish_flag_symbol(), 50).dense().shape == (50, 50)

    @pytest.mark.parametrize("space", [TORUS, SPHERE])
    def test_calibration(self, space):
        # the sphere deviation is exactly 1; allow float roundoff only
        for N in range(10, 401):
            dim = bergman_dimension(space, N)
            assert abs(dim - (N / (2 * np.pi)) * space.volume) <= 1.0 + 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            bergman_dimension(TORUS, 0)


class TestTorus:
    @pytest.mark.parametrize("N", [8, 50])
    def test_crossed_cosines_matrix(self, N):
        T = quantize_torus(scottish_flag_symbol(), N)
        np.testing.assert_allclose(T.dense(), crossed_cosines_matrix(N), atol=1e-12)

    def test_constant_is_identity(self):
        T = quantize_torus(torus_symbol({(0, 0): 1.0}), 12)
        np.testing.assert_array_equal(T.dense(), np.eye(12))

    def test_single_mode_is_clock(self):
        # oracle: splitting the cosine case into exponentials, the (1, 0)
        # mode must be the clock diagonal
        N = 16
        T = quantize_torus(torus_symbol({(1, 0): 1.0}), N)
        np.testing.assert_allclose(
            T.dense(), np.diag(np.exp(2j * np.pi * np.arange(1, N + 1) / N)), atol=1e-14)

    def test_mode_too_large_names_offender(self):
        f = torus_symbol({(1, 0): 1.0, (0, 7): 2.0})
        with pytest.raises(ValueError, match=r"\(0, 7\)"):
            quantize_torus(f, 14)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            quantize_torus(sphere_symbol({(0, 0, 1): 1.0}), 10)

    def test_correction_scales(self):
        f = torus_symbol({(0, 0): 1.0}, corrections=((1, {(1, 0): 1.0}),))
        N = 10
        T = quantize_torus(f, N)
        clock = np.diag(np.exp(2j * np.pi * np.arange(1, N + 1) / N))
        np.testing.assert_allclose(T.dense(), np.eye(N) + clock / N, atol=1e-15)


class TestSphere:
    def test_height_symbol_diagonal(self):
        N = 10
        T = quantize_sphere(sphere_symbol({(0, 0, 1): 1.0}), N)
        k = np.arange(N + 1)
        np.testing.assert_allclose(T.dense(), np.diag((N - 2 * k) / (N + 2)), atol=1e-14)

    def test_constant_is_identity(self):
        T = quantize_sphere(sphere_symbol({(0, 0, 0): 1.0}), 7)
        np.testing.assert_allclose(T.dense(), np.eye(8), atol=1e-15)

    def test_x1_small_case(self):
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1.0}), 2)
        assert T.dense()[0, 1] == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-14)
        assert T.dense()[2, 0] == pytest.approx(0.0, abs=1e-15)

    def test_degree_overflow(self):
        with pytest.raises(ValueError, match="degree"):
            quantize_sphere(sphere_symbol({(3, 3, 0): 1.0}), 10)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            quantize_sphere(scottish_flag_symbol(), 10)

    @pytest.mark.parametrize("terms,N", [
        ({(1, 0, 0): 1.0}, 8),
        ({(0, 0, 2): 1.0}, 31),
        ({(1, 1, 1): 1.0}, 24),
        ({(2, 2, 0): 1.0}, 60),
        ({(1, 0, 0): 1.0, (2, 0, 0): 2.0, (0, 1, 0): 1j}, 40),
    ])
    def test_closed_form_matches_quadrature(self, terms, N):
        f = sphere_symbol(terms)
        closed = quantize_sphere(f, N).dense()
        quad = sphere_entries_quadrature(f, N)
        assert np.max(np.abs(closed - quad)) < 1e-8


def _mp_entry_errors(N: int, monomials) -> dict:
    """Each monomial's worst entry error against 50-digit ``mpmath.beta`` ratios.

    An entry ``T[l, k]`` of ``x1^a x2^b x3^c`` is ``sum c_pq B(k+p+1, N+deg+1-k-p)
    / sqrt(B(k+1, N+1-k) B(l+1, N+1-l))`` over its terms ``z^p zbar^q`` with
    ``p - q = l - k``.  The error is taken relative to ``sum |c_pq| B(...)/sqrt(...)``,
    so that terms which cancel (x3's diagonal) are judged by their own size.
    """
    import mpmath

    from toeplab.quantize import _monomial_zq
    errors = {}
    with mpmath.workdps(50):
        norm = [mpmath.sqrt(mpmath.beta(j + 1, N + 1 - j)) for j in range(N + 1)]
        tables = {}
        for abc in monomials:
            M = N + sum(abc)
            if M not in tables:
                tables[M] = [mpmath.beta(j + 1, M + 1 - j) for j in range(M + 1)]
            T = quantize_sphere(sphere_symbol({abc: 1.0}), N).dense()
            exact, size = {}, {}
            for (p, q), c in _monomial_zq(*abc).items():
                for k in range(max(0, q - p), min(N + 1, N + 1 + q - p)):
                    ratio = tables[M][k + p] / (norm[k] * norm[k + p - q])
                    exact[k + p - q, k] = exact.get((k + p - q, k), 0) + mpmath.mpc(c.real, c.imag) * ratio
                    size[k + p - q, k] = size.get((k + p - q, k), 0) + abs(c) * ratio
            errors[abc] = max(float(abs(mpmath.mpc(T[at].real, T[at].imag) - exact[at]) / size[at])
                              for at in exact)
    return errors


class TestEntriesAgainstMpmath:
    """Every entry is a ratio of integer products (``_beta_ratios``); against 50 digits it
    measured at most 1.8e-16 at degree 1 and 7.5e-16 at degree 8, at N = 300 and 2000: under
    one rounding per degree.  The bound is 4 roundings per degree."""

    @pytest.mark.parametrize("N", [300, 2000])
    def test_entries_exact_to_rounding(self, N):
        degree_one, degree_eight = [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 4, 2)
        for abc, err in _mp_entry_errors(N, degree_one + [degree_eight]).items():
            assert err <= 4 * sum(abc) * np.finfo(float).eps, (abc, err)


def _dense_torus(f, N):
    """The dense torus builder that the diagonal storage replaced, kept as its oracle."""
    T = np.zeros((N, N), dtype=complex)
    diag = np.exp(2j * np.pi * np.arange(1, N + 1) / N)
    cols = np.arange(N)
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (m, n), c in terms.items():
            rows = (cols + n) % N
            T[rows, cols] += scale * c * np.exp(-1j * np.pi * m * n / N) * diag[rows]**m
    return T


def _dense_sphere(f, N):
    """The dense sphere builder that the diagonal storage replaced, kept as its oracle."""
    from toeplab.quantize import _beta_ratios, _monomial_zq
    dim = N + 1
    T = np.zeros((dim, dim), dtype=complex)
    for order, terms in [(0, f.terms)] + list(f.corrections):
        scale = float(N) ** (-order)
        for (a, b, c), coeff in terms.items():
            for (p, q), cpq in _monomial_zq(a, b, c).items():
                kk = np.arange(max(0, q - p), min(dim, dim + q - p))
                T[kk + p - q, kk] += scale * coeff * cpq * _beta_ratios(kk, p, q, N, a + b + c)
    return T


# mixed modes sharing shifts, with two correction orders; largest mode 3, so N = 7 is the limit
MIXED_TORUS = torus_symbol({(1, 2): 0.3 - 0.1j, (-2, 1): 0.7, (0, 3): 1j, (2, -3): -0.4, (0, 0): 2.0},
                           corrections=((1, {(1, 1): 0.5, (-3, 0): 0.2j, (0, 2): 0.25}),
                                        (2, {(0, 0): 1.0, (1, 2): 0.1})))
# degree 3 with a correction, so N = 6 is the limit; i x1 + x2 cancels its superdiagonal exactly
MIXED_SPHERE = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0, (1, 1, 1): 0.3, (0, 0, 2): -0.5},
                             corrections=((1, {(2, 0, 0): 0.1j, (0, 0, 1): 1.0}),))


class TestDiagonalStorage:
    """``dense()`` of the stored diagonals against the dense builders, bit for bit."""

    @pytest.mark.parametrize("f, N", [
        (MIXED_TORUS, 7), (MIXED_TORUS, 8), (MIXED_TORUS, 40), (MIXED_TORUS, 41),
        (scottish_flag_symbol(), 3), (scottish_flag_symbol(), 50),
        (MIXED_SPHERE, 6), (MIXED_SPHERE, 7), (MIXED_SPHERE, 40), (MIXED_SPHERE, 41),
        (sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 2),
        (sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 51),
    ], ids=["torus-7-limit", "torus-8", "torus-40", "torus-41", "flag-3-limit", "flag-50",
            "sphere-6-limit", "sphere-7", "sphere-40", "sphere-41", "projection-2-limit",
            "projection-51"])
    def test_dense_matches_the_dense_builder(self, f, N):
        T = quantize_symbol(f, N)
        expected = (_dense_torus if f.kind == "torus" else _dense_sphere)(f, N)
        dense = T.dense()
        assert dense.dtype == expected.dtype and dense.shape == expected.shape
        assert dense.flags.c_contiguous and dense.tobytes() == expected.tobytes()
        # the band holds exactly the nonzero entries, at their positions in its order
        rows, cols = np.nonzero(expected)
        band = T.band
        assert np.all(band.values != 0)
        position = np.arange(T.dim) if band.perm is None else np.argsort(band.perm)
        assert sorted(zip(band.rows.tolist(), band.cols.tolist(), band.values.tolist())) == sorted(
            zip(position[rows].tolist(), position[cols].tolist(), expected[rows, cols].tolist()))
        at = band.positions()             # the same entries at their rows and columns in T
        assert expected[at].tobytes() == band.values.tobytes()
        assert sorted(zip(*(a.tolist() for a in at))) == sorted(zip(rows.tolist(), cols.tolist()))

    def test_add_to_adds_only_the_stored_entries(self):
        T = quantize_symbol(MIXED_TORUS, 9)
        out = np.full((9, 9), 0.5 - 0.25j)
        assert T.add_to(out) is out
        assert out.tobytes() == (np.full((9, 9), 0.5 - 0.25j) + T.dense()).tobytes()


class TestInvariants:
    real_symbols = [
        sphere_symbol({(0, 0, 1): 1.0}),
        sphere_symbol({(1, 0, 0): 0.5, (0, 0, 2): 1.0}),
        torus_symbol({(1, 0): 0.5, (-1, 0): 0.5}),
        torus_symbol({(1, 1): 0.5 - 0.25j, (-1, -1): 0.5 + 0.25j}),
    ]
    complex_symbols = [
        scottish_flag_symbol(),
        sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}),
        torus_symbol({(1, 0): 1.0}),
    ]

    @pytest.mark.parametrize("f", real_symbols)
    def test_real_symbols_hermitian(self, f):
        T = quantize_symbol(f, 20).dense()
        assert np.max(np.abs(T - T.conj().T)) < 1e-12

    @pytest.mark.parametrize("f", complex_symbols)
    def test_complex_symbols_not_hermitian(self, f):
        T = quantize_symbol(f, 20).dense()
        assert np.max(np.abs(T - T.conj().T)) > 1e-6

    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_linearity_exact(self, kind):
        # dyadic scalars make the scaled builder arithmetic exact bit for bit
        if kind == "torus":
            f = torus_symbol({(1, 0): 1.0, (0, 2): 0.25j})
            g = torus_symbol({(2, 1): 0.5, (0, 0): 1.0})
        else:
            f = sphere_symbol({(1, 0, 0): 1.0, (0, 0, 2): 0.25j})
            g = sphere_symbol({(0, 1, 1): 0.5, (0, 0, 0): 1.0})
        a, b = 2.0, -0.5
        lhs = quantize_symbol(symbol_sum(f, g, a, b), 16).dense()
        rhs = a * quantize_symbol(f, 16).dense() + b * quantize_symbol(g, 16).dense()
        np.testing.assert_array_equal(lhs, rhs)

    @pytest.mark.parametrize("f,space", [
        (sphere_symbol({(0, 0, 1): 1.0}), SPHERE),
        (sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), SPHERE),
        (sphere_symbol({(1, 0, 0): 1.0, (0, 0, 2): 2.0}), SPHERE),
        (scottish_flag_symbol(), TORUS),
    ])
    def test_norm_bound(self, f, space):
        from toeplab.geometry import sup_abs
        assert f.space == space
        bound = sup_abs(f)
        for N in [4, 16, 64, 256, 500]:
            assert operator_norm(quantize_symbol(f, N).dense()) <= bound + 1e-8

    @pytest.mark.parametrize("kind,N", [("torus", 15), ("sphere", 15)])
    def test_trace_of_identity(self, kind, N):
        f = torus_symbol({(0, 0): 1.0}) if kind == "torus" else sphere_symbol({(0, 0, 0): 1.0})
        T = quantize_symbol(f, N)
        assert np.trace(T.dense()) == T.dim

