import numpy as np
import pytest

import toeplab._lapack as _lapack
from toeplab.geometry import (
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_image,
)
from toeplab.potential import (
    LOGDET_CHECK_BOUND,
    PROBE_EXCLUSION_RADIUS,
    default_probe_grid,
    hessenberg_log_abs_dets,
    limit_potential_many,
    log_abs_det,
    log_abs_sums,
    potential_from_spectrum,
)
from toeplab.quantize import quantize_sphere, quantize_symbol
from toeplab.randmat import sample_ginibre

SPHERE = make_phase_space("sphere")
X3 = sphere_symbol({(0, 0, 1): 1.0})


def slogdet_route(M, probes):
    """The per-probe LU oracle: log|det(M - z)| / dim by slogdet."""
    dim = M.shape[0]
    return np.array([log_abs_det(M - z * np.eye(dim)) / dim for z in probes])


def probe_grid(f, nx, ny):
    """The ``nx`` x ``ny`` probe grid over the box of ``f0`` on the resolution-200 grid, a run's default."""
    return default_probe_grid(symbol_image(f, 200), nx, ny)


def spectrum(M):
    """The eigenvalues and Hessenberg rows of M, as a run's spectrum task takes them."""
    return _lapack.hessenberg_eigvals(np.array(M, dtype=complex, order="F"))


class TestLogAbsDet:
    def test_identity(self):
        assert log_abs_det(np.eye(6)) == 0.0

    def test_reciprocal_pair(self):
        assert log_abs_det(np.diag([2.0, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_zero_row_is_minus_infinity(self):
        M = np.eye(4)
        M[2] = 0.0
        assert log_abs_det(M) == -np.inf


class TestPotentialFromSpectrum:
    # the unperturbed torus cell is the most non-normal of the three and was
    # measured at 3.5e-12; perturbed cells agree to ~4e-15
    ROUTE_TOL = 1e-10

    @pytest.mark.parametrize("f, N, delta", [
        (sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 60, 1.0 / 60),
        (scottish_flag_symbol(), 60, 1.0 / 60),
        (scottish_flag_symbol(), 50, 0.0),
    ], ids=["sphere-perturbed", "torus-perturbed", "torus-unperturbed"])
    def test_matches_slogdet(self, f, N, delta):
        T = quantize_symbol(f, N)
        M = T.dense() + delta * sample_ginibre(T.dim, 3)
        probes = probe_grid(f, 12, 12)
        lam, rows = spectrum(M)
        values, kept, health = potential_from_spectrum(rows, lam, probes)
        assert kept.all() and health["probes_dropped"] == 0
        assert not health["logdet_fallback"]
        assert health["logdet_check_residual"] <= self.ROUTE_TOL
        np.testing.assert_allclose(values, slogdet_route(M, probes), rtol=0, atol=self.ROUTE_TOL)

    def test_values_are_the_log_sums_and_only_the_checks_are_swept(self, monkeypatch):
        # the Hessenberg form is swept at the three check probes alone; a run's Grushin
        # probes read route one off the same eigenvalues, by the same log-sum
        import toeplab.potential as potential
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        M = quantize_symbol(f, 60).dense() + sample_ginibre(61, 3) / 60
        lam, rows = spectrum(M)
        probes = probe_grid(f, 4, 4)
        swept = []
        real = potential.hessenberg_log_abs_dets

        def counting(rows, zs):
            swept.append(list(zs))
            return real(rows, zs)

        monkeypatch.setattr(potential, "hessenberg_log_abs_dets", counting)
        values, _, health = potential_from_spectrum(rows, lam, probes)
        assert swept == [[probes[0], probes[8], probes[15]]] and not health["logdet_fallback"]
        assert values.tolist() == (log_abs_sums(lam, probes) / 61).tolist()

    def test_nonnormal_shift_falls_back_to_slogdet(self):
        # a 60 x 60 nilpotent shift closed by a 1e-100 corner: the eigenvalues
        # are 1e-100^(1/60) ~ 0.02 times the roots of unity, but rounding
        # scatters the computed ones to radius ~0.2, so inside that ring the
        # eigenvalue route is wrong while LU of the bidiagonal shift is exact
        n, corner = 60, 1e-100
        M = np.diag(np.ones(n - 1), 1).astype(complex)
        M[n - 1, 0] = corner
        probes = np.array([0.1, 0.01 + 0.005j, -0.03j])
        lam, rows = spectrum(M)
        exact = np.log(np.abs(probes**n - corner)) / n  # det(z - M) = z^n - corner
        eig_route = np.array([np.mean(np.log(np.abs(lam - z))) for z in probes])
        assert np.max(np.abs(eig_route - exact)) > 0.1
        values, kept, health = potential_from_spectrum(rows, lam, probes)
        assert kept.all()
        assert health["logdet_fallback"]
        assert health["logdet_check_residual"] > LOGDET_CHECK_BOUND
        np.testing.assert_allclose(values, slogdet_route(M, probes), rtol=0, atol=1e-14)
        np.testing.assert_allclose(values, exact, rtol=0, atol=1e-12)

    def test_kept_mask_matches_per_probe_rule(self):
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 40)
        M = T.dense() + sample_ginibre(41, 5) / 40
        lam, rows = spectrum(M)
        probes = np.concatenate([
            [lam[0], lam[1] + 0.5e-4, lam[2] + 1e-4j, lam[3] - 2e-4, lam[4] + 0.99e-4j],
            probe_grid(T.symbol, 6, 6),
        ])
        _, kept, health = potential_from_spectrum(rows, lam, probes)
        expected = [not (np.min(np.abs(lam - z)) < PROBE_EXCLUSION_RADIUS) for z in probes]
        assert kept.tolist() == expected
        assert health["probes_dropped"] == expected.count(False) >= 3


class TestLogAbsSums:
    """``sum log|lambda - z|`` of a spectrum against :func:`log_abs_det` of ``M - z``, its oracle."""

    def test_matches_the_dense_lu_on_a_perturbed_cell(self):
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        M = quantize_symbol(f, 60).dense() + sample_ginibre(61, 3) / 60
        lam, _ = spectrum(M)
        points = [0.3 + 0.2j, -0.5j, 0.6, 0.0, 0.9 - 0.1j]
        np.testing.assert_allclose(log_abs_sums(lam, points) / 61, slogdet_route(M, points),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dim", [51, 301, 2001])
    def test_each_point_is_its_one_dimensional_sum(self, dim):
        # a row sum per point: the bits of the plain per-point sum, whatever the other points
        rng = np.random.default_rng(dim)
        lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        points = [0.3 + 0.2j, -1.5j, 2.0]
        alone = [np.sum(np.log(np.abs(lam - z))) for z in points]
        assert log_abs_sums(lam, points).tolist() == alone == [log_abs_sums(lam, [z])[0] for z in points]
        assert log_abs_sums(lam, []).shape == (0,)

    def test_an_eigenvalue_gives_minus_infinity(self):
        assert log_abs_sums(np.array([1.0, 2.0j]), [2.0j, 0.0]).tolist() == [-np.inf, np.log(2.0)]


class TestHessenbergLogAbsDets:
    """The O(dim^2) LU of ``H - z`` against :func:`log_abs_det` of ``M - z``, its oracle."""

    # the unperturbed torus matrix is the non-normal one: 4.2e-14 measured there
    @pytest.mark.parametrize("f, N, delta, tol", [
        (sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 120, 1.0 / 120, 1e-14),
        (scottish_flag_symbol(), 120, 1.0 / 120, 1e-14),
        (scottish_flag_symbol(), 50, 0.0, 1e-12),
    ], ids=["sphere-perturbed", "torus-perturbed", "torus-unperturbed"])
    def test_matches_the_dense_lu(self, f, N, delta, tol):
        T = quantize_symbol(f, N)
        M = T.dense() + delta * sample_ginibre(T.dim, 8)
        # not z = 0, where the unperturbed torus matrix has condition number 1e16
        probes = np.concatenate([probe_grid(f, 4, 4), [0.3 + 0.2j]])
        _, rows = spectrum(M)
        got = hessenberg_log_abs_dets(rows, probes) / T.dim
        np.testing.assert_allclose(got, slogdet_route(M, probes), rtol=0, atol=tol)

    def test_each_probe_as_if_alone(self):
        # one factorization for all probes, with its own pivots per probe
        M = sample_ginibre(60, 4)
        _, rows = spectrum(M)
        probes = np.array([0.5, -1.0 + 2.0j, 3.0j, 0.0])
        together = hessenberg_log_abs_dets(rows, probes)
        alone = [hessenberg_log_abs_dets(rows, [z])[0] for z in probes]
        assert together.tolist() == alone
        assert hessenberg_log_abs_dets(rows, []).shape == (0,)

    def test_exact_eigenvalue_gives_minus_infinity(self):
        _, rows = spectrum(np.diag([1.0, 2.0, 3.0]) + np.diag([1.0, 1.0], 1))
        got = hessenberg_log_abs_dets(rows, [2.0, 0.0, 5.0])
        assert got[0] == -np.inf
        np.testing.assert_allclose(got[1:], [np.log(6.0), np.log(24.0)], rtol=1e-15)


class TestLimitPotential:
    def test_height_symbol_outside(self):
        # push-forward of x3 is uniform on [-1, 1]; closed form at z = 2 is
        # (1/2) * integral_1^3 log(u) du = (3 log 3 - 2) / 2
        val = limit_potential_many(symbol_image(X3, 200), [2.0])[0]
        assert val == pytest.approx((3 * np.log(3.0) - 2.0) / 2.0, abs=1e-9)

    def test_constant_symbol(self):
        f = sphere_symbol({(0, 0, 0): 0.5j})
        z = 1.0 + 1.0j
        assert limit_potential_many(symbol_image(f, 200), [z])[0] == pytest.approx(
            np.log(abs(z - 0.5j)), abs=1e-12)

    def test_height_symbol_at_zero(self):
        # integrable log singularity at an interior point of the range:
        # closed form integral_0^1 log(s) ds = -1; nodes avoid the singular
        # point so accuracy is quadrature-limited, not infinite
        val = limit_potential_many(symbol_image(X3, 200), [0.0])[0]
        assert val == pytest.approx(-1.0, abs=1e-2)
        hi = limit_potential_many(symbol_image(X3, 2000), [0.0])[0]
        assert abs(hi - (-1.0)) < abs(val - (-1.0))

    def test_probe_on_node_image_refines(self):
        # z exactly at a Gauss node's image would hit log(0) without the
        # refinement path, which takes the image's own resolution plus one,
        # not the space's default
        image = symbol_image(X3, 50)
        z = image.values[17]
        val = limit_potential_many(image, [z])[0]
        refined = symbol_image(X3, 51)
        assert np.isfinite(val)
        assert val == np.dot(refined.weights, np.log(np.abs(z - refined.values))) / SPHERE.volume

    def test_node_hit_among_ordinary_probes(self):
        # only the probe on a node image is refined; its neighbours keep the
        # plain quadrature against the given image, bit for bit
        image = symbol_image(X3, 50)
        probes = [2.0 + 0.5j, image.values[17], -0.3 + 0.7j]
        u = limit_potential_many(image, probes)
        for i in (0, 2):
            plain = np.dot(image.weights, np.log(np.abs(probes[i] - image.values))) / SPHERE.volume
            assert u[i] == plain
        assert np.isfinite(u[1])

    def test_harmonic_away_from_image(self):
        # log|z - w| is harmonic off the support; the 5-point Laplacian of
        # the limit potential must vanish to grid order
        h = 0.05
        z0 = 2.5 + 0.7j
        stencil = [z0, z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h]
        u = limit_potential_many(symbol_image(X3, 200), stencil)
        laplacian = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        assert abs(laplacian) < 5e-5  # h^2-order stencil error


class TestProbeGrid:
    def test_default_probe_grid_inflates_image_box(self):
        probes = probe_grid(X3, nx=11, ny=11)
        assert len(probes) == 121
        assert probes.real.min() < -1.2 and probes.real.max() > 1.2


class TestClosedFormSphere:
    """Limit potential of the sphere projection preset against its closed form.

    The push-forward of the normalized Liouville measure by ``f0 = i x1 + x2``
    is radial with ``W(r) = 1 - sqrt(1 - r^2)``, so by Newton's theorem
    ``U(z) = W(|z|) log|z| + ((1+a) log(1+a) - (1-a) log(1-a) - 2a) / 2``
    with ``a = sqrt(1 - |z|^2)`` inside the unit disk and ``log|z|`` outside.
    """

    PROJECTION = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
    # rings inside, on and outside the image's rim, at angles off the axes
    PROBES = np.concatenate([r * np.exp(1j * (np.arange(7) * 2 * np.pi / 7 + 0.1 + r))
                             for r in (0.1, 0.35, 0.6, 0.85, 0.97, 1.0, 1.2, 2.0)])

    @staticmethod
    def _closed_form(z):
        m = np.abs(z)
        a = np.sqrt(np.clip(1.0 - m**2, 0.0, None))
        inside = (1.0 - a) * np.log(m) + (
            (1.0 + a) * np.log1p(a) - (1.0 - a) * np.log1p(-a) - 2.0 * a) / 2.0
        return np.where(m <= 1.0, inside, np.log(m))

    def _error(self, resolution):
        got = limit_potential_many(symbol_image(self.PROJECTION, resolution), self.PROBES)
        return np.abs(got - self._closed_form(self.PROBES))

    def test_limit_potential_matches_closed_form(self):
        error = self._error(200)
        assert np.max(error) <= 5e-4 and np.median(error) <= 2e-5
        outside = np.abs(self.PROBES) > 1.1                  # log|z|, by Newton's theorem
        assert np.max(error[outside]) <= 1e-12

    def test_limit_potential_converges_with_resolution(self):
        assert np.max(self._error(400)) <= 0.6 * np.max(self._error(200))
