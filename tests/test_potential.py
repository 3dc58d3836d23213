import numpy as np
import pytest

from toeplab.geometry import liouville_quadrature, make_phase_space, scottish_flag_symbol, sphere_symbol
from toeplab.potential import (
    LOGDET_CHECK_BOUND,
    PROBE_EXCLUSION_RADIUS,
    default_probe_grid,
    limit_potential,
    limit_potential_many,
    log_abs_det,
    potential_from_spectrum,
)
from toeplab.quantize import quantize_sphere, quantize_symbol
from toeplab.randmat import sample_ginibre
from toeplab.spectra import eigenvalues

SPHERE = make_phase_space("sphere")
X3 = sphere_symbol({(0, 0, 1): 1.0})


def slogdet_route(M, probes):
    """The per-probe LU oracle: log|det(M - z)| / dim by slogdet."""
    dim = M.shape[0]
    return np.array([log_abs_det(M - z * np.eye(dim)) / dim for z in probes])


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
        M = T.entries + delta * sample_ginibre(T.dim, 3).entries
        probes = default_probe_grid(f, T.space, 12, 12)
        values, kept, health = potential_from_spectrum(M, eigenvalues(M).eigenvalues, probes)
        assert kept.all() and health["probes_dropped"] == 0
        assert not health["logdet_fallback"]
        assert health["logdet_check_residual"] <= self.ROUTE_TOL
        np.testing.assert_allclose(values, slogdet_route(M, probes), rtol=0, atol=self.ROUTE_TOL)

    def test_nonnormal_shift_falls_back_to_slogdet(self):
        # a 60 x 60 nilpotent shift closed by a 1e-100 corner: the eigenvalues
        # are 1e-100^(1/60) ~ 0.02 times the roots of unity, but rounding
        # scatters the computed ones to radius ~0.2, so inside that ring the
        # eigenvalue route is wrong while LU of the bidiagonal shift is exact
        n, corner = 60, 1e-100
        M = np.diag(np.ones(n - 1), 1).astype(complex)
        M[n - 1, 0] = corner
        probes = np.array([0.1, 0.01 + 0.005j, -0.03j])
        lam = np.linalg.eigvals(M)
        exact = np.log(np.abs(probes**n - corner)) / n  # det(z - M) = z^n - corner
        eig_route = np.array([np.mean(np.log(np.abs(lam - z))) for z in probes])
        assert np.max(np.abs(eig_route - exact)) > 0.1
        values, kept, health = potential_from_spectrum(M, lam, probes)
        assert kept.all()
        assert health["logdet_fallback"]
        assert health["logdet_check_residual"] > LOGDET_CHECK_BOUND
        np.testing.assert_array_equal(values, slogdet_route(M, probes))
        np.testing.assert_allclose(values, exact, rtol=0, atol=1e-12)

    def test_kept_mask_matches_per_probe_rule(self):
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 40)
        M = T.entries + sample_ginibre(41, 5).entries / 40
        lam = eigenvalues(M).eigenvalues
        probes = np.concatenate([
            [lam[0], lam[1] + 0.5e-4, lam[2] + 1e-4j, lam[3] - 2e-4, lam[4] + 0.99e-4j],
            default_probe_grid(T.symbol, SPHERE, 6, 6),
        ])
        _, kept, health = potential_from_spectrum(M, lam, probes)
        expected = [not (np.min(np.abs(lam - z)) < PROBE_EXCLUSION_RADIUS) for z in probes]
        assert kept.tolist() == expected
        assert health["probes_dropped"] == expected.count(False) >= 3


class TestLimitPotential:
    def test_height_symbol_outside(self):
        # push-forward of x3 is uniform on [-1, 1]; closed form at z = 2 is
        # (1/2) * integral_1^3 log(u) du = (3 log 3 - 2) / 2
        val = limit_potential(X3, SPHERE, 2.0)
        assert val == pytest.approx((3 * np.log(3.0) - 2.0) / 2.0, abs=1e-9)

    def test_constant_symbol(self):
        f = sphere_symbol({(0, 0, 0): 0.5j})
        z = 1.0 + 1.0j
        assert limit_potential(f, SPHERE, z) == pytest.approx(np.log(abs(z - 0.5j)), abs=1e-12)

    def test_height_symbol_at_zero(self):
        # integrable log singularity at an interior point of the range:
        # closed form integral_0^1 log(s) ds = -1; nodes avoid the singular
        # point so accuracy is quadrature-limited, not infinite
        val = limit_potential(X3, SPHERE, 0.0)
        assert val == pytest.approx(-1.0, abs=1e-2)
        hi = limit_potential(X3, SPHERE, 0.0, liouville_quadrature(SPHERE, 2000))
        assert abs(hi - (-1.0)) < abs(val - (-1.0))

    def test_probe_on_node_image_refines(self):
        # z exactly at a Gauss node's image would hit log(0) without the
        # refinement path
        grid = liouville_quadrature(SPHERE, 50)
        z = complex(grid.points[17, 2])
        val = limit_potential(X3, SPHERE, z, grid)
        assert np.isfinite(val)

    def test_many_matches_single(self):
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        probes = [2.0, 0.3 + 0.2j, -1.5j]
        many = limit_potential_many(f, SPHERE, probes)
        single = [limit_potential(f, SPHERE, z) for z in probes]
        np.testing.assert_allclose(many, single, atol=1e-12)

    def test_harmonic_away_from_image(self):
        # log|z - w| is harmonic off the support; the 5-point Laplacian of
        # the limit potential must vanish to grid order
        h = 0.05
        z0 = 2.5 + 0.7j
        stencil = [z0, z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h]
        u = limit_potential_many(X3, SPHERE, stencil)
        laplacian = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        assert abs(laplacian) < 5e-5  # h^2-order stencil error


class TestProbeGrid:
    def test_default_probe_grid_inflates_image_box(self):
        probes = default_probe_grid(X3, SPHERE, nx=11, ny=11)
        assert len(probes) == 121
        assert probes.real.min() < -1.2 and probes.real.max() > 1.2
