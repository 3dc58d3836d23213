import numpy as np
import pytest

from toeplab.geometry import liouville_quadrature, make_phase_space, scottish_flag_symbol, sphere_symbol
from toeplab.potential import (
    LOGDET_CHECK_BOUND,
    PROBE_EXCLUSION_RADIUS,
    default_probe_grid,
    empirical_field,
    empirical_potential,
    limit_field,
    limit_potential,
    limit_potential_many,
    log_abs_det,
    potential_from_spectrum,
    potential_sweep,
)
from toeplab.quantize import quantize_sphere, quantize_symbol
from toeplab.randmat import PerturbationSchedule, sample_ginibre
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


class TestEmpiricalPotential:
    def test_scalar_case(self):
        T = np.zeros((1, 1))
        G = np.zeros((1, 1))
        z = 0.3 + 0.4j
        assert empirical_potential(T, G, 0.0, z) == pytest.approx(np.log(abs(z)))

    def test_identity_at_origin(self):
        assert empirical_potential(np.eye(3), np.zeros((3, 3)), 0.0, 0.0) == pytest.approx(0.0)

    def test_matches_eigenvalue_route(self):
        # oracle: |det(M - z)| equals the product of |lambda_i - z|
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 40)
        G = sample_ginibre(41, 9)
        delta = 1.0 / 40
        z = 0.4 + 0.3j
        lam = eigenvalues(T.entries + delta * G.entries).eigenvalues
        assert np.min(np.abs(lam - z)) > 1e-6
        via_eig = np.mean(np.log(np.abs(z - lam)))
        via_det = empirical_potential(T, G, delta, z)
        assert via_det == pytest.approx(via_eig, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            empirical_potential(np.eye(3), np.eye(4), 0.1, 0.0)


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


class TestFields:
    def test_empirical_field_matches_eigenvalue_route(self):
        # field invariant: values equal the normalized sum of log distances
        # to the eigenvalues wherever no eigenvalue sits near the probe
        T = quantize_sphere(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}), 30)
        G = sample_ginibre(31, 4)
        delta = 1.0 / 30
        probes = [0.3 + 0.2j, 1.5, -2.0j]
        lam = eigenvalues(T.entries + delta * G.entries).eigenvalues
        assert min(np.min(np.abs(lam - z)) for z in probes) > 1e-6
        field = empirical_field(T, G, delta, probes)
        assert field.kind == "empirical"
        for z, v in zip(field.z_grid, field.values):
            assert v == pytest.approx(np.mean(np.log(np.abs(z - lam))), abs=1e-8)

    def test_limit_field(self):
        field = limit_field(X3, SPHERE, [2.0, 3.0])
        assert field.kind == "limit"
        assert field.values[0] == pytest.approx((3 * np.log(3.0) - 2.0) / 2.0, abs=1e-9)


class TestSweep:
    def test_deviation_decays_with_size(self):
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        schedule = PerturbationSchedule.weyl(d=1)
        probes = [0.3 + 0.2j, -0.4 + 0.1j, 1.6 + 0.4j]
        report = potential_sweep(f, SPHERE, [40, 120], schedule, z_grid=probes, seeds=(0, 1))
        assert report.medians_by_size[120] < report.medians_by_size[40]
        assert report.singular_probes == 0
        per_probe = report.median_by_probe(120)
        assert set(per_probe) == set(complex(z) for z in probes)
        assert all(np.isfinite(v) for v in per_probe.values())

    def test_floor_reporting_contract(self):
        # constant symbol, delta = 0: both potentials equal log|z - c| at
        # every size, so deviations floor near machine precision and doubling
        # the size is reported as-is rather than inventing decay
        f = sphere_symbol({(0, 0, 0): 0.25})
        schedule = PerturbationSchedule(0.25, 0.5, 1, rule=type(
            "Zero", (), {"__call__": lambda self, N: 0.0, "describe": lambda self: "0"})())
        report = potential_sweep(f, SPHERE, [30, 60], schedule, z_grid=[5.0 + 3.0j], seeds=(0,))
        devs = [r[5] for r in report.rows]
        assert len(devs) == 2
        assert all(d < 1e-12 for d in devs)

    def test_probe_exclusion_near_spectrum(self):
        # a probe placed exactly on an eigenvalue is dropped per realization
        f = X3
        T = quantize_sphere(f, 30)
        lam0 = float(np.real(np.diag(T.entries)[0]))
        schedule = PerturbationSchedule(0.25, 0.5, 1, rule=type(
            "Zero", (), {"__call__": lambda self, N: 0.0, "describe": lambda self: "0"})())
        report = potential_sweep(f, SPHERE, [30], schedule, z_grid=[lam0, 7.0], seeds=(0,))
        assert len(report.rows) == 1  # only the far probe survives

    def test_default_probe_grid_inflates_image_box(self):
        probes = default_probe_grid(X3, SPHERE, nx=11, ny=11)
        assert len(probes) == 121
        assert probes.real.min() < -1.2 and probes.real.max() > 1.2

    def test_csv_rows(self):
        f = X3
        schedule = PerturbationSchedule.weyl(d=1)
        report = potential_sweep(f, SPHERE, [30], schedule, z_grid=[2.0], seeds=(0,))
        rows = list(report.csv_rows())
        assert rows[0] == "z_re,z_im,N,seed,U_emp,U_lim,deviation"
        assert len(rows) == 2
