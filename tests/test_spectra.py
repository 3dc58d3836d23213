import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplab.geometry import (
    liouville_quadrature,
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    sup_abs,
)
from toeplab.quantize import quantize_torus
from toeplab.randmat import operator_norm, sample_ginibre
from toeplab.spectra import (
    DiskFamily,
    SpectrumResult,
    eigenvalues,
    empirical_cdf_disks,
    match_eigenvalues,
    spectrum_csv_rows,
    weyl_predict,
)

SPHERE = make_phase_space("sphere")


def haar_unitary(dim, seed):
    g = sample_ginibre(dim, seed).entries
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(np.eye(4))
        np.testing.assert_allclose(np.sort(spec.eigenvalues.real), np.ones(4))

    def test_diagonal(self):
        spec = eigenvalues(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(np.sort(spec.eigenvalues.real), [1, 2, 3])

    def test_cyclic_shift_roots_of_unity(self):
        S = np.zeros((4, 4))
        S[np.arange(1, 4), np.arange(3)] = 1.0
        S[0, 3] = 1.0
        spec = eigenvalues(S)
        expected = np.exp(2j * np.pi * np.arange(4) / 4)
        assert match_eigenvalues(spec.eigenvalues, expected) < 1e-12

    def test_count_equals_dim(self):
        M = sample_ginibre(17, 0).entries
        assert len(eigenvalues(M).eigenvalues) == 17

    def test_trace_consistency(self):
        M = sample_ginibre(50, 1).entries
        spec = eigenvalues(M)
        assert abs(spec.eigenvalues.sum() - np.trace(M)) <= 1e-6 * 50

    def test_hermitian_path_gives_real(self):
        g = sample_ginibre(12, 2).entries
        H = g + g.conj().T
        spec = eigenvalues(H)
        assert np.max(np.abs(spec.eigenvalues.imag)) == 0.0

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))
        bad = np.eye(3) * np.nan
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(bad, source="bad-matrix")

    def test_unitary_invariance(self):
        M = sample_ginibre(30, 3).entries
        U = haar_unitary(30, 4)
        a = eigenvalues(M).eigenvalues
        b = eigenvalues(U.conj().T @ M @ U).eigenvalues
        assert match_eigenvalues(a, b) < 1e-8


class TestCdfDisks:
    def test_single_atom(self):
        spec = SpectrumResult(np.array([0.0 + 0j]), "")
        np.testing.assert_allclose(empirical_cdf_disks(spec, 0.0, [1.0]), [1.0])

    def test_roots_of_unity(self):
        spec = SpectrumResult(np.exp(2j * np.pi * np.arange(4) / 4), "")
        np.testing.assert_allclose(empirical_cdf_disks(spec, 0.0, [0.5, 1.0]), [0.0, 1.0])

    def test_radii_must_ascend(self):
        spec = SpectrumResult(np.array([0.0 + 0j]), "")
        with pytest.raises(ValueError):
            empirical_cdf_disks(spec, 0.0, [1.0, 0.5])

    @given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone(self, radii):
        radii = sorted(radii)
        spec = SpectrumResult(sample_ginibre(12, 5).entries.ravel()[:12], "")
        cdf = empirical_cdf_disks(spec, 0.1 + 0.1j, radii)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))


class TestWeylPredict:
    def test_disk_closed_form(self):
        # push-forward CDF of the projection symbol: 1 - sqrt(1 - r^2);
        # indicator integration is first order in the grid resolution
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        radii = np.linspace(0.05, 0.95, 19)
        pred = weyl_predict(f, SPHERE, DiskFamily(0.0, tuple(radii)))
        closed = 1.0 - np.sqrt(1.0 - radii**2)
        np.testing.assert_allclose(pred.fractions, closed, atol=8e-3)
        fine = weyl_predict(f, SPHERE, DiskFamily(0.0, tuple(radii)),
                            liouville_quadrature(SPHERE, 800))
        assert np.max(np.abs(fine.fractions - closed)) < np.max(np.abs(pred.fractions - closed))

    def test_constant_symbol_disk_around_value(self):
        f = sphere_symbol({(0, 0, 0): 0.7 + 0.2j})
        pred = weyl_predict(f, SPHERE, DiskFamily(0.7 + 0.2j, (0.1,)))
        assert pred.fractions[0] == pytest.approx(1.0)

    def test_monotone_in_nested_disks(self):
        f = scottish_flag_symbol()
        torus = make_phase_space("torus")
        pred = weyl_predict(f, torus, DiskFamily(0.0, tuple(np.linspace(0, 2, 21))))
        assert np.all(np.diff(pred.fractions) >= 0.0)
        assert np.all((pred.fractions >= 0.0) & (pred.fractions <= 1.0))


class TestSpectralSupport:
    def test_perturbed_spectrum_inside_norm_bound(self):
        f = scottish_flag_symbol()
        torus = make_phase_space("torus")
        T = quantize_torus(f, 64)
        delta = 1e-3
        bound = sup_abs(f, torus)
        for seed in range(5):
            G = sample_ginibre(64, seed)
            lam = eigenvalues(T.entries + delta * G.entries).eigenvalues
            assert np.max(np.abs(lam)) <= bound + delta * operator_norm(G.entries) + 1e-8


class TestCsv:
    def test_rows(self):
        spec = SpectrumResult(np.array([1.0 + 2.0j, -0.5j]), "demo")
        rows = list(spectrum_csv_rows(spec))
        assert rows[0] == "re,im"
        assert rows[1] == "1.0,2.0"
        assert rows[2] == "-0.0,-0.5"
