from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import toeplab.harness as harness_module
from toeplab.geometry import (
    scottish_flag_symbol,
    sphere_symbol,
    sup_abs,
    symbol_image,
    torus_symbol,
)
from toeplab.quantize import _toeplitz, quantize_torus
from toeplab.randmat import operator_norm, sample_ginibre
from toeplab.spectra import empirical_cdf_disks, weyl_predict


def match_eigenvalues(a, b) -> float:
    """Greedy nearest-neighbor multiset pairing; returns the largest pair gap."""
    a = np.asarray(a, dtype=complex).copy()
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise ValueError("spectra have different sizes")
    worst = 0.0
    for lam in a:
        dist = np.abs(np.asarray(b) - lam)
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        b.pop(j)
    return worst


def haar_unitary(dim, seed):
    g = sample_ginibre(dim, seed)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestEigenvalues:
    """``match_eigenvalues`` on ``np.linalg.eigvals`` spectra, the bits a run's ``zgeev`` stages give."""

    def test_cyclic_shift_roots_of_unity(self):
        S = np.zeros((4, 4))
        S[np.arange(1, 4), np.arange(3)] = 1.0
        S[0, 3] = 1.0
        expected = np.exp(2j * np.pi * np.arange(4) / 4)
        assert match_eigenvalues(np.linalg.eigvals(S), expected) < 1e-12

    def test_unitary_invariance(self):
        M = sample_ginibre(30, 3)
        U = haar_unitary(30, 4)
        a = np.linalg.eigvals(M)
        b = np.linalg.eigvals(U.conj().T @ M @ U)
        assert match_eigenvalues(a, b) < 1e-8


class TestCdfDisks:
    def test_single_atom(self):
        np.testing.assert_allclose(empirical_cdf_disks(np.array([0.0 + 0j]), [1.0]), [1.0])

    def test_roots_of_unity(self):
        lam = np.exp(2j * np.pi * np.arange(4) / 4)
        np.testing.assert_allclose(empirical_cdf_disks(lam, [0.5, 1.0]), [0.0, 1.0])

    @given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone(self, radii):
        radii = sorted(radii)
        lam = sample_ginibre(12, 5).ravel()[:12]
        cdf = empirical_cdf_disks(lam, radii)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))


class TestWeylPredict:
    def test_disk_closed_form(self):
        # push-forward CDF of the projection symbol: 1 - sqrt(1 - r^2);
        # indicator integration is first order in the grid resolution
        f = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})
        radii = np.linspace(0.05, 0.95, 19)
        pred = weyl_predict(symbol_image(f, 200), radii)
        closed = 1.0 - np.sqrt(1.0 - radii**2)
        np.testing.assert_allclose(pred, closed, atol=8e-3)
        fine = weyl_predict(symbol_image(f, 800), radii)
        assert np.max(np.abs(fine - closed)) < np.max(np.abs(pred - closed))

    def test_constant_symbol_steps_at_its_modulus(self):
        # |0.6 + 0.8i| = 1: all of the mass enters between r = 0.99 and r = 1.01
        f = sphere_symbol({(0, 0, 0): 0.6 + 0.8j})
        pred = weyl_predict(symbol_image(f, 200), [0.0, 0.99, 1.01, 2.0])
        np.testing.assert_allclose(pred, [0.0, 0.0, 1.0, 1.0])

    def test_monotone_in_nested_disks(self):
        f = scottish_flag_symbol()
        pred = weyl_predict(symbol_image(f, 256), np.linspace(0, 2, 21))
        assert np.all(np.diff(pred) >= 0.0)
        assert np.all((pred >= 0.0) & (pred <= 1.0))


class TestSpectralSupport:
    def test_perturbed_spectrum_inside_norm_bound(self):
        f = scottish_flag_symbol()
        T = quantize_torus(f, 64)
        delta = 1e-3
        bound = sup_abs(f)
        for seed in range(5):
            G = sample_ginibre(64, seed)
            lam = np.linalg.eigvals(T.dense() + delta * G)
            assert np.max(np.abs(lam)) <= bound + delta * operator_norm(G) + 1e-8


class TestCsv:
    def test_rows(self, tmp_path, published):
        # the eig_*.csv of a cell whose matrix has eigenvalues 1+2i and -0.5i
        classical = SimpleNamespace(radii=np.array([1.0]), predicted=np.array([0.5]), probes=None,
                                    grushin_probes=[])
        setup = SimpleNamespace(out=tmp_path, classical=published(classical),
                                matrices={2: _toeplitz(2, torus_symbol({(0, 0): 1.0}),
                                                       {0: np.array([1.0 + 2.0j, complex(0.0, -0.5)])})})
        files, *_ = harness_module._spectrum_task(setup, "unperturbed", 2, None)
        rows = files["spectrum"].read_text().splitlines()
        assert rows[0] == "re,im"
        assert rows[1] == "1.0,2.0"
        assert rows[2] == "0.0,-0.5"


class TestClosedFormSphere:
    """Weyl prediction of the sphere projection preset against its closed form.

    ``f0 = i x1 + x2`` has ``|f0|^2 = 1 - x3^2``, and ``x3`` is uniform under
    the normalized Liouville measure, so ``mu{|f0| <= r} = 1 - sqrt(1 - r^2)``.
    The disk indicators converge on the grid like O(1/resolution).
    """

    @staticmethod
    def _error(resolution):
        from toeplab.harness import preset_config

        cfg = preset_config("sphere-figure3")
        radii = cfg.radii_grid()
        predicted = weyl_predict(symbol_image(cfg.symbol_spec(), resolution), radii)
        return float(np.max(np.abs(predicted - (1.0 - np.sqrt(1.0 - radii**2)))))

    def test_weyl_predict_matches_closed_form(self):
        assert self._error(200) <= 0.01

    def test_weyl_predict_converges_like_one_over_resolution(self):
        assert 1.6 <= self._error(200) / self._error(400) <= 2.4
