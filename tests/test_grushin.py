import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import toeplab._lapack as lapack_module
import toeplab.grushin as grushin_module
import toeplab.harness as harness_module
from toeplab.geometry import (
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_image,
    torus_symbol,
)
from toeplab.grushin import (
    GrushinParams,
    assemble_grushin,
    b_diagnostics,
    closed_form_inverse,
    grushin_params,
    schur_identity_residual,
    singular_triples,
    small_eigen_count_scan,
)
from toeplab.potential import limit_potential_many, log_abs_det, log_abs_sums
from toeplab.quantize import _toeplitz, quantize_sphere, quantize_symbol, quantize_torus
from toeplab.randmat import NormBound, derive_seed, operator_norm, sample_ginibre

SPHERE = make_phase_space("sphere")
PROJECTION = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})


class TestSingularTriples:
    def test_diagonal_values(self):
        tr = singular_triples(np.diag([3.0, 1.0]), 0.0)
        np.testing.assert_allclose(tr.values, [1.0, 3.0])

    def test_identity_shifted(self):
        tr = singular_triples(np.eye(3), 1.0)
        np.testing.assert_allclose(tr.values, np.zeros(3), atol=1e-12)

    def test_intertwining_relations(self):
        P = sample_ginibre(20, 1)
        z = 0.3 - 0.1j
        tr = singular_triples(P, z)
        shifted = P - z * np.eye(20)
        for i in range(20):
            e_i = tr.right_vectors[:, i]
            f_i = tr.left_vectors[:, i]
            assert np.linalg.norm(shifted @ e_i - tr.values[i] * f_i) < 1e-8
            assert np.linalg.norm(shifted.conj().T @ f_i - tr.values[i] * e_i) < 1e-8

    def test_orthonormality(self):
        tr = singular_triples(sample_ginibre(15, 2), 0.1j)
        eye = np.eye(15)
        assert np.max(np.abs(tr.right_vectors.conj().T @ tr.right_vectors - eye)) < 1e-10
        assert np.max(np.abs(tr.left_vectors.conj().T @ tr.left_vectors - eye)) < 1e-10

    def test_values_ascending(self):
        tr = singular_triples(sample_ginibre(25, 3), 0.0)
        assert np.all(np.diff(tr.values) >= 0.0)


class TestParams:
    def test_cutoff_counts(self):
        tr = singular_triples(np.diag([0.1, 5.0]), 0.0)
        # alpha = 100^(-2/4) = 0.1: only t^2 = 0.01 falls below
        p = grushin_params(100, 0.25, tr)
        assert p.alpha == pytest.approx(0.1)
        assert p.n_small == 1

    def test_alpha_arithmetic(self):
        tr = singular_triples(np.eye(2), 0.0)
        assert grushin_params(100, 0.25, tr).alpha == pytest.approx(0.1)
        assert grushin_params(16, 0.25, tr).alpha == pytest.approx(0.25)

    def test_all_large_gives_zero(self):
        tr = singular_triples(np.diag([5.0, 7.0]), 0.0)
        assert grushin_params(100, 0.25, tr).n_small == 0

    def test_rho_domain(self):
        tr = singular_triples(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            grushin_params(10, 0.5, tr)
        with pytest.raises(ValueError):
            grushin_params(10, 0.0, tr)


class TestClosedFormInverse:
    def _triples(self, dim, seed, z=0.2 + 0.1j):
        return singular_triples(sample_ginibre(dim, seed), z)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_norm_identities(self, seed):
        tr = self._triples(18, seed)
        p = grushin_params(18, 0.3, tr)
        if p.n_small == 0:
            pytest.skip("no small singular values in this draw")
        blocks = closed_form_inverse(tr, p.n_small)
        assert operator_norm(blocks.bulk_inverse) <= p.alpha ** -0.5
        assert operator_norm(blocks.right_injection) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(blocks.corner) <= np.sqrt(p.alpha)

    def test_unperturbed_match(self):
        tr = self._triples(16, 11)
        p = grushin_params(16, 0.3, tr)
        system = assemble_grushin(tr, p)
        blocks = closed_form_inverse(tr, p.n_small)
        assert np.max(np.abs(system.bulk_inverse - blocks.bulk_inverse)) < 1e-8
        assert np.max(np.abs(system.right_injection - blocks.right_injection)) < 1e-8
        assert np.max(np.abs(system.left_projection - blocks.left_projection)) < 1e-8
        assert np.max(np.abs(system.corner - blocks.corner)) < 1e-8

    def test_inverse_contract(self):
        tr = self._triples(16, 12)
        p = grushin_params(16, 0.3, tr)
        G = sample_ginibre(16, 13)
        system = assemble_grushin(tr, p, (1e-3, G))
        n = system.matrix.shape[0]
        assert np.max(np.abs(system.matrix @ system.inverse - np.eye(n))) < 1e-8

    def test_coupling_is_left_inverse(self):
        tr = self._triples(14, 14)
        p = grushin_params(14, 0.3, tr)
        blocks = closed_form_inverse(tr, p.n_small)
        A = p.n_small
        if A == 0:
            pytest.skip("no small singular values in this draw")
        prod = tr.right_vectors[:, :A].conj().T @ blocks.right_injection
        assert np.max(np.abs(prod - np.eye(A))) < 1e-10

    def test_singular_tail_flag(self):
        tr = singular_triples(np.diag([0.0, 2.0]), 0.0)
        blocks = closed_form_inverse(tr, 0)  # zero singular value above cutoff
        assert blocks.warnings == ("zero-singular-value-above-cutoff",)
        np.testing.assert_array_equal(blocks.bulk_inverse, 0.0)

    def test_neumann_warning_on_singular_tail(self):
        # a zero singular value above the cutoff makes ||bulk|| infinite, so
        # any nonzero perturbation violates the Neumann condition
        tr = singular_triples(np.diag([0.0, 2.0]), 0.0)
        p = GrushinParams(rho=0.25, alpha=0.1, n_small=0)
        assert closed_form_inverse(tr, 0).warnings == ("zero-singular-value-above-cutoff",)
        system = assemble_grushin(tr, p, (1e-3, sample_ginibre(2, 19)))
        assert any("Neumann" in w for w in system.warnings)

    def test_neumann_warning(self):
        tr = self._triples(12, 15)
        p = grushin_params(12, 0.3, tr)
        G = sample_ginibre(12, 16)
        system = assemble_grushin(tr, p, (10.0, G))  # far beyond the window
        assert any("Neumann" in w for w in system.warnings)

    @staticmethod
    def _closed_route_inverse(closed, delta, G):
        """The perturbed bordered inverse ``E0 (I + K)^-1`` from the closed form ``E0``."""
        E0 = closed.inverse
        # bordered_perturbed @ E0 = I + K with K supported on the first block row
        K = np.zeros_like(E0)
        K[:closed.dim] = delta * (G @ E0[:closed.dim])
        return E0 @ np.linalg.inv(np.eye(len(E0)) + K)

    def test_closed_route_matches_direct(self):
        tr = self._triples(15, 17)
        p = grushin_params(15, 0.3, tr)
        G = sample_ginibre(15, 18)
        system = assemble_grushin(tr, p, (1e-3, G))
        closed = closed_form_inverse(tr, p.n_small)
        alt = self._closed_route_inverse(closed, 1e-3, G)
        assert np.max(np.abs(alt - system.inverse)) < 1e-9


class TestSchurIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_perturbed(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(10, 60))
        P = sample_ginibre(dim, 100 + seed)
        lam = np.linalg.eigvals(P)
        z = lam[0] + 1e-3  # near an eigenvalue so small singular values exist
        res = schur_identity_residual(P, z, (1e-3, sample_ginibre(dim, 200 + seed)))
        assert res <= 1e-6

    def test_unperturbed(self):
        P = sample_ginibre(30, 7)
        z = np.linalg.eigvals(P)[3] + 1e-4
        assert schur_identity_residual(P, z, None) <= 1e-6

    def test_no_augmentation_degenerates(self):
        P = sample_ginibre(20, 8)
        res = schur_identity_residual(P, 100.0, None)  # far probe, A = 0
        assert res <= 1e-8

    def test_singular_determinant_gives_nan(self):
        # P - z = 0: route one is -inf, the bordered matrix stays invertible
        assert np.isnan(schur_identity_residual(np.zeros((4, 4)), 0.0, None))
        # P + delta G - z = 0 with A = 1: the bordered matrix itself is singular
        res = schur_identity_residual(np.diag([0.0, 2.0]), 0.0, (1.0, np.diag([0.0, -2.0])))
        assert np.isnan(res)


@pytest.fixture(scope="module")
def diag300():
    T = quantize_sphere(PROJECTION, 120)
    G = sample_ginibre(121, 5)
    classical = limit_potential_many(symbol_image(T.symbol, 200), [0.3 + 0.2j])[0]
    return T, b_diagnostics(T, 0.3 + 0.2j, 0.25, 1.0 / 120, G, classical), G, classical


def _schur_gap(T, z, delta, G, diag) -> float:
    """The Schur residual of a split, with route one from the dense LU oracle.

    ``|log|det(P + delta G - z)| - (log|det bordered| + log|det corner|)|``; a
    run takes route one from the cell's eigenvalues instead.
    """
    direct = log_abs_det(T.dense() + delta * G - z * np.eye(T.dim))
    return abs(direct - (diag.log_det_bordered + diag.log_det_corner))


class TestSplitDiagnostics:

    def test_sum_reassembles_normalized_logdet(self, diag300):
        T, diag, G, classical = diag300
        dim = T.dim
        lhs = diag.b1 + diag.b2 + diag.b3
        direct = log_abs_det(T.dense() + (1.0 / 120) * G - (0.3 + 0.2j) * np.eye(dim))
        rhs = direct / dim - classical
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_corner_term_negative(self, diag300):
        _, diag, _, _ = diag300
        assert diag.n_small >= 1
        assert diag.b3 < 0.0

    def test_shift_term_within_budget(self, diag300):
        # perturbation-shift magnitude obeys the delta alpha^(-1/2) sqrt(dim) scale
        T, diag, _, _ = diag300
        budget = 10.0 * (1.0 / 120) * (120 ** 0.25) * np.sqrt(T.dim)
        assert abs(diag.b2) <= budget

    def test_schur_residual_small(self, diag300):
        T, diag, G, _ = diag300
        assert _schur_gap(T, 0.3 + 0.2j, 1.0 / 120, G, diag) <= 1e-6

    def test_no_flags_in_regular_case(self, diag300):
        _, diag, _, _ = diag300
        assert diag.flags == ()

    def test_far_probe_no_augmentation(self):
        T = quantize_sphere(PROJECTION, 40)
        G = sample_ginibre(41, 6)
        classical = limit_potential_many(symbol_image(T.symbol, 200), [50.0])[0]
        diag = b_diagnostics(T, 50.0, 0.25, 1.0 / 40, G, classical)
        assert diag.n_small == 0
        assert diag.b3 == 0.0
        assert _schur_gap(T, 50.0, 1.0 / 40, G, diag) <= 1e-8

    def test_csv_row_format(self, diag300, tmp_path, published):
        # the diag_*.csv row of the same split; A depends on T alone, not on the noise
        T, diag, _, classical = diag300
        setup = SimpleNamespace(out=tmp_path, matrices={120: T}, deltas={120: 1.0 / 120}, rho=0.25,
                                grushin_probes=[0.3 + 0.2j],
                                classical=published(SimpleNamespace(grushin_u_lim=[classical])))
        diags, g_health, _ = harness_module._grushin_task(setup, "perturbed", 120, 5)
        lam = np.linalg.eigvals(T.dense() + (1.0 / 120) * harness_module._cell_noise(T, 5))
        route_one = float(log_abs_sums(lam, [0.3 + 0.2j])[0])
        files, health = harness_module._diagnostics(setup, ("perturbed", 120, 5), diags, g_health, lam)
        header, row = files["diagnostics"].read_text().splitlines()
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        assert fields[0] == "120"
        assert int(fields[6]) == diag.n_small
        # the residual column: route one against the split's two log-determinants
        total = diags[0].log_det_bordered + diags[0].log_det_corner
        assert fields[10] == repr(abs(route_one - total)) == repr(health["schur_residual_max"])
        assert float(fields[10]) <= 1e-6


def _slow_split(T, z, rho, delta, G):
    """(A, B2, B3) through assemble_grushin and slogdet of its blocks."""
    dim = T.dim
    tr = singular_triples(T.dense(), z)
    params = grushin_params(T.N, rho, tr)
    A = params.n_small
    system = assemble_grushin(tr, params, (delta, G))
    log_free = float(np.sum(np.log(tr.values[A:])))
    log_corner = log_abs_det(system.corner) if A else 0.0
    return A, (log_abs_det(system.matrix) - log_free) / dim, log_corner / dim, system


def _draws():
    """Perturbed sphere and torus draws with probes on and off the spectrum."""
    sphere = quantize_sphere(PROJECTION, 79)                     # dim 80
    torus = quantize_torus(scottish_flag_symbol(), 60)           # dim 60
    lam = np.linalg.eigvals(torus.dense())
    torus_probes = [complex(lam[k]) + 1e-3 for k in (0, 17, 41)]
    return [
        (sphere, [0.3 + 0.2j, 0.6, 0.8j, 0.0, 50.0], 79.0 ** -1.5, 21),
        (torus, torus_probes + [50.0], 60.0 ** -1.5, 22),
    ]


DRAWS = _draws()


class TestFastRouteOracle:
    """b_diagnostics against the slow oracles assemble_grushin / slogdet."""

    @staticmethod
    def _check(T, probes, delta, seed):
        # the banded route's values agree with the oracle's SVD to rounding
        G = sample_ginibre(T.dim, seed)
        image = symbol_image(T.symbol, 60)
        counts = []
        for z in probes:
            classical = limit_potential_many(image, [z])[0]
            diag = b_diagnostics(T, z, 0.25, delta, G, classical)
            A, b2, b3, system = _slow_split(T, z, 0.25, delta, G)
            tr = singular_triples(T.dense(), z)
            b1 = float(np.sum(np.log(tr.values[A:]))) / T.dim - classical
            assert diag.n_small == A
            assert diag.b1 == pytest.approx(b1, abs=1e-12)
            assert diag.b2 == pytest.approx(b2, abs=1e-10)
            assert diag.b3 == pytest.approx(b3, abs=1e-10)
            assert _schur_gap(T, z, delta, G, diag) <= 1e-8
            assert diag.flags == system.warnings == ()
            assert 1.0 <= diag.condition < grushin_module.CONDITION_GUARD
            counts.append(A)
        assert sum(a >= 1 for a in counts) >= 3 and 0 in counts

    @pytest.mark.parametrize("T, probes, delta, seed", DRAWS, ids=["sphere", "torus"])
    def test_matches_slow_routes(self, T, probes, delta, seed):
        self._check(T, probes, delta, seed)

    def test_condition_is_lapack_one_norm_estimate(self):
        T, probes, delta, seed = DRAWS[0]
        G = sample_ginibre(T.dim, seed)
        diag = b_diagnostics(T, probes[0], 0.25, delta, G, 0.0)
        # a 1-norm condition depends on the bases: take the matrix b_diagnostics factors
        _, params, left, right_h, _ = grushin_module._small_subspaces(T, probes[0], 0.25)
        A = params.n_small
        M = np.zeros((T.dim + A, T.dim + A), dtype=complex)
        M[:T.dim, :T.dim] = T.dense() + delta * G - probes[0] * np.eye(T.dim)
        M[:T.dim, T.dim:], M[T.dim:, :T.dim] = left, right_h
        exact = np.linalg.cond(M, 1)
        # the estimator is a lower bound, within a small factor in practice
        assert exact / 3.0 <= diag.condition <= exact * (1.0 + 1e-8)

    def test_guard_only_flags_the_lu_corner(self, monkeypatch):
        T, probes, delta, seed = DRAWS[1]
        G = sample_ginibre(T.dim, seed)
        fast = [b_diagnostics(T, z, 0.25, delta, G, 0.0) for z in probes]
        monkeypatch.setattr(grushin_module, "CONDITION_GUARD", 0.5)   # below any condition
        guarded = [b_diagnostics(T, z, 0.25, delta, G, 0.0) for z in probes]
        for lu_route, flagged in zip(fast, guarded):
            assert flagged.flags == lu_route.flags + (
                f"condition estimate {lu_route.condition:.3g} exceeds 5e-01",)
            for name in ("b2", "b3", "log_det_bordered", "log_det_corner"):
                assert getattr(flagged, name) == getattr(lu_route, name)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_near_singular_corner_matches_mpmath(self, seed):
        # rotate G so that -1/delta0 is an eigenvalue of G @ bulk inverse, i.e. of
        # [[G bulk, G injection], [0, 0]]: the bordered matrix is singular at
        # delta0, and a hair above it the condition estimate passes the guard
        import mpmath
        T, z, rho = quantize_sphere(PROJECTION, 15), 0.6, 0.25
        dim = T.dim
        _, params, left, right_h, _ = grushin_module._small_subspaces(T, z, rho)
        A = params.n_small
        bulk = closed_form_inverse(singular_triples(T.dense(), z), A).bulk_inverse
        G = sample_ginibre(dim, seed)
        mu = max(np.linalg.eigvals(G @ bulk), key=abs)
        G = (-abs(mu) / mu) * G
        delta = (1.0 + 1e-11) / abs(mu)
        diag = b_diagnostics(T, z, rho, delta, G, 0.0)
        assert A == 4 and diag.condition > grushin_module.CONDITION_GUARD
        assert diag.flags[-1].startswith("condition estimate")

        # the bordered matrix b_diagnostics factors, in its operation order
        M = np.zeros((dim + A, dim + A), dtype=complex)
        shifted = M[:dim, :dim]
        np.multiply(G, delta, out=shifted)
        T.add_to(shifted)
        shifted[np.diag_indices(dim)] -= complex(z)
        M[:dim, dim:], M[dim:, :dim] = left, right_h

        def log_abs_det_60(X):
            return mpmath.log(abs(mpmath.det(mpmath.matrix(
                [[mpmath.mpc(x.real, x.imag) for x in row] for row in X]))))

        with mpmath.workdps(60):                 # Schur: det corner = det shifted / det M
            exact = float(log_abs_det_60(shifted) - log_abs_det_60(M))
        # an LU's forward error scales with condition * eps: rebuilt for seeds 0-11 (condition
        # 1.5e12-3.5e12) on two sets of entries up to 2.9e-15 apart, the corner read 9e-4 to
        # 0.18 of it, so the bound is half of it; seed 2 read the most on both
        assert abs(diag.log_det_corner - exact) <= 0.5 * diag.condition * np.finfo(float).eps

    def test_neumann_branch(self):
        T, probes, _, seed = DRAWS[0]
        G = sample_ginibre(T.dim, seed)
        for z in (probes[0], probes[-1]):                             # A >= 1 and A = 0
            diag = b_diagnostics(T, z, 0.25, 10.0, G, 0.0)
            A, b2, b3, system = _slow_split(T, z, 0.25, 10.0, G)
            assert any("Neumann" in w for w in diag.flags)
            assert diag.flags == system.warnings
            assert diag.b2 == pytest.approx(b2, abs=1e-10)
            assert diag.b3 == pytest.approx(b3, abs=1e-10)
            assert _schur_gap(T, z, 10.0, G, diag) <= 1e-8

    def test_given_norm_matches_computed(self):
        T, probes, delta, seed = DRAWS[0]
        G = sample_ginibre(T.dim, seed)
        for d in (delta, 10.0):
            given = b_diagnostics(T, probes[0], 0.25, d, G, 0.0, g_norm=NormBound(G))
            assert given == b_diagnostics(T, probes[0], 0.25, d, G, 0.0)


class TestFactorizationCount:
    """The dense work of one probe; guards against repeated factorizations.

    Every dense log-determinant of a run is the pivot sum of one
    ``_lapack.lu_factor`` (the potential's and Schur route one's come from
    the cell's eigenvalues, the potential's checks in an unperturbed cell
    from a banded LU of ``T - z``, with no dense LU), so the LUs are counted by
    matrix size: a probe with ``A >= 1`` takes one each of size ``dim + A``
    (the bordered matrix) and ``A`` (the corner), a probe with ``A = 0`` the
    bordered LU alone, of size ``dim``.
    """

    @staticmethod
    def _count(monkeypatch):
        counts = {"svd": 0, "inv": 0, "cond": 0, "norm2": 0, "lu_factor": [], "eig_banded": 0}
        lock = threading.Lock()                 # run() calls these from pool threads

        def wrap(mod, attr, key, counted=lambda args, kwargs: True):
            real = getattr(mod, attr)

            def counting(*args, **kwargs):
                if counted(args, kwargs):
                    with lock:
                        if key == "lu_factor":
                            counts[key].append(args[0].shape[0])
                        else:
                            counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, attr, counting)

        for name in ("svd", "inv", "cond"):
            wrap(np.linalg, name, name)
        wrap(np.linalg, "norm", "norm2",
             lambda args, kwargs: (args[1] if len(args) > 1 else kwargs.get("ord")) in (2, -2))
        wrap(lapack_module, "singular_values", "norm2")     # operator_norm's SVD
        wrap(lapack_module, "lu_factor", "lu_factor")
        wrap(lapack_module, "eigvalsh_banded", "eig_banded")
        return counts

    @staticmethod
    def _probe_lus(dim: int, A: int) -> list:
        """Sorted LU sizes of one probe: the bordered matrix, then the corner if there is one."""
        return [A, dim + A] if A else [dim]

    def _assert_probe(self, counts, dim, A, **rest):
        assert sorted(counts["lu_factor"]) == self._probe_lus(dim, A)
        assert {k: v for k, v in counts.items() if k != "lu_factor"} == {
            "inv": 0, "cond": 0, "norm2": 0, **rest}

    def test_stray_entry_probe_takes_no_svd_and_two_lus(self, monkeypatch):
        # a stray far entry widens the band; still no dense SVD
        T, probes, delta, seed = DRAWS[1]
        entries = T.dense()
        entries[0, T.dim // 2] = 1e-3
        T = _with_entries(T, entries)
        G = sample_ginibre(T.dim, seed)
        g_norm = NormBound(G)
        counts = self._count(monkeypatch)
        diag = b_diagnostics(T, probes[0], 0.25, delta, G, 0.0, g_norm=g_norm)
        assert diag.n_small >= 1
        self._assert_probe(counts, T.dim, diag.n_small, svd=0, eig_banded=1)

    def _banded_probe(self, monkeypatch, draw):
        T, probes, delta, seed = DRAWS[draw]
        G = sample_ginibre(T.dim, seed)
        g_norm = NormBound(G)
        counts = self._count(monkeypatch)
        diag = b_diagnostics(T, probes[0], 0.25, delta, G, 0.0, g_norm=g_norm)
        assert diag.n_small >= 1
        self._assert_probe(counts, T.dim, diag.n_small, svd=0, eig_banded=1)

    def test_bidiagonal_probe_takes_no_svd(self, monkeypatch):
        # the values; both bases come from banded inverse iteration
        self._banded_probe(monkeypatch, 0)

    def test_torus_probe_takes_no_svd(self, monkeypatch):
        # the cyclic band, interleaved to a plain one
        self._banded_probe(monkeypatch, 1)

    def test_far_probe_takes_one_lu(self, monkeypatch):
        T, probes, delta, seed = DRAWS[0]
        G = sample_ginibre(T.dim, seed)
        g_norm = NormBound(G)
        counts = self._count(monkeypatch)
        diag = b_diagnostics(T, probes[-1], 0.25, delta, G, 0.0, g_norm=g_norm)
        assert diag.n_small == 0
        self._assert_probe(counts, T.dim, 0, svd=0, eig_banded=1)
        M = T.dense() + delta * G - probes[-1] * np.eye(T.dim)
        assert diag.log_det_bordered == pytest.approx(log_abs_det(M), abs=1e-10)

    @staticmethod
    def _tiny_run(delta, out_dir, f=PROJECTION):
        from toeplab.geometry import symbol_to_record
        from toeplab.harness import ExperimentConfig, run

        cfg = ExperimentConfig.from_mapping(dict(
            space=f.kind, symbol=symbol_to_record(f), n_values=[24, 32],
            delta=delta, seeds=[0, 1], probe_grid={"nx": 3, "ny": 3},
            radii={"count": 5, "max": 1.0}, grushin_probes=[[0.3, 0.2], [0.6, 0.0]],
            resolution=40, kappa_samples=10**4))
        record = run(cfg, out_dir=out_dir, workers=1)
        assert not record.manifest["errors"]
        return record

    @classmethod
    def _run_lus(cls, record, out_dir, f=PROJECTION) -> list:
        """Sorted LU sizes of a tiny run: its Grushin probes'; the potential takes no dense LU."""
        sizes = []
        for name, cell in record.manifest["cells"].items():
            N = int(name[1:].split("_")[0])
            dim = N + 1 if f.kind == "sphere" else N
            rows = (out_dir / cell["files"]["diagnostics"]["path"]).read_text().splitlines()
            header = rows[0].split(",")
            for row in rows[1:]:
                sizes += cls._probe_lus(dim, int(dict(zip(header, row.split(",")))["A"]))
        return sorted(sizes)

    def test_run_takes_one_norm_per_perturbed_cell(self, monkeypatch, tmp_path):
        # the one norm of a cell is the Cholesky certificate; no 2-norm is taken
        counts = self._count(monkeypatch)
        record = self._tiny_run({"power": 1.25}, tmp_path)
        assert counts["norm2"] == 0
        assert counts["svd"] == 0                                   # bidiagonal: banded route
        assert sorted(counts["lu_factor"]) == self._run_lus(record, tmp_path)
        assert len(counts["lu_factor"]) > 4 * 2                     # some probe has A >= 1
        assert counts["inv"] == counts["cond"] == 0
        routes = [c["health"]["g_norm_route"] for c in record.manifest["cells"].values()]
        assert routes == ["cholesky"] * 4                # 2 sizes x 2 seeds

    def test_torus_run_takes_no_svd_and_no_norm(self, monkeypatch, tmp_path):
        counts = self._count(monkeypatch)
        f = scottish_flag_symbol()
        record = self._tiny_run({"power": 1.25}, tmp_path, f)
        assert counts["svd"] == counts["norm2"] == 0
        assert sorted(counts["lu_factor"]) == self._run_lus(record, tmp_path, f)
        assert all(c["health"]["g_norm_route"] == "cholesky"
                   for c in record.manifest["cells"].values())

    def test_run_takes_the_exact_norm_only_where_the_bound_cannot_decide(
            self, monkeypatch, tmp_path):
        # at delta = 1/N the bound crosses the Neumann threshold in every cell
        counts = self._count(monkeypatch)
        record = self._tiny_run({"preset": "weyl"}, tmp_path)
        assert counts["norm2"] == 4 and counts["svd"] == 0
        for name, cell in record.manifest["cells"].items():
            assert cell["health"]["g_norm_route"] == "svd-exact"
            N = int(name[1:].split("_")[0])
            G = sample_ginibre(N + 1, derive_seed(int(name.split("_s")[1]), "cell", N))
            assert cell["health"]["g_norm_bound"] == 2.0 * np.sqrt(N + 1) + 3.0
            T = quantize_sphere(PROJECTION, N)
            rows = (tmp_path / cell["files"]["diagnostics"]["path"]).read_text().splitlines()
            flags = [row.split(",")[-1] for row in rows[1:]]
            # the flags of the exact norm, from the Neumann inequality itself
            expected = []
            for z in (0.3 + 0.2j, 0.6):
                values, params, _, _, _ = grushin_module._small_subspaces(T, z, 0.2)
                A = params.n_small
                neumann = float(N) ** -1.0 * operator_norm(G) * (1.0 / values[A] + (1.0 if A else 0.0))
                expected.append(f"Neumann invertibility condition violated ({neumann:.3g} >= 1): "
                                "inverting anyway" if neumann >= 1.0 else "")
            assert flags == expected

    def test_diag_flags_field_splits_into_the_probe_flags(self, tmp_path):
        # at delta = 1/N every cell's probes carry the Neumann flag, whose text
        # must not contain the ";" that joins a row's flags
        record = self._tiny_run({"preset": "weyl"}, tmp_path)
        flagged = 0
        for name, cell in record.manifest["cells"].items():
            N, seed = int(name[1:].split("_")[0]), int(name.split("_s")[1])
            T = quantize_sphere(PROJECTION, N)
            G = sample_ginibre(N + 1, derive_seed(seed, "cell", N))
            rows = (tmp_path / cell["files"]["diagnostics"]["path"]).read_text().splitlines()
            header = rows[0].split(",")
            for row, z in zip(rows[1:], (0.3 + 0.2j, 0.6)):
                field = dict(zip(header, row.split(",")))["flags"]
                want = b_diagnostics(T, z, 0.2, float(N) ** -1.0, G, 0.0).flags
                assert (tuple(field.split(";")) if field else ()) == want
                flagged += bool(want)
        assert flagged >= 4


LOWER = sphere_symbol({(1, 0, 0): 1.0, (0, 1, 0): 1j})          # x1 + i x2: lower bidiagonal
TILTED = sphere_symbol({(1, 0, 0): 1.0, (0, 1, 0): 1j, (0, 0, 1): 0.5})   # with a diagonal
X1 = sphere_symbol({(1, 0, 0): 1.0})                                    # tridiagonal
# cyclic band 2: cos(4 pi xi) + i sin(2 pi x) + e^{2 pi i (x + xi)} / 4
CYCLIC2 = torus_symbol({(0, 2): 0.5, (0, -2): 0.5, (1, 0): 0.5, (-1, 0): -0.5, (1, 1): 0.25})
# cos(2 pi xi): a Hermitian circulant, so every singular value of P - z is exactly double
DOUBLE = torus_symbol({(0, 1): 0.5, (0, -1): 0.5})
BANDED = {"upper": PROJECTION, "lower": LOWER, "tilted": TILTED, "x1": X1,
          "flag": scottish_flag_symbol(), "cyclic2": CYCLIC2, "double": DOUBLE}


def _with_entries(T, entries):
    """The quantization matrix of ``T``'s symbol and size holding the dense ``entries``."""
    n, cols = T.dim, np.arange(T.dim)
    if T.symbol.kind == "torus":        # cyclic shifts: T[(c + s) mod n, c] over every column
        return _toeplitz(T.N, T.symbol, {s: entries[(cols + s) % n, cols] for s in range(n)})
    return _toeplitz(T.N, T.symbol, {s: np.diagonal(entries, -s) for s in range(1 - n, n)})


def _dense_gram_band(band):
    """The Hermitian matrix held in lower band storage."""
    gram = np.diag(band[0])
    for d in range(1, band.shape[0]):
        gram = gram + np.diag(band[d, :-d], -d)
    return gram + np.tril(gram, -1).conj().T


def _row_gram_band(diags, lo, hi):
    """The Gram band ``band[d, c] = (B*B)[c + d, c]`` from row-indexed diagonals
    ``diags[lo + k, r] = B[r, r + k]``, one accumulation per diagonal pair: the oracle
    of the column-aligned ``grushin._gram_band``."""
    n = diags.shape[1]
    width = min(lo + hi, n - 1)
    band = np.zeros((width + 1, n), dtype=complex)
    for d in range(width + 1):
        for k in range(-lo, hi - d + 1):        # B[r, r+k] and B[r, r+k+d] share row r
            r0, r1 = max(0, -k), min(n, n - k)
            column = diags[lo + k, r0:r1]
            if d == 0:
                band[0, r0 + k:r1 + k] += np.abs(column) ** 2
            else:
                band[d, r0 + k:r1 + k] += diags[lo + k + d, r0:r1].conj() * column
    return band


class TestGramBand:
    """The column-aligned Gram bands against the per-pair loop on row-indexed diagonals, bit for bit."""

    @staticmethod
    def _row_grams(T, z):
        """``_banded_grams`` of ``T - z`` by the oracle's row-indexed layout and loop."""
        band, n = T.band, T.dim
        lo, hi, offsets = band.lo, band.hi, band.cols - band.rows
        diags = np.zeros((lo + hi + 1, n), dtype=complex)
        diags[lo + offsets, band.rows] = band.values
        diags[lo] -= z
        adjoint = np.zeros_like(diags)
        adjoint[hi - offsets, band.cols] = band.values.conj()
        adjoint[hi] -= np.conj(z)
        e = math.frexp(float(np.max(np.abs(diags), initial=0.0)))[1]
        diags, adjoint = (np.ldexp(x.view(float), -e).view(complex) for x in (diags, adjoint))
        return _row_gram_band(diags, lo, hi), _row_gram_band(adjoint, hi, lo)

    # plain sphere bands, interleaved torus bands, and bands as wide as the matrix, where
    # the widest Gram diagonal is one entry
    @pytest.mark.parametrize("space, dim, lo, hi", [
        ("sphere", 40, 3, 5), ("sphere", 41, 0, 2), ("torus", 40, 3, 3), ("torus", 31, 2, 4),
        ("sphere", 201, 100, 100), ("sphere", 12, 11, 11), ("torus", 12, 11, 11),
    ])
    def test_bit_equal_to_the_pair_loop(self, space, dim, lo, hi):
        rng = np.random.default_rng(dim + lo + hi)
        entries = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        r, c = np.indices((dim, dim))
        offset = (c - r + dim // 2) % dim - dim // 2 if space == "torus" else c - r
        entries[(offset > hi) | (offset < -lo) | (rng.random((dim, dim)) < 0.2)] = 0.0
        f = CYCLIC2 if space == "torus" else PROJECTION
        T = _with_entries(quantize_symbol(f, dim - (space == "sphere")), entries)
        if space == "torus" and lo + hi < dim // 2:
            assert T.band.perm is not None
        z = 0.3 - 0.2j
        right, left, *_ = grushin_module._banded_grams(T, z)
        want_right, want_left = self._row_grams(T, z)
        assert right.tobytes() == want_right.tobytes() and left.tobytes() == want_left.tobytes()


class TestBandedRoute:
    """Band selection, and the banded route against the dense oracle."""

    @pytest.mark.parametrize("name", ["upper", "lower", "tilted", "x1", "flag", "cyclic2"])
    def test_bidiagonal_grams_match_dense(self, name):
        T = quantize_symbol(BANDED[name], 30)
        P, z = T.dense(), 0.2 - 0.1j
        right, left, perm, e = grushin_module._banded_grams(T, z)
        assert (perm is None) == (BANDED[name].kind == "sphere")
        order = np.arange(len(P)) if perm is None else perm
        B = (P - z * np.eye(len(P)))[np.ix_(order, order)] / 2.0 ** e
        assert 0.5 <= np.max(np.abs(B)) < 1.0
        # B's band (interleaved on the torus) is 1, 1, 1, 2, 2, 4 wide on either side
        width = {"upper": 1, "lower": 1, "tilted": 1, "x1": 2, "flag": 4, "cyclic2": 8}[name]
        assert right.shape == left.shape == (width + 1, len(P))
        for band, dense in ((right, B.conj().T @ B), (left, B @ B.conj().T)):
            assert np.max(np.abs(_dense_gram_band(band) - dense)) < 1e-14

    @pytest.mark.parametrize("name", ["upper", "flag"])
    @pytest.mark.parametrize("k", [-500, -40, 40, 500])
    def test_a_power_of_two_scale_leaves_the_grams_and_scales_the_values(self, name, k):
        # the Gram bands come from P - z scaled to order 1, so 2^k (P - z) gives the
        # same bits, with no overflow or underflow at 2^+-500 (entries near 1e+-150)
        T, z = quantize_symbol(BANDED[name], 30), 0.2 - 0.1j
        scaled = _with_entries(T, np.ldexp(T.dense().view(float), k).view(complex))
        *grams, e = grushin_module._banded_grams(T, z)
        *scaled_grams, scaled_e = grushin_module._banded_grams(scaled, z * 2.0 ** k)
        assert scaled_e == e + k
        for band, scaled_band in zip(grams, scaled_grams):
            assert band is scaled_band is None or band.tobytes() == scaled_band.tobytes()
        values = grushin_module._small_subspaces(T, z, 0.25)[0]
        scaled_values = grushin_module._small_subspaces(scaled, z * 2.0 ** k, 0.25)[0]
        assert scaled_values.tobytes() == np.ldexp(values, k).tobytes()

    @staticmethod
    def _check_subspaces(T, z):
        """``_small_subspaces`` of ``T - z`` against the SVD; returns it and the triples."""
        small = grushin_module._small_subspaces(T, z, 0.25)
        values, params, left, right_h, residual = small
        tr = singular_triples(T.dense(), z)
        A = params.n_small
        assert A == grushin_params(T.N, 0.25, tr).n_small
        assert np.max(np.abs(values**2 - tr.values**2)) <= 1e-13 * tr.values[-1] ** 2
        eye = np.eye(A)
        assert np.max(np.abs(left.conj().T @ left - eye), initial=0.0) < 1e-12
        assert np.max(np.abs(right_h @ right_h.conj().T - eye), initial=0.0) < 1e-12
        assert residual < 1e-13
        if A:                                                    # same subspaces as the SVD
            for basis, ref in ((left, tr.left_vectors), (right_h.conj().T, tr.right_vectors)):
                cosines = np.linalg.svd(ref[:, :A].conj().T @ basis, compute_uv=False)
                assert cosines.min() > 1.0 - 1e-12
        return small, tr

    def test_stray_and_dense_matrices_get_bands(self):
        T = quantize_sphere(PROJECTION, 30)
        stray = T.dense()
        stray[0, 15] = 1e-3                                      # one far entry
        dense = sample_ginibre(31, 5)
        # the far entry widens the upper bidiagonal to 15; a dense matrix hits the cap n - 1
        for P, width in ((stray, 15), (dense, 30)):
            right, left, perm, _ = grushin_module._banded_grams(_with_entries(T, P), 0.1)
            assert perm is None and right.shape == left.shape == (width + 1, 31)
            (_, params, _, _, _), _ = self._check_subspaces(_with_entries(T, P), 0.1)
            assert params.n_small >= 1

    @pytest.mark.parametrize("name", list(BANDED))
    def test_matches_dense_oracle(self, name):
        T = quantize_symbol(BANDED[name], 79 if BANDED[name].kind == "sphere" else 80)
        delta, seed = T.N ** -1.5, 23
        G = sample_ginibre(T.dim, seed)
        image = symbol_image(T.symbol, 60)
        counts = []
        for z in (0.3 + 0.2j, 0.0, 50.0):
            (values, params, _, _, residual), tr = self._check_subspaces(T, z)
            A = params.n_small
            if z == 0.0 and name in ("upper", "lower"):         # pure shifts: a kernel
                assert tr.values[0] < 1e-14 and values[0] < 1e-7
            if name == "double":
                assert A % 2 == 0
                assert np.max(np.abs(values[:A:2] - values[1:A:2]), initial=0.0) < 1e-7

            classical = limit_potential_many(image, [z])[0]
            diag = b_diagnostics(T, z, 0.25, delta, G, classical)
            A_slow, b2, b3, _ = _slow_split(T, z, 0.25, delta, G)
            b1 = float(np.sum(np.log(tr.values[A:]))) / T.dim - classical
            assert diag.n_small == A == A_slow
            assert diag.b1 == pytest.approx(b1, abs=1e-12)
            assert diag.b2 == pytest.approx(b2, abs=1e-12)
            assert diag.b3 == pytest.approx(b3, abs=1e-12)
            assert _schur_gap(T, z, delta, G, diag) <= 1e-10
            assert diag.subspace_residual == residual
            assert diag.cutoff_gap == pytest.approx(
                np.min(np.abs(tr.values**2 - params.alpha)) / params.alpha, abs=1e-10)
            counts.append(A)
        assert counts[0] >= 1 and counts[1] >= 1 and counts[2] == 0


class TestSmallSubspaces:
    """The one orthonormalization rule of ``_smallest_eigenvectors``, and its hardest workload probe."""

    @pytest.mark.parametrize("every_solve", [False, True])
    def test_a_column_in_the_span_takes_a_fresh_start(self, monkeypatch, every_solve):
        # M = diag(1, 1, 1, 2, ...): the cluster's solve returns its first column twice and a
        # zero one; neither becomes nan
        diagonal = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0])
        real, solves = lapack_module.band_solve, []

        def degenerate(*args):
            x = real(*args)
            if x.shape[1] == 3 and (every_solve or not solves):
                x[:, 1], x[:, 2] = x[:, 0], 0.0
            solves.append(x.shape[1])
            return x

        monkeypatch.setattr(lapack_module, "band_solve", degenerate)
        basis, residual = grushin_module._smallest_eigenvectors(diagonal[None, :].astype(complex), diagonal, 4)
        assert solves == [3, 3, 1, 1] and np.all(np.isfinite(basis))
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(4))) < 1e-15
        if every_solve:         # fresh columns after the last solve are no eigenvectors: the residual says so
            assert residual > 1e-3
        else:                   # one solve takes them to within tol / (2 - 1) = 2.3e-14 of span(e_0..e_3)
            assert residual < 1e-13 and np.max(np.abs(basis[4:])) < 1e-13

    def test_grushin_scan_probe_with_the_most_clusters(self):
        # grushin-scan's z = 0.8i: A = 46 in 39 clusters (7 exact pairs), lambda_{A+1} / lambda_A = 1.028
        cfg = harness_module.preset_config("sphere-figure3")
        T, z = quantize_symbol(cfg.symbol_spec(), 600), 0.8j
        with lapack_module.counting() as counts:
            values, params, left, right_h, residual = grushin_module._small_subspaces(T, z, cfg.rho)
        A = params.n_small
        assert A == 46 and 1.02 < values[A] ** 2 / values[A - 1] ** 2 < 1.03
        assert counts == {"zhbevd": {"601,1": 1}, "zgbtrf": {"601,601,1,1": 2 * 39},
                          "zgbtrs": {"601,1,1,1": 4 * 32, "601,1,1,2": 4 * 7}}
        eye = np.eye(A)
        assert np.max(np.abs(left.conj().T @ left - eye)) < 1e-14
        assert np.max(np.abs(right_h @ right_h.conj().T - eye)) < 1e-14
        assert residual <= 1e-15
        # sine of the largest principal angle to the dense SVD's span: 2.3e-14 on either side,
        # against the Davis-Kahan scale eps ||M|| / (lambda_{A+1} - lambda_A) = 3.4e-13
        tr = singular_triples(T.dense(), z)
        for basis, ref in ((left, tr.left_vectors[:, :A]), (right_h.conj().T, tr.right_vectors[:, :A])):
            assert np.linalg.norm(basis - ref @ (ref.conj().T @ basis), 2) < 1e-13


class TestCountScan:
    def test_far_probe_all_zero(self):
        scan = small_eigen_count_scan(PROJECTION, 50.0, 0.25, [30, 60, 90])
        assert scan.counts == (0, 0, 0)
        assert scan.fitted_exponent is None

    def test_rejects_rho_outside_cutoff_window(self):
        # the scan counts with b_diagnostics' cutoff rule, rho in (0, 1/2) included
        with pytest.raises(ValueError, match="rho"):
            small_eigen_count_scan(PROJECTION, 0.3 + 0.2j, 0.5, [30])

    def test_two_sizes_fit_a_line(self):
        # two points determine the growth exponent exactly
        scan = small_eigen_count_scan(PROJECTION, 0.3 + 0.2j, 0.25, [100, 200])
        assert scan.counts == (5, 7)
        assert scan.fitted_exponent == pytest.approx(np.log(7 / 5) / np.log(2))

    def test_counts_need_no_subspace(self, monkeypatch):
        # the counts are the split's A, from the singular values alone: no inverse iteration
        sizes = [60, 100, 150]
        want = tuple(grushin_module._small_subspaces(quantize_symbol(PROJECTION, N), 0.3 + 0.2j, 0.25)[1].n_small
                     for N in sizes)

        def refuse(*args):
            raise AssertionError("the count scan factored a shifted Gram band")

        monkeypatch.setattr(lapack_module, "band_lu", refuse)
        scan = small_eigen_count_scan(PROJECTION, 0.3 + 0.2j, 0.25, sizes)
        assert scan.counts == want and min(want) >= 1

    def test_counts_grow_sublinearly(self):
        scan = small_eigen_count_scan(PROJECTION, 0.3 + 0.2j, 0.25,
                                      [50, 100, 200, 300])
        assert all(c >= 1 for c in scan.counts)
        assert scan.fitted_exponent is not None and scan.fitted_exponent < 1.0
        # vanishing density of small singular values
        fractions = np.asarray(scan.counts) / (np.asarray(scan.n_values) + 1.0)
        assert fractions[-1] < fractions[0]


class TestProbeMemory:
    """``b_diagnostics`` factors each dense matrix where it builds it and keeps its inputs."""

    @staticmethod
    def _probe(dim=400, z=0.3 + 0.2j):
        N = dim - 1
        T = quantize_sphere(PROJECTION, N)
        G = sample_ginibre(dim, derive_seed(3, "memory", N))
        return T, z, G, NormBound(G)

    def test_peak_is_the_bordered_matrix_plus_o_dim_a(self):
        T, z, G, g_norm = self._probe()
        delta = T.N ** -1.25
        b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=g_norm)       # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            diag = b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=g_norm)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        dim, A = T.dim, diag.n_small
        assert A >= 10
        # beside the bordered matrix: the two small bases and the solve against
        # [0; I_A] (O(dim A)), a 64-column block of |M| and the finiteness mask;
        # a dim^2 copy of P + delta G - z or a (dim + A)^2 |M| does not fit
        assert peak <= 16 * (dim + A) * (dim + A + 5 * A + 48)

    def test_inputs_stay_unchanged(self):
        T, z, G, g_norm = self._probe(dim=120)
        entries, noise = T.dense(), G.copy()
        for delta in (0.0, T.N ** -1.25):
            b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=g_norm)
            assert T.dense().tobytes() == entries.tobytes()
            assert G.tobytes() == noise.tobytes()

    @classmethod
    def _over_g(cls, T, z, delta):
        """The split in a bordered buffer whose top-left block holds ``G``, and ``G``'s bound."""
        subspaces = grushin_module._small_subspaces(T, z, 0.25)
        A = subspaces[1].n_small
        bordered = np.empty((T.dim + A, T.dim + A), dtype=complex, order="F")
        G = sample_ginibre(T.dim, derive_seed(3, "memory", T.N), out=bordered[:T.dim, :T.dim])
        g_norm = NormBound(G)
        diag = b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=g_norm, bases=subspaces, bordered=bordered)
        return diag, g_norm

    def test_split_over_g_is_the_split_of_a_new_matrix(self):
        T, z, G, g_norm = self._probe(dim=160)
        delta = T.N ** -1.25
        want = b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=g_norm)
        got, over = self._over_g(T, z, delta)
        assert want.n_small >= 1 and got == want
        # delta G overwrote G, so no exact norm can come from it any more
        assert over.route == g_norm.route == "cholesky"
        with pytest.raises(RuntimeError, match="overwritten"):
            over.exact()

    def test_exact_norm_comes_before_g_is_overwritten(self):
        # deltas where the certified bound cannot rule the Neumann warning out: the exact norm
        # decides, and with G intact, as a split beside G gives it
        T, z, G, g_norm = self._probe(dim=160)
        values, params, *_ = grushin_module._small_subspaces(T, z, 0.25)
        reach = 1.0 / values[params.n_small] + 1.0
        exact = operator_norm(G)
        for delta, flagged in ((2.0 / (reach * (exact + g_norm.bound)), False), (2.0 / (reach * exact), True)):
            want = b_diagnostics(T, z, 0.25, delta, G, 0.0, g_norm=NormBound(G))
            got, over = self._over_g(T, z, delta)
            assert got.flags == want.flags and any("Neumann" in f for f in got.flags) == flagged
            assert over.route == "svd-exact" and over.exact() == exact

    def test_bordered_of_another_shape_refused(self):
        T, z, G, g_norm = self._probe(dim=60)
        subspaces = grushin_module._small_subspaces(T, z, 0.25)
        A = subspaces[1].n_small
        for bordered in (np.empty((T.dim + A + 1, T.dim + A + 1), dtype=complex, order="F"),
                         np.empty((T.dim + A, T.dim + A), dtype=complex)):
            with pytest.raises(ValueError, match="bordered"):
                b_diagnostics(T, z, 0.25, 0.01, G, 0.0, g_norm=g_norm, bases=subspaces, bordered=bordered)
