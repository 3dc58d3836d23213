"""The ``ctypes`` LAPACK binding against its oracles, ``scipy.linalg`` on the same matrices.

Both OpenBLAS builds are pinned to one thread, numpy's as in a run and
scipy's, which only the oracles call, beside it, so each routine must match
its scipy counterpart bit for bit, the LU log-determinant
``np.linalg.slogdet`` and the singular values ``np.linalg.svd``.
"""

import builtins
import ctypes
import threading
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import toeplab._lapack as _lapack
from toeplab.cli import main as cli_main
from toeplab.grushin import _banded_grams, _small_subspaces, b_diagnostics
from toeplab.harness import _pinned_blas, _usable_cpus, preset_config, run
from toeplab.potential import log_abs_det
from toeplab.quantize import quantize_symbol
from toeplab.randmat import NormBound, derive_seed, operator_norm, sample_ginibre

PRESETS = ("sphere-figure3", "scottish-flag-figure1")
DIMS = (31, 301, 601)


def _cell(preset: str, dim: int):
    """The preset's quantization matrix of dimension ``dim`` and its perturbed cell matrix."""
    cfg = preset_config(preset)
    N = dim - 1 if cfg.space == "sphere" else dim
    T = quantize_symbol(cfg.symbol_spec(), N)
    return T, T.dense() + cfg.noise_size(N) * sample_ginibre(dim, derive_seed(0, "cell", N))


def _matrix(kind: str, dim: int) -> np.ndarray:
    return sample_ginibre(dim, derive_seed(7, "lapack", dim)) if kind == "ginibre" else _cell(kind, dim)[1]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(autouse=True)
def pinned():
    # scipy's LP64 OpenBLAS, found as _lapack finds numpy's: through the extension that links it
    scipy_blas = ctypes.CDLL(scipy.linalg._flapack.__file__)
    get, set_ = scipy_blas.scipy_openblas_get_num_threads, scipy_blas.scipy_openblas_set_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    count = get()
    set_(1)
    try:
        with _pinned_blas():
            yield
    finally:
        set_(count)


@pytest.mark.parametrize("kind", ("ginibre",) + PRESETS)
@pytest.mark.parametrize("dim", DIMS)
def test_lu_solve_and_rcond_bit_equal_to_scipy(kind, dim):
    M = _matrix(kind, dim) - (0.3 + 0.2j) * np.eye(dim)
    lu, piv = _lapack.lu_factor(np.array(M, order="F"))
    want_lu, want_piv = scipy.linalg.lu_factor(M)
    assert _same_bits(lu, want_lu) and np.array_equal(piv - 1, want_piv)   # LAPACK's 1-based pivots
    unit = np.zeros((dim, 5), dtype=complex)
    unit[-5:] = np.eye(5)
    assert _same_bits(_lapack.lu_solve(lu, piv, unit), scipy.linalg.lu_solve((want_lu, want_piv), unit))
    anorm = np.linalg.norm(M, 1)
    assert _lapack.rcond(lu, anorm) == scipy.linalg.lapack.zgecon(want_lu, anorm, norm="1")[0]


@pytest.mark.parametrize("kind", ("ginibre",) + PRESETS)
@pytest.mark.parametrize("dim", DIMS)
def test_singular_values_bit_equal_to_numpy(kind, dim):
    M = _matrix(kind, dim)
    for block in (M, M[:, : dim // 3], M[: dim // 3]):
        assert _same_bits(_lapack.singular_values(block), np.linalg.svd(block, compute_uv=False))
    assert operator_norm(M) == np.linalg.norm(M, 2)
    with pytest.raises(ValueError):
        _lapack.singular_values(np.where(np.eye(dim) > 0, np.inf, M))


@pytest.mark.parametrize("kind", ("ginibre",) + PRESETS)
@pytest.mark.parametrize("dim", DIMS)
def test_cholesky_info_and_factor_equal_to_scipy(kind, dim):
    M = _matrix(kind, dim)
    gram = M.conj().T @ M
    bound = np.linalg.norm(M, "fro") ** 2
    for shifted, definite in ((bound * np.eye(dim) - gram, True), (gram - bound / dim * np.eye(dim), False)):
        got, want = np.array(shifted, order="F"), np.array(shifted, order="F")
        info = _lapack.cholesky_upper(got)
        want_info = scipy.linalg.lapack.zpotrf(want, lower=0, clean=0, overwrite_a=1)[1]
        assert info == want_info and (info == 0) == definite
        assert _same_bits(got, want)


@pytest.mark.parametrize("kind", ("ginibre",) + PRESETS)
@pytest.mark.parametrize("dim", DIMS)
def test_upper_adjoint_solve_bit_equal_to_scipy(kind, dim):
    # a Cholesky factor from cholesky_upper, as the norm certificate solves with it
    M = _matrix(kind, dim)
    r = np.array(M.conj().T @ M + np.linalg.norm(M, "fro") ** 2 * np.eye(dim), order="F")
    assert _lapack.cholesky_upper(r) == 0
    b = np.array(_matrix("ginibre", dim)[:, :7], order="F")
    want = scipy.linalg.lapack.ztrtrs(r, b, lower=0, trans=2)[0]
    _lapack.solve_upper_adjoint(r, b)
    assert _same_bits(b, want)
    with pytest.raises(ValueError):
        _lapack.solve_upper_adjoint(r, np.ascontiguousarray(b))
    with pytest.raises(ValueError):
        _lapack.solve_upper_adjoint(r, np.asfortranarray(b[:-1]))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("dim", DIMS)
def test_banded_values_lu_and_solve_bit_equal_to_scipy(preset, dim):
    T, _ = _cell(preset, dim)
    band = _banded_grams(T, 0.3 + 0.2j)[0]          # lower band storage of B*B
    values = _lapack.eigvalsh_banded(band)
    assert _same_bits(values, scipy.linalg.eig_banded(band, lower=True, eigvals_only=True))
    w, n = band.shape[0] - 1, band.shape[1]
    full = np.zeros((3 * w + 1, n), dtype=complex)           # general band storage, w fill rows
    full[2 * w:] = band
    for d in range(1, w + 1):
        full[2 * w - d, d:] = band[d, :n - d].conj()
    full[2 * w] -= values[0] * (1.0 - 1e-6)                  # nearly singular, as in inverse iteration
    lu, piv = _lapack.band_lu(np.array(full, order="F"), w, w)
    want_lu, want_piv, _ = scipy.linalg.lapack.zgbtrf(full, w, w)
    assert _same_bits(lu, want_lu) and np.array_equal(piv - 1, want_piv)
    block = np.random.default_rng(dim).standard_normal((n, 3)).astype(complex)
    assert _same_bits(_lapack.band_solve(lu, piv, w, w, block),
                      scipy.linalg.lapack.zgbtrs(want_lu, w, w, block, want_piv)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_input_raises_value_error_as_scipy_does(bad):
    M = sample_ginibre(31, 3)
    M[4, 7] = bad
    with pytest.raises(ValueError):
        scipy.linalg.lu_factor(M)
    with pytest.raises(ValueError):
        _lapack.lu_factor(np.array(M, order="F"))
    band = np.ones((2, 31), dtype=complex)
    band[1, 3] = bad
    with pytest.raises(ValueError):
        _lapack.eigvalsh_banded(band)


def test_bordered_lu_releases_the_gil(spin_ratio):
    """A spinning main thread keeps its pace beside the bordered LU of a dim-301 probe."""
    if _usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    T, M = _cell("sphere-figure3", 301)
    _, params, left, right_h, _ = _small_subspaces(T, 0.3 + 0.2j, 0.2)
    A = params.n_small
    bordered = np.zeros((301 + A, 301 + A), dtype=complex, order="F")
    bordered[:301, :301] = M - (0.3 + 0.2j) * np.eye(301)
    bordered[:301, 301:], bordered[301:, :301] = left, right_h
    anorm = np.linalg.norm(bordered, 1)
    unit = np.zeros((301 + A, A), dtype=complex)
    unit[301:] = np.eye(A)

    def work():
        for _ in range(5):
            lu, piv = _lapack.lu_factor(np.array(bordered, order="F"))
            _lapack.rcond(lu, anorm)
            _lapack.lu_solve(lu, piv, unit)

    ratios = []
    for _ in range(3):
        ratios.append(spin_ratio(work))
        if ratios[-1] >= 0.3:
            return
    pytest.fail(f"spinner kept only {ratios} of its sleeping rate")


@pytest.mark.parametrize("kind", ("ginibre",) + PRESETS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("z", (0.0, 0.3 + 0.2j))
def test_log_abs_det_bit_equal_to_slogdet(kind, dim, z):
    M = _matrix(kind, dim)
    want = np.linalg.slogdet(M - z * np.eye(dim))[1]
    assert _same_bits(np.float64(log_abs_det(M, z)), want)
    if z == 0.0:
        assert _same_bits(np.float64(log_abs_det(M)), want)


def test_log_abs_det_of_a_singular_matrix_is_minus_inf():
    M = sample_ginibre(31, 5)
    M[:, 3] = 0.0                       # column 3 stays zero under elimination: u_33 = 0
    assert np.linalg.slogdet(M)[0] == 0.0
    assert log_abs_det(M) == float("-inf")
    assert log_abs_det(M + 0.5 * np.eye(31), 0.5) == float("-inf")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_abs_det_refuses_nonfinite_input(bad):
    # slogdet returns nan here; the LU route raises, as lu_factor does
    M = sample_ginibre(31, 3)
    M[4, 7] = bad
    with pytest.raises(ValueError):
        log_abs_det(M)


def test_log_abs_det_releases_the_gil(spin_ratio):
    """A spinning main thread keeps its pace beside the log-determinant of a dim-301 cell."""
    if _usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    _, M = _cell("sphere-figure3", 301)
    shifted = M - (0.3 + 0.2j) * np.eye(301)

    def work():
        for _ in range(20):
            log_abs_det(shifted)

    ratios = []
    for _ in range(3):
        ratios.append(spin_ratio(work))
        if ratios[-1] >= 0.3:
            return
    pytest.fail(f"spinner kept only {ratios} of its sleeping rate")


#: The gufuncs of numpy's linalg extension that a tiny run of each preset calls: the four calls
#: that bypass this module.  ``_smallest_eigenvectors`` takes ``np.linalg.qr`` (``qr_r_raw`` and
#: ``qr_reduced``) and ``np.linalg.eigh`` (``eigh_lo``), the kappa fit's ``np.polyfit`` takes
#: ``lstsq``, and the sphere quadrature's ``leggauss`` takes ``eigvalsh_lo``.
BYPASSES = {"sphere-figure3": {"qr_r_raw", "qr_reduced", "eigh_lo", "lstsq", "eigvalsh_lo"},
            "scottish-flag-figure1": {"qr_r_raw", "qr_reduced", "eigh_lo", "lstsq"}}


@pytest.mark.parametrize("preset", PRESETS)
def test_a_run_takes_no_dense_call_outside_this_module(preset, monkeypatch, tmp_path):
    """A tiny run of each preset reaches numpy's linalg gufuncs only through :data:`BYPASSES`.

    Every gufunc of ``numpy.linalg._umath_linalg`` is wrapped, so a new
    ``np.linalg`` call of a run (a solver, a determinant, an SVD or an SVD
    norm among them) adds its gufunc to the set and fails the test.
    """
    from numpy.linalg import _umath_linalg
    called = set()

    def recording(name, gufunc):
        def call(*args, **kwargs):
            called.add(name)                    # one atomic add: pool threads call these too
            return gufunc(*args, **kwargs)
        return call

    for name, gufunc in vars(_umath_linalg).items():
        if isinstance(gufunc, np.ufunc):
            monkeypatch.setattr(_umath_linalg, name, recording(name, gufunc))
    cfg = preset_config(preset)
    cfg.n_values, cfg.seeds, cfg.probe_grid = [40], [0, 1], {"nx": 4, "ny": 4}
    record = run(cfg, tmp_path)
    assert not record.manifest["errors"]
    cells = record.manifest["cells"].values()
    assert sum("diagnostics" in c["files"] for c in cells) == 2
    assert all("potential" in c["files"] for c in cells)
    assert called == BYPASSES[preset]


def test_foreign_factor_is_refused():
    # a pointer is passed only for an array laid out as this module's factorization
    M = _matrix("ginibre", 31)
    lu, piv = _lapack.lu_factor(np.array(M, order="F"))
    unit = np.eye(31, 2, dtype=complex)
    for bad_lu, bad_piv in ((np.ascontiguousarray(lu), piv), (lu, piv.astype(np.int32)), (lu, piv[:-1])):
        with pytest.raises(ValueError):
            _lapack.lu_solve(bad_lu, bad_piv, unit)
    with pytest.raises(ValueError):
        _lapack.lu_solve(lu, piv, unit[:-1])


def test_a_numpy_without_lapacke_is_refused_in_one_line(monkeypatch, tmp_path, capsys):
    # an unsupported build ended in "'NoneType' object is not subscriptable" before this refusal
    monkeypatch.setattr(_lapack, "routines", lambda: None)
    out = tmp_path / "run"
    assert cli_main(["run", "--preset", "sphere-figure3", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "numpy's OpenBLAS LAPACKE" in lines[0]
    assert not out.exists()
    with pytest.raises(_lapack.UnsupportedBuildError) as refused:
        _lapack.lu_factor(np.eye(3, dtype=complex))
    assert lines[0] == f"toeplab: {refused.value}"


def test_binding_opens_no_file(monkeypatch):
    # bound through numpy's linalg extension: no list of mapped libraries is read
    opened, real_open = [], builtins.open

    def recording(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    _lapack.routines.cache_clear()
    try:
        assert _lapack.routines() is not None
    finally:
        _lapack.routines.cache_clear()
    assert opened == []


def test_a_library_that_cannot_be_opened_is_an_unsupported_build(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise OSError("cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    _lapack.routines.cache_clear()
    try:
        with pytest.raises(_lapack.UnsupportedBuildError):
            run(preset_config("sphere-figure3"), tmp_path / "run")
        out = tmp_path / "cli"
        assert cli_main(["run", "--preset", "sphere-figure3", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("toeplab: numpy's OpenBLAS LAPACKE is required")
        assert not (tmp_path / "run").exists() and not out.exists()
    finally:
        _lapack.routines.cache_clear()


def _count_calls(monkeypatch) -> list:
    """``(routine, order)`` of every LAPACKE call from now on, from any thread.

    The order is the routine's first integer argument (``m``, ``n`` or a band's ``n``).
    """
    calls, lock, real = [], threading.Lock(), _lapack._call

    def counting(name, *args):
        with lock:
            calls.append((name, next(a for a in args if isinstance(a, int))))
        return real(name, *args)

    monkeypatch.setattr(_lapack, "_call", counting)
    return calls


@pytest.mark.parametrize("preset", PRESETS)
def test_a_spectrum_cell_takes_one_zgeev_and_no_dense_lu(preset, monkeypatch, tmp_path):
    # zgeev's workspace query, then zgeev; the potential is the eigenvalues' log-sum,
    # checked in the unperturbed cell by one banded LU per kept probe, so no zgetrf
    cfg = preset_config(preset)
    cfg.n_values, cfg.seeds, cfg.unperturbed_sizes = [40], [0, 1], [30]
    calls = _count_calls(monkeypatch)
    record = run(cfg, tmp_path, stages=("spectrum", "potential"))
    assert not record.manifest["errors"] and len(record.manifest["cells"]) == 3
    dims = [d + (cfg.space == "sphere") for d in (40, 40, 30)]
    kept = 144 - record.manifest["cells"]["N30_unperturbed"]["health"]["probes_dropped"]
    assert Counter(calls) == Counter({**{("zgeev_work", dim): 2 * dims.count(dim) for dim in dims},
                                      ("zgbtrf_work", dims[2]): kept})


def test_each_bound_routine_is_called_here():
    # _lapack binds only what a function of its own calls, by name, through _call
    import ast
    import inspect
    called = {node.args[0].value for node in ast.walk(ast.parse(inspect.getsource(_lapack)))
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_call"
              and node.args and isinstance(node.args[0], ast.Constant)}
    assert called == set(_lapack._SIGNATURES)


def test_a_grushin_probe_takes_one_lu_per_dense_matrix(monkeypatch):
    # A >= 1: the bordered matrix (dim + A) and the corner (A); Schur route one
    # comes from the cell's eigenvalues, so no LU of size dim
    cfg = preset_config("sphere-figure3")
    T = quantize_symbol(cfg.symbol_spec(), 120)
    G = sample_ginibre(T.dim, derive_seed(0, "cell", 120))
    g_norm = NormBound(G)
    calls = _count_calls(monkeypatch)
    diag = b_diagnostics(T, 0.3 + 0.2j, cfg.rho, cfg.noise_size(120), G, 0.0, g_norm=g_norm)
    A = diag.n_small
    assert A >= 1
    lus = sorted(n for name, n in calls if name == "zgetrf_work")
    assert lus == [A, T.dim + A]
    assert {name for name, _ in calls} == {"zhbevd", "zgbtrf_work", "zgbtrs_work", "zgetrf_work",
                                           "zgetrs_work", "zgecon_work"}


def test_a_grushin_ladder_run_takes_no_lu_of_the_cell_matrix(monkeypatch, tmp_path):
    # the benchmark's grushin-scan ladder at N = 36: a probe with A >= 1 factors the
    # bordered matrix (dim + A) and the corner (A), one with A = 0 the bordered matrix
    # (dim) alone; route one of every Schur check is the cell's eigenvalues' log-sum,
    # so a dim-sized LU at a probe with A >= 1 adds an entry
    cfg = preset_config("sphere-figure3")
    cfg.n_values, cfg.seeds, cfg.probe_grid = [36], [0], {"points": [[0.5, 0.1], [1.5, 1.5]]}
    cfg.grushin_probes = [[0.0, 0.0], [0.3, 0.2], [0.6, 0.0], [0.0, 0.8], [0.9, 0.0],
                          [0.97, 0.0], [1.2, 0.0], [0.0, 1.5]]
    calls = _count_calls(monkeypatch)
    record = run(cfg, tmp_path)
    assert not record.manifest["errors"]
    rows = (tmp_path / "diag_N36_s0.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[6]) for row in rows]
    assert 0 in counts and sum(A >= 1 for A in counts) >= 4
    lus = sorted(n for name, n in calls if name == "zgetrf_work")
    assert lus == sorted(n for A in counts for n in ([37 + A, A] if A else [37]))
