"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and asserts
the criterion.  The Weyl-law, potential, sign and determinism criteria share
a single harness run of the acceptance configuration (sphere projection
symbol, sizes 100 and 300, five seeds, noise delta = 1/N).

Criterion 3 is asserted exactly as stated (size 300, 50 radii spanning
[0, 1], uniform tolerance 0.05).  At size 300 the classical measure places
about 20% of its mass within 0.02 of the unit circle's rim while every
perturbed eigenvalue stays below radius ~0.977, so the criterion fails at
roughly 0.20 regardless of the admissible noise size; the companion
reference test shows the same check passing at the figure scale (size 2000).
See the README section "Acceptance status" for the full analysis.
"""

import numpy as np
import pytest

from toeplab import harness
from toeplab.calculus import (
    chebyshev_surrogate,
    composition_residual,
    functional_calculus_residual,
    norm_bound_check,
    trace_residual,
)
from toeplab.geometry import (
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_image,
)
from toeplab.grushin import (
    assemble_grushin,
    b_diagnostics,
    closed_form_inverse,
    grushin_params,
    schur_identity_residual,
    singular_triples,
    small_eigen_count_scan,
)
from toeplab.harness import acceptance_config, run
from toeplab.potential import limit_potential_many
from toeplab.quantize import bergman_dimension, quantize_sphere, quantize_torus
from toeplab.randmat import (
    TAIL_BOUND_CONSTANT,
    fit_tail_slope,
    operator_norm,
    sample_ginibre,
    smin_tail_experiment,
)

TORUS = make_phase_space("torus")
SPHERE = make_phase_space("sphere")
PROJECTION = sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def figure_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    record = run(acceptance_config(), out_dir=out, workers=2)
    assert record.manifest["errors"] == {}
    return out, record


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return [ln.split(",") for ln in lines[1:]]


def test_criterion_01_crossed_cosines_matrix():
    worst = 0.0
    for N in (8, 50):
        T = quantize_torus(scottish_flag_symbol(), N).dense()
        expected = np.diag(np.cos(2 * np.pi * np.arange(1, N + 1) / N)).astype(complex)
        idx = np.arange(N - 1)
        expected[idx, idx + 1] = 0.5j
        expected[idx + 1, idx] = 0.5j
        expected[0, N - 1] = 0.5j
        expected[N - 1, 0] = 0.5j
        worst = max(worst, float(np.max(np.abs(T - expected))))
    detail = report(1, worst <= 1e-12, f"entrywise deviation {worst:.2e} (tolerance 1e-12)")
    assert worst <= 1e-12, detail


def test_criterion_02_dimension_law():
    worst = 0.0
    for space in (TORUS, SPHERE):
        for N in range(10, 401):
            dev = abs(bergman_dimension(space, N) - (N / (2 * np.pi)) * space.volume)
            worst = max(worst, dev)
    ok = worst <= 1.0 + 1e-12  # the sphere deviation is exactly 1
    detail = report(2, ok, f"max |dim - (N/2pi) vol| = {worst:.6f} (tolerance 1)")
    assert ok, detail


def test_criterion_03_weyl_law_desk_scale(figure_run):
    out, record = figure_run
    radii = np.linspace(0.0, 1.0, 50)
    closed = 1.0 - np.sqrt(np.clip(1.0 - radii**2, 0.0, None))
    worst = 0.0
    for seed in record.manifest["config"]["seeds"]:
        rows = read_csv(out / f"cdf_N300_s{seed}.csv")
        emp = np.array([float(r[1]) for r in rows])
        assert np.allclose([float(r[0]) for r in rows], radii)
        worst = max(worst, float(np.max(np.abs(emp - closed))))
    ok = worst <= 0.05
    detail = report(3, ok, f"sup CDF deviation over 5 seeds {worst:.4f} (tolerance 0.05); "
                           "known rim defect at desk scale, see README 'Acceptance status' and the "
                           "figure-scale reference test")
    assert ok, detail


def test_criterion_03_reference_figure_scale():
    # the same check at the figure scale (size 2000), one seed: the rim gap
    # narrows below the radii grid spacing and the criterion's tolerance holds
    N = 2000
    T = quantize_sphere(PROJECTION, N)
    G = sample_ginibre(T.dim, 424242)
    lam = np.linalg.eigvals(T.dense() + (1.0 / N) * G)
    radii = np.linspace(0.0, 1.0, 50)
    closed = 1.0 - np.sqrt(np.clip(1.0 - radii**2, 0.0, None))
    emp = (np.abs(lam)[None, :] <= radii[:, None]).mean(axis=1)
    worst = float(np.max(np.abs(emp - closed)))
    ok = worst <= 0.05
    detail = report(3, ok, f"[reference, size 2000] sup CDF deviation {worst:.4f} (tolerance 0.05)")
    assert ok, detail


def test_criterion_04_potential_convergence(figure_run):
    out, record = figure_run
    medians = {}
    for N in (100, 300):
        devs = []
        for seed in record.manifest["config"]["seeds"]:
            for r in read_csv(out / f"pot_N{N}_s{seed}.csv"):
                d = float(r[6])
                if np.isfinite(d):
                    devs.append(d)
        assert len(devs) >= 100 * len(record.manifest["config"]["seeds"])
        medians[N] = float(np.median(devs))
    ok = medians[300] <= 0.05 and medians[300] < medians[100]
    detail = report(4, ok, f"median |U_emp - U_lim|: size 100 -> {medians[100]:.5f}, "
                           f"size 300 -> {medians[300]:.5f} (tolerance 0.05, decreasing)")
    assert ok, detail


def test_criterion_05_schur_identity_random_triples():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(10, 201))
        P = sample_ginibre(dim, 3000 + trial)
        lam = np.linalg.eigvals(P)
        z = complex(lam[int(rng.integers(dim))]) + float(rng.uniform(1e-4, 1e-2))
        delta = float(rng.choice([0.0, 1e-3, 1e-2]))
        pert = None if delta == 0.0 else (delta, sample_ginibre(dim, 4000 + trial))
        res = schur_identity_residual(P, z, pert)
        assert np.isfinite(res)
        worst = max(worst, res)
    ok = worst <= 1e-6
    detail = report(5, ok, f"worst residual over 50 triples {worst:.2e} (tolerance 1e-6)")
    assert ok, detail


def test_criterion_06_closed_form_inverse():
    rng = np.random.default_rng(66)
    worst_block = 0.0
    checked = 0
    for trial in range(20):
        dim = int(rng.integers(8, 60))
        P = sample_ginibre(dim, 500 + trial)
        lam = np.linalg.eigvals(P)
        z = complex(lam[int(rng.integers(dim))]) + float(rng.uniform(1e-4, 0.05))
        triples = singular_triples(P, z)
        params = grushin_params(max(dim, 4), 0.3, triples.values)
        blocks = closed_form_inverse(triples, params.n_small)
        system = assemble_grushin(triples, params)
        worst_block = max(
            worst_block,
            float(np.max(np.abs(system.bulk_inverse - blocks.bulk_inverse))),
            float(np.max(np.abs(system.corner - blocks.corner))) if params.n_small else 0.0,
        )
        assert operator_norm(blocks.bulk_inverse) <= params.alpha ** -0.5
        if params.n_small >= 1:
            checked += 1
            assert abs(operator_norm(blocks.right_injection) - 1.0) <= 1e-12
            assert operator_norm(blocks.corner) <= np.sqrt(params.alpha)
    ok = worst_block <= 1e-8 and checked >= 5
    detail = report(6, ok, f"worst blockwise gap {worst_block:.2e} (tolerance 1e-8); "
                           f"norm identities held on all 20 cases ({checked} with coupling)")
    assert ok, detail


def test_criterion_07_bulk_term_decay():
    classical = limit_potential_many(symbol_image(PROJECTION, 400), [0.3 + 0.2j])[0]
    values = {}
    for N in (100, 200):
        T = quantize_sphere(PROJECTION, N)
        G = sample_ginibre(T.dim, 7)
        diag = b_diagnostics(T, 0.3 + 0.2j, 0.25, 1.0 / N, G, classical)
        values[N] = abs(diag.b1)
    ok = values[200] < values[100] < 0.1
    detail = report(7, ok, f"|B1|: size 100 -> {values[100]:.5f}, size 200 -> {values[200]:.5f} "
                           "(both < 0.1, decreasing)")
    assert ok, detail


def test_criterion_08_corner_term_negative(figure_run):
    out, record = figure_run
    total, bad = 0, 0
    for seed in record.manifest["config"]["seeds"]:
        for r in read_csv(out / f"diag_N300_s{seed}.csv"):
            if int(r[6]) >= 1:
                total += 1
                if not float(r[9]) < 0.0:
                    bad += 1
    ok = total >= 1 and bad == 0
    detail = report(8, ok, f"B3 < 0 in {total - bad}/{total} realizations with coupling")
    assert ok, detail


def test_criterion_09_small_count_growth(figure_run):
    _, record = figure_run
    kappa_hat = record.manifest["kappa_hat"]
    scan = small_eigen_count_scan(PROJECTION, 0.3 + 0.2j, 0.25,
                                  [50, 100, 150, 200, 250, 300, 350, 400])
    bound = 1.0 - min(2 * 0.25 * kappa_hat, 1.0 - 2 * 0.25) + 0.15
    ok = scan.fitted_exponent is not None and scan.fitted_exponent <= bound
    detail = report(9, ok, f"fitted exponent {scan.fitted_exponent:.3f} <= {bound:.3f} "
                           f"(kappa_hat = {kappa_hat:.3f}); counts {scan.counts}")
    assert ok, detail


def test_criterion_10_smallest_singular_tail():
    t_grid = np.logspace(-3, -1, 15)
    result = smin_tail_experiment(np.zeros((64, 64)), 1.0, t_grid, trials=500, seed=97)
    slope, bins = fit_tail_slope(result)
    mask = result.successes >= 5
    bound_ok = bool(np.all(result.p_hat[mask] <= TAIL_BOUND_CONSTANT * 64 * result.t_grid[mask]**2))
    ok = 1.7 <= slope <= 2.3 and bound_ok
    detail = report(10, ok, f"tail slope {slope:.3f} in [1.7, 2.3] over {bins} bins; "
                            f"frozen-constant bound (C = {TAIL_BOUND_CONSTANT}) held: {bound_ok}")
    assert ok, detail


def test_criterion_11_calculus_residuals():
    comp = composition_residual(sphere_symbol({(0, 0, 1): 1.0}),
                                sphere_symbol({(0, 0, 1): 1.0}), [50, 100, 200])
    ratios = [r for _, r in comp.halving_ratios()]
    fc = functional_calculus_residual(sphere_symbol({(0, 0, 1): 1.0}),
                                      chebyshev_surrogate(np.exp, 14), [50, 100, 200])
    ratios += [r for _, r in fc.halving_ratios()]
    ratios_ok = all(0.3 <= r <= 0.7 for r in ratios)

    trace = trace_residual(sphere_symbol({(0, 0, 2): 1.0}), [50, 100, 200, 400])
    trace_ok = max(trace.residuals) <= 1.0  # uniformly bounded (value is 1/3)

    norm_ok = True
    try:
        norm_bound_check(sphere_symbol({(0, 0, 1): 1.0}), [50, 200, 500])
        norm_bound_check(PROJECTION, [50, 200, 500])
        norm_bound_check(scottish_flag_symbol(), [8, 50, 200, 500])
    except ValueError:
        norm_ok = False

    ok = ratios_ok and trace_ok and norm_ok
    detail = report(11, ok, f"halving ratios {np.round(ratios, 3).tolist()} in [0.3, 0.7]; "
                            f"trace residual max {max(trace.residuals):.4f} bounded; "
                            f"norm bound violations: none" if norm_ok else "norm bound violated")
    assert ok, detail


def test_criterion_12_gaussian_norm():
    norms = np.array([operator_norm(sample_ginibre(256, s)) for s in range(20)])
    scaled = norms / np.sqrt(256.0)
    ok = 1.85 <= scaled.mean() <= 2.15 and scaled.max() <= 3.0
    detail = report(12, ok, f"mean norm / sqrt(dim) = {scaled.mean():.4f} in [1.85, 2.15]; "
                            f"max {scaled.max():.4f} <= 3")
    assert ok, detail


def test_criterion_13_determinism(figure_run, tmp_path_factory, monkeypatch):
    # run ignores workers; the re-run takes a pool of one thread through the CPU count it reads
    out, record = figure_run
    again = tmp_path_factory.mktemp("acceptance_rerun")
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    rerun = run(acceptance_config(), out_dir=again)
    assert rerun.manifest["environment"]["pool_size"] == 1
    mismatched = [p.name for p in sorted(out.glob("*.csv"))
                  if (again / p.name).read_bytes() != p.read_bytes()]
    ok = not mismatched
    pools = f"pools of {record.manifest['environment']['pool_size']} and 1"
    detail = report(13, ok, f"byte-identical CSV payloads on re-run ({pools})" if ok
                    else f"payload mismatch ({pools}): {mismatched}")
    assert ok, detail
