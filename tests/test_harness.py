import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toeplab._lapack as _lapack
from toeplab.cli import main as cli_main
from toeplab.geometry import (
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_to_record,
)
from toeplab.grushin import CONDITION_GUARD
from toeplab.harness import (
    ConfigError,
    ExperimentConfig,
    acceptance_config,
    preset_config,
    run,
    verify,
)
from toeplab.potential import LOGDET_CHECK_BOUND
from toeplab.quantize import load_matrix, quantize_symbol
from toeplab.randmat import derive_seed, operator_norm, sample_ginibre


def tiny_config(**overrides):
    base = dict(
        space="sphere",
        symbol=symbol_to_record(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})),
        n_values=[24, 48],
        delta={"preset": "weyl"},
        seeds=[0, 1],
        probe_grid={"nx": 4, "ny": 4},
        radii={"count": 10, "max": 1.0},
        grushin_probes=[[0.3, 0.2]],
        resolution=100,
        kappa_samples=10**4,
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_mapping({"space": "sphere", "symbol": "x", "n_values": [1],
                                           "delta": {}, "typo_key": 3})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_mapping({"space": "sphere"})

    def test_empty_n_values_rejected(self):
        cfg = tiny_config(n_values=[])
        with pytest.raises(ConfigError, match="n_values"):
            cfg.validate()

    def test_rho_window_enforced(self):
        cfg = tiny_config(rho=0.3)  # epsilon = 0.25 -> rho must be < 0.25
        with pytest.raises(ConfigError, match="rho"):
            cfg.validate()

    def test_gamma_cap_enforced(self):
        cfg = tiny_config(gamma=0.2)  # epsilon - rho = 0.05
        with pytest.raises(ConfigError, match="gamma"):
            cfg.validate()

    def test_delta_window_enforced(self):
        cfg = tiny_config(delta={"power": 0.0})  # delta = 1 outside the window
        with pytest.raises(ConfigError, match="window"):
            cfg.validate()

    def test_noise_parameters_rejected(self):
        for overrides, message in [({"c_exponent": 0.0}, "c_exponent"),
                                   ({"c_exponent": 1.0}, "c_exponent"),
                                   ({"epsilon": 0.0}, "epsilon"),
                                   ({"n_values": [1, 24]}, "n_values")]:
            with pytest.raises(ConfigError, match=message):
                tiny_config(**overrides).validate()

    def test_duplicates_rejected(self):
        # a repeated seed or size would run its cell twice into the same files
        for key, values in [("seeds", [0, 0]), ("n_values", [24, 48, 24]),
                            ("unperturbed_sizes", [10, 10])]:
            with pytest.raises(ConfigError, match=key):
                tiny_config(**{key: values}).validate()

    def test_negative_radii_max_rejected(self):
        with pytest.raises(ConfigError, match="radii"):
            tiny_config(radii={"count": 10, "max": -1.0}).validate()

    def test_negative_radii_count_rejected(self):
        for count in (-1, 0):                   # no radius leaves verify nothing to judge
            with pytest.raises(ConfigError, match="radii count"):
                tiny_config(radii={"count": count, "max": 1.0}).validate()

    @pytest.mark.parametrize("overrides, message", [
        ({"delta": {"preset": "weyl", "scale": 2.0}}, "unknown delta keys"),
        ({"radii": {"count": 10, "max": 1.0, "min": 0.5}}, "unknown radii keys"),
        ({"probe_grid": {"nx": 3, "nyy": 3}}, "unknown probe_grid keys"),
        ({"probe_grid": {"nx": 3}}, "both nx and ny"),
        ({"probe_grid": {}}, "both nx and ny"),
        ({"grushin_probes": [[0.3]]}, "grushin_probes"),
        ({"grushin_probes": [[0.3, 0.2], 0.6]}, "grushin_probes"),
        ({"probe_grid": {"points": [[0.3, 0.2, 0.1]]}}, "points"),
        ({"probe_grid": {"points": [["0.3", 0.2]]}}, "points"),
        ({"kappa_samples": 5000}, "kappa_samples"),
        # int() would truncate these, read True as seed 1, or fail inside run
        ({"n_values": [24.9]}, "n_values"),
        ({"unperturbed_sizes": [10.5]}, "unperturbed_sizes"),
        ({"probe_grid": {"nx": 2.7, "ny": 3}}, "nx"),
        ({"seeds": [True]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),                  # the seed label of unperturbed cells
        ({"resolution": 40.5}, "resolution"),
        ({"resolution": 1}, "resolution"),
        ({"kappa_samples": 1e5}, "kappa_samples"),
        ({"radii": {"count": 10.0, "max": 1.0}}, "radii count"),
        # run would read the preset and the points, and ignore the power and nx, ny
        ({"delta": {"preset": "weyl", "power": 0.3}}, "delta must give exactly one"),
        ({"delta": {}}, "delta must give exactly one"),
        ({"probe_grid": {"points": [[0.3, 0.2]], "nx": 3, "ny": 3}}, "probe_grid must give exactly one"),
        ({"probe_grid": {"points": [[0.3, 0.2]], "ny": 3}}, "probe_grid must give exactly one"),
    ])
    def test_what_run_would_reinterpret_rejected(self, overrides, message):
        # run would silently read these otherwise, or fail inside a task
        with pytest.raises(ConfigError, match=message):
            tiny_config(**overrides).validate()

    def test_explicit_probe_points_accepted(self):
        tiny_config(probe_grid={"points": [[0.3, 0.2], (0, 1)]}).validate()

    def test_sizes_too_small_for_the_symbol_rejected(self):
        # run would fail in quantize_symbol during set-up, before any manifest
        quadric = symbol_to_record(sphere_symbol({(2, 0, 0): 1.0, (0, 1, 0): 1j}))
        flag = symbol_to_record(scottish_flag_symbol())
        for overrides, key in [({"unperturbed_sizes": [0]}, "unperturbed_sizes"),
                               ({"unperturbed_sizes": [1]}, "unperturbed_sizes"),
                               ({"symbol": quadric, "n_values": [3, 24]}, "n_values"),
                               ({"space": "torus", "symbol": flag, "n_values": [2, 24]},
                                "n_values")]:
            with pytest.raises(ConfigError, match=key):
                tiny_config(**overrides).validate()
        tiny_config(unperturbed_sizes=[2]).validate()          # degree 1 <= 2 / 2

    def test_symbol_kind_mismatch(self):
        cfg = tiny_config(space="torus")
        with pytest.raises(ConfigError, match="does not match"):
            cfg.validate()

    def test_validation_passes_and_estimates_kappa(self):
        out = tiny_config().validate()
        assert 0.0 < out["kappa_hat"] <= 1.0

    def test_hash_ignores_location_and_workers(self):
        a = tiny_config(out_dir="x")
        b = tiny_config(out_dir="y")
        assert a.config_hash() == b.config_hash()
        c = tiny_config(seeds=[5])
        assert a.config_hash() != c.config_hash()

    def test_presets_validate(self):
        for name in ["scottish-flag-figure1", "sphere-figure3"]:
            cfg = preset_config(name)
            out = cfg.validate()
            assert 0.0 < out["kappa_hat"] <= 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nonexistent")

    def test_mapping_round_trip(self):
        # to_mapping must carry every field, or a saved config loses settings
        configs = [preset_config(name, full_scale=full)
                   for name in ["scottish-flag-figure1", "sphere-figure3"] for full in (False, True)]
        for cfg in configs + [acceptance_config()]:
            assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_acceptance_config_shape(self):
        cfg = acceptance_config()
        assert cfg.n_values == [100, 300]
        assert len(cfg.seeds) == 5
        assert cfg.probe_grid["nx"] * cfg.probe_grid["ny"] >= 100


@pytest.fixture(scope="module")
def done(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    record = run(tiny_config(), out_dir=out, workers=2)
    return out, record


class TestRun:
    def test_all_cells_complete(self, done):
        _, record = done
        assert record.manifest["errors"] == {}
        assert len(record.manifest["cells"]) == 4  # two sizes x two seeds

    def test_artifacts_exist_with_checksums(self, done):
        out, record = done
        for cell in record.manifest["cells"].values():
            for info in cell["files"].values():
                assert (out / info["path"]).exists()
                assert len(info["sha256"]) == 64

    def test_csv_headers(self, done):
        out, _ = done
        assert (out / "eig_N24_s0.csv").read_text().splitlines()[0] == "re,im"
        assert (out / "cdf_N24_s0.csv").read_text().splitlines()[0] == "r,empirical,predicted"
        assert (out / "pot_N24_s0.csv").read_text().splitlines()[0] == \
            "z_re,z_im,N,seed,U_emp,U_lim,deviation"
        assert (out / "diag_N24_s0.csv").read_text().splitlines()[0] == \
            "N,z_re,z_im,rho,delta,seed,A,B1,B2,B3,schur_residual,flags"

    def test_emit_field_format(self, tmp_path):
        # _emit formats every CSV field: str as is, an integer by str, other numbers by repr(float)
        import toeplab.harness as hz
        lam = np.array([1.0 + 2.0j, -0.5j])
        flags = ";".join(("condition estimate 2e+12 exceeds 1e+12", "all-singular-values-small"))
        rows = [(z.real, z.imag, np.int64(7), -1, np.float32(0.1), flags) for z in lam]
        rows.append((float("nan"), -0.0, 0, np.int32(3), 1e-300, ""))
        path = hz._emit(tmp_path, "t.csv", "re,im,N,seed,x,flags", rows)
        assert path == tmp_path / "t.csv"
        assert path.read_text() == (
            "re,im,N,seed,x,flags\n"
            f"1.0,2.0,7,-1,0.10000000149011612,{flags}\n"
            f"-0.0,-0.5,7,-1,0.10000000149011612,{flags}\n"
            "nan,-0.0,0,3,1e-300,\n")

    def test_deterministic_rerun(self, done, tmp_path):
        out, _ = done
        rerun_dir = tmp_path / "again"
        run(tiny_config(), out_dir=rerun_dir, workers=1)
        for path in sorted(out.glob("*.csv")):
            assert (rerun_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_verify_integrity_passes(self, done):
        out, _ = done
        report = verify(out, suite="integrity")
        assert report.passed
        assert report.criteria["integrity"]["status"] == "pass"

    def test_verify_reports_acceptance_criteria(self, done):
        out, _ = done
        report = verify(out)
        for name in ["integrity", "cell_errors", "weyl_deviation", "potential_median",
                     "b3_negative", "schur_residual"]:
            assert name in report.criteria
        assert report.criteria["cell_errors"]["status"] == "pass"

    def test_tampered_artifact_detected(self, done, tmp_path):
        out, _ = done
        clone = tmp_path / "tampered"
        clone.mkdir()
        for path in out.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        victim = clone / "eig_N24_s0.csv"
        victim.write_text(victim.read_text().replace("0", "1", 1))
        report = verify(clone, suite="integrity")
        assert not report.passed
        assert "mismatch" in report.criteria["integrity"]["detail"]

    def test_edited_artifact_is_not_read(self, done, tmp_path):
        out, _ = done
        clone = tmp_path / "edited"
        shutil.copytree(out, clone)
        for seed in (0, 1):                     # every top-size counting curve loses its header
            victim = clone / f"cdf_N48_s{seed}.csv"
            victim.write_text(victim.read_text().replace("empirical", "emp", 1))
        report = verify(clone)
        assert not report.passed
        assert report.criteria["integrity"]["status"] == "fail"
        assert "cdf_N48_s0.csv" in report.criteria["integrity"]["detail"]
        assert report.criteria["weyl_deviation"]["status"] == "skipped"
        assert "N=48" in report.criteria["weyl_deviation"]["detail"]
        assert report.criteria["potential_median"] == verify(out).criteria["potential_median"]

    def test_partial_run_enumerates_skips(self, done, tmp_path):
        out, _ = done
        clone = tmp_path / "partial"
        clone.mkdir()
        manifest = json.loads((out / "manifest.json").read_text())
        # keep only the diagnostics artifacts: weyl and potential lack inputs
        for name, cell in manifest["cells"].items():
            cell["files"] = {k: v for k, v in cell["files"].items() if k == "diagnostics"}
            for info in cell["files"].values():
                (clone / info["path"]).write_bytes((out / info["path"]).read_bytes())
        (clone / "manifest.json").write_text(json.dumps(manifest))
        report = verify(clone)
        assert report.criteria["weyl_deviation"]["status"] == "skipped"
        assert report.criteria["potential_median"]["status"] == "skipped"
        assert report.criteria["b3_negative"]["status"] in ("pass", "fail")

    @staticmethod
    def _run_failing_top_size(out, monkeypatch):
        """Run tiny_config into ``out`` with every N = 48 cell failing; verify it."""
        import toeplab.harness as hz
        real = hz.sample_ginibre
        doomed = {hz.derive_seed(seed, "cell", 48) for seed in (0, 1)}

        def flaky(dim, seed):
            if seed in doomed:
                raise RuntimeError("synthetic N=48 failure")
            return real(dim, seed)

        monkeypatch.setattr(hz, "sample_ginibre", flaky)
        record = run(tiny_config(), out_dir=out, workers=1)
        assert set(record.manifest["errors"]) == {"N48_s0", "N48_s1"}
        return verify(out).criteria

    def test_verify_skips_criteria_without_top_size(self, tmp_path, monkeypatch):
        criteria = self._run_failing_top_size(tmp_path / "fresh", monkeypatch)
        for name in ("weyl_deviation", "potential_median"):
            assert criteria[name]["status"] == "skipped"
            assert "N=48" in criteria[name]["detail"]
        assert criteria["b3_negative"]["status"] == "pass"
        assert criteria["schur_residual"]["status"] == "pass"

    def test_verify_fails_a_run_with_failed_cells(self, tmp_path, monkeypatch):
        out = tmp_path / "failed"
        criteria = self._run_failing_top_size(out, monkeypatch)
        assert criteria["cell_errors"]["status"] == "fail"
        assert "N48_s0" in criteria["cell_errors"]["detail"]
        assert "N48_s1" in criteria["cell_errors"]["detail"]
        for suite in ("acceptance", "integrity"):
            assert not verify(out, suite=suite).passed
            assert cli_main(["verify", str(out), "--suite", suite]) == 1

    def test_verify_ignores_stale_unlisted_artifacts(self, done, tmp_path, monkeypatch):
        out, _ = done
        stale = tmp_path / "stale"
        shutil.copytree(out, stale)             # an earlier good run's N48 CSVs stay on disk
        criteria = self._run_failing_top_size(stale, monkeypatch)
        assert (stale / "cdf_N48_s0.csv").exists()
        assert criteria["weyl_deviation"]["status"] == "skipped"
        assert criteria["potential_median"]["status"] == "skipped"
        rows = [ln.split(",") for seed in (0, 1)
                for ln in (stale / f"diag_N24_s{seed}.csv").read_text().splitlines()[1:]]
        with_small = sum(1 for r in rows if int(r[6]) >= 1)
        assert criteria["b3_negative"]["detail"].startswith(f"{with_small}/{with_small} ")

    def test_unknown_or_incomplete_stages_rejected(self, tmp_path):
        for stages in (("potential",), ("spectrum", "timings")):
            with pytest.raises(ValueError, match="stages"):
                run(tiny_config(), out_dir=tmp_path, stages=stages)

    def test_crash_isolation(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.sample_ginibre

        def flaky(dim, seed):
            if seed == hz.derive_seed(1, "cell", 24):
                raise RuntimeError("synthetic cell failure")
            return real(dim, seed)

        monkeypatch.setattr(hz, "sample_ginibre", flaky)
        record = run(tiny_config(), out_dir=tmp_path / "flaky", workers=1)
        assert "N24_s1" in record.manifest["errors"]
        assert "synthetic cell failure" in record.manifest["errors"]["N24_s1"]
        assert "N24_s0" in record.manifest["cells"]
        assert "N48_s1" in record.manifest["cells"]

    def test_nonfinite_noise_isolated(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.sample_ginibre

        def poisoned(dim, seed):
            G = real(dim, seed)
            if seed == hz.derive_seed(1, "cell", 24):
                G[0, 0] = np.nan
            return G

        monkeypatch.setattr(hz, "sample_ginibre", poisoned)
        record = run(tiny_config(), out_dir=tmp_path / "nan", workers=1)
        assert set(record.manifest["errors"]) == {"N24_s1"}
        assert set(record.manifest["cells"]) == {"N24_s0", "N48_s0", "N48_s1"}

    def test_crash_isolation_per_stage(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.b_diagnostics

        def flaky(T, z, rho, delta, G, grid=None, g_norm=None):
            if T.N == 24 and np.array_equal(G, hz._cell_noise(T, 1)):
                raise RuntimeError("synthetic Grushin failure")
            return real(T, z, rho, delta, G, grid, g_norm=g_norm)

        monkeypatch.setattr(hz, "b_diagnostics", flaky)
        record = run(tiny_config(), out_dir=tmp_path / "flaky", workers=1)
        assert set(record.manifest["errors"]) == {"N24_s1"}
        assert "synthetic Grushin failure" in record.manifest["errors"]["N24_s1"]
        assert set(record.manifest["cells"]) == {"N24_s0", "N48_s0", "N48_s1"}
        for cell in record.manifest["cells"].values():
            assert set(cell["files"]) == {"spectrum", "cdf", "potential", "diagnostics"}

    def test_manifest_records_environment(self, done):
        import scipy
        _, record = done
        env = record.manifest["environment"]
        assert set(env) == {"numpy", "scipy", "blas", "blas_pinned", "blas_threads",
                            "lapack_route", "pool_size", "usable_cpus", "peak_rss_mb"}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert isinstance(env["blas"]["name"], str) and env["blas"]["name"]
        assert env["usable_cpus"] >= 1
        if env["blas_pinned"]:
            assert env["blas_threads"] == 1 and env["pool_size"] == env["usable_cpus"]
        else:
            assert env["blas_threads"] is None and env["pool_size"] == 1
        assert env["peak_rss_mb"] > 0.0
        assert env["lapack_route"] == ("fallback" if _lapack.routines() is None else "lapacke")

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_csv_bits_independent_of_pool_size(self, done, tmp_path, monkeypatch, cpus):
        import toeplab.harness as hz
        out, _ = done
        monkeypatch.setattr(hz, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)           # interleave the pool threads finely
        try:
            record = run(tiny_config(), out_dir=tmp_path / "again", workers=2)
        finally:
            sys.setswitchinterval(interval)
        env = record.manifest["environment"]
        assert env["pool_size"] == (cpus if env["blas_pinned"] else 1)
        assert sorted(p.name for p in (tmp_path / "again").glob("*.csv")) == \
            sorted(p.name for p in out.glob("*.csv"))
        for path in sorted(out.glob("*.csv")):
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_csv_bits_independent_of_eig_route(self, done, tmp_path, monkeypatch):
        # every dense call on its numpy or scipy.linalg fallback, as without LAPACKE
        out, _ = done
        monkeypatch.setattr(_lapack, "routines", lambda: None)
        record = run(tiny_config(), out_dir=tmp_path / "fallback", workers=2)
        assert record.manifest["environment"]["lapack_route"] == "fallback"
        assert sorted(p.name for p in (tmp_path / "fallback").glob("*.csv")) == \
            sorted(p.name for p in out.glob("*.csv"))
        for path in sorted(out.glob("*.csv")):
            assert (tmp_path / "fallback" / path.name).read_bytes() == path.read_bytes(), \
                path.name

    def test_run_loads_no_scipy_and_pins_it_once_imported(self, tmp_path):
        import toeplab.harness as hz
        if _lapack.routines() is None:
            pytest.skip("without numpy's LAPACKE the run falls back to scipy")
        script = ("import json, sys\n"
                  "import toeplab\n"
                  "from toeplab import harness\n"
                  "config = harness.ExperimentConfig.from_mapping(json.loads(sys.argv[1]))\n"
                  "record = harness.run(config, sys.argv[2])\n"
                  "assert not record.manifest['errors'], record.manifest['errors']\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
                  "import scipy.linalg\n"
                  "print(len(harness._openblas_thread_controls()))\n")
        src = str(Path(_lapack.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, json.dumps(tiny_config().to_mapping()),
                                 str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        modules, controls = result.stdout.splitlines()[-2:]
        assert json.loads(modules) == []
        # the next run's pinning scan sees scipy's OpenBLAS, as this process (scipy loaded) does
        assert int(controls) == len(hz._openblas_thread_controls())

    def test_without_pinnable_blas_runs_serially(self, done, tmp_path, monkeypatch):
        import toeplab.harness as hz
        out, expected = done
        monkeypatch.setattr(hz, "_openblas_thread_controls", lambda: [])
        record = run(tiny_config(), out_dir=tmp_path / "serial", workers=2)
        env = record.manifest["environment"]
        assert env["blas_pinned"] is False and env["blas_threads"] is None
        assert env["pool_size"] == 1
        assert record.manifest["errors"] == {}
        assert set(record.manifest["cells"]) == set(expected.manifest["cells"])
        # BLAS keeps its own thread count here, which may move the last bits
        for path in sorted(out.glob("*.csv")):
            got, want = _csv_values(tmp_path / "serial" / path.name), _csv_values(path)
            if path.name.startswith("eig_"):
                got, want = np.sort_complex(got @ [1, 1j]), np.sort_complex(want @ [1, 1j])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=path.name)

    def test_blas_thread_counts_restored(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        controls = hz._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        original = [get() for get, _ in controls]
        real = hz.b_diagnostics
        inside = []

        def recording(T, z, rho, delta, G, *args, **kwargs):
            inside.append([get() for get, _ in controls])
            if np.array_equal(G, hz._cell_noise(T, 1)):
                raise RuntimeError("synthetic Grushin failure")
            return real(T, z, rho, delta, G, *args, **kwargs)

        def broken():
            raise RuntimeError("synthetic pool failure")

        try:
            for _, set_ in controls:
                set_(2)
            monkeypatch.setattr(hz, "b_diagnostics", recording)
            record = run(tiny_config(), out_dir=tmp_path / "failing", workers=1)
            assert set(record.manifest["errors"]) == {"N24_s1", "N48_s1"}
            assert inside and all(counts == [1] * len(controls) for counts in inside)
            assert [get() for get, _ in controls] == [2] * len(controls)
            monkeypatch.setattr(hz, "_usable_cpus", broken)
            with pytest.raises(RuntimeError, match="synthetic pool failure"):
                run(tiny_config(), out_dir=tmp_path / "raising", workers=1)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, original):
                set_(count)

    def test_manifest_records_cell_health(self, done):
        out, record = done
        for name, cell in record.manifest["cells"].items():
            health = cell["health"]
            assert set(health) == {"probes_dropped", "logdet_check_residual",
                                   "logdet_fallback", "max_abs_eig", "schur_residual_max",
                                   "bordered_condition_max", "grushin_flagged_probes",
                                   "cutoff_gap_min", "subspace_residual_max", "g_norm_bound",
                                   "g_norm_route"}
            assert health["logdet_fallback"] is False
            assert 0.0 <= health["logdet_check_residual"] <= LOGDET_CHECK_BOUND
            rows = (out / cell["files"]["potential"]["path"]).read_text().splitlines()[1:]
            assert health["probes_dropped"] == 16 - len(rows)  # 4 x 4 probe grid
            eig = [complex(float(a), float(b)) for a, b in
                   (ln.split(",") for ln in (out / f"eig_{name}.csv").read_text().splitlines()[1:])]
            assert health["max_abs_eig"] == pytest.approx(max(abs(x) for x in eig), rel=1e-15)
            diag = [ln.split(",") for ln in
                    (out / cell["files"]["diagnostics"]["path"]).read_text().splitlines()[1:]]
            assert health["schur_residual_max"] == max(float(r[10]) for r in diag)
            assert health["schur_residual_max"] <= 1e-6
            assert 1.0 <= health["bordered_condition_max"] <= CONDITION_GUARD
            assert health["grushin_flagged_probes"] == sum(1 for r in diag if r[11])
            # the gap of the one Grushin probe, from the dense singular values
            N, z = int(diag[0][0]), complex(float(diag[0][1]), float(diag[0][2]))
            t = np.linalg.svd(quantize_symbol(symbol_from_record(tiny_config().symbol), N).entries
                              - z * np.eye(N + 1), compute_uv=False)
            alpha = N ** (-2.0 * float(diag[0][3]))
            assert health["cutoff_gap_min"] == pytest.approx(
                np.min(np.abs(t**2 - alpha)) / alpha, abs=1e-12)
            assert int(diag[0][6]) == int(np.sum(t**2 <= alpha))
            assert 0.0 <= health["subspace_residual_max"] <= 1e-13
            # a certified bound, or the exact norm where the bound could not decide
            seed = int(name.split("_s")[1])
            exact = operator_norm(sample_ginibre(N + 1, derive_seed(seed, "cell", N)))
            assert health["g_norm_route"] in ("cholesky", "svd-fallback", "svd-exact")
            if health["g_norm_route"] == "svd-fallback":
                assert health["g_norm_bound"] == exact
            else:
                assert health["g_norm_bound"] == 2.0 * np.sqrt(N + 1) + 3.0 > exact

    def test_manifest_records_tool_version(self, done):
        _, record = done
        import toeplab
        assert record.manifest["version"] == toeplab.__version__
        assert record.manifest["wall_clock_s"] > 0


class TestEigensolve:
    """The cell eigensolve against ``np.linalg.eigvals``, its oracle."""

    @staticmethod
    def _cell_matrix(preset: str, dim: int):
        cfg = preset_config(preset)
        f = cfg.symbol_spec()
        N = dim - 1 if cfg.space == "sphere" else dim
        T = quantize_symbol(f, N)
        return T.entries + cfg.noise_size(N) * sample_ginibre(dim, derive_seed(0, "cell", N))

    @pytest.mark.parametrize("kind, dim",
                             [("ginibre", d) for d in (1, 2, 31, 301, 497, 503, 601)]
                             + [(p, d) for p in ("sphere-figure3", "scottish-flag-figure1")
                                for d in (31, 301, 601)])
    def test_bit_equal_to_numpy(self, kind, dim):
        import toeplab.harness as hz
        if kind == "ginibre":
            M = sample_ginibre(dim, derive_seed(7, "eig", dim))
        else:
            M = self._cell_matrix(kind, dim)
        with hz._pinned_blas():
            got, want = _lapack.eigvals(M), np.linalg.eigvals(M)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_entry_raises(self, bad):
        M = sample_ginibre(31, 3)
        M[4, 7] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _lapack.eigvals(M)

    def test_numpy_fallback_returns_the_same_array(self, monkeypatch):
        import toeplab.harness as hz
        M = self._cell_matrix("sphere-figure3", 301)
        with hz._pinned_blas():
            routed = _lapack.eigvals(M)
            monkeypatch.setattr(_lapack, "routines", lambda: None)
            fallback = _lapack.eigvals(M)
        assert fallback.tobytes() == routed.tobytes()

    def test_releases_the_gil(self, spin_ratio):
        """A spinning main thread keeps its pace while a dim-301 eigensolve runs beside it.

        ``np.linalg.eigvals`` holds the GIL at this size: the spinner then
        keeps about 8% of its rate during an equally long ``time.sleep``.
        """
        import toeplab.harness as hz
        if hz._usable_cpus() < 2:
            pytest.skip("needs 2 usable CPUs")
        if _lapack.routines() is None:
            pytest.skip("no OpenBLAS exports LAPACKE_zgeev here")
        G = sample_ginibre(301, 5)
        ratios = []
        with hz._pinned_blas():
            for _ in range(3):
                ratios.append(spin_ratio(lambda: _lapack.eigvals(G)))
                if ratios[-1] >= 0.3:
                    return
        pytest.fail(f"spinner kept only {ratios} of its sleeping rate")


def _csv_values(path: Path) -> np.ndarray:
    """Numeric columns of a CSV artifact (the diagnostics flags column is text)."""
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    return np.array([[float(x) for x in r[:11]] for r in rows])


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = tiny_config(n_values=[16], seeds=[0], kappa_samples=10**4, **overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_mapping()))
        return path

    def test_run_and_verify(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        capsys.readouterr()
        assert cli_main(["verify", str(out), "--suite", "integrity"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_quantize_verb(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "mats"
        assert cli_main(["quantize", "--config", str(cfg), "--out", str(out)]) == 0
        path = Path(capsys.readouterr().out.strip().splitlines()[-1])
        T = load_matrix(path)
        assert T.N == 16 and T.dim == 17

    def test_spectrum_verb(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "spec"
        assert cli_main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "eig_N16_s0.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im" and len(lines) == 18

    def test_stage_verbs_match_run(self, tmp_path, capsys):
        # each stage verb is run restricted to its stages: same CSV bytes, own manifest
        cfg = self._write_config(tmp_path, unperturbed_sizes=[10])
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        expected = {
            "spectrum": ["cdf_N10_unperturbed.csv", "cdf_N16_s0.csv",
                         "eig_N10_unperturbed.csv", "eig_N16_s0.csv"],
            "potential": ["cdf_N10_unperturbed.csv", "cdf_N16_s0.csv",
                          "eig_N10_unperturbed.csv", "eig_N16_s0.csv",
                          "pot_N10_unperturbed.csv", "pot_N16_s0.csv"],
            "grushin": ["diag_N16_s0.csv"],
        }
        for verb, names in expected.items():
            out = tmp_path / verb
            assert cli_main([verb, "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.glob("*.csv")) == names, verb
            for name in names:
                assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name
            capsys.readouterr()
            assert cli_main(["verify", str(out), "--suite", "integrity"]) == 0, verb
            assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_kappa_verb(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["kappa", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["kappa"] <= 1.0

    def test_kappa_verb_prints_the_runs_kappa_hat(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["kappa", "--config", str(cfg)]) == 0
        kappa = json.loads(capsys.readouterr().out)["kappa"]
        record = run(ExperimentConfig.from_json(cfg), out_dir=tmp_path / "out", stages=("spectrum",))
        assert kappa == record.manifest["kappa_hat"]

    def test_requires_config_or_preset(self):
        with pytest.raises(SystemExit):
            cli_main(["run"])
