import json
import sys
from pathlib import Path

import numpy as np
import pytest

from toeplab.cli import main as cli_main
from toeplab.geometry import sphere_symbol, symbol_to_record
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
from toeplab.quantize import load_matrix


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
        for name in ["integrity", "weyl_deviation", "potential_median",
                     "b3_negative", "schur_residual"]:
            assert name in report.criteria

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

    def test_crash_isolation_per_stage(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.b_diagnostics

        def flaky(T, z, rho, delta, G, grid=None, seed=-1, g_norm=None):
            if T.N == 24 and seed == 1:
                raise RuntimeError("synthetic Grushin failure")
            return real(T, z, rho, delta, G, grid, seed=seed, g_norm=g_norm)

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
                            "pool_size", "usable_cpus", "peak_rss_mb"}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert isinstance(env["blas"]["name"], str) and env["blas"]["name"]
        assert env["usable_cpus"] >= 1
        if env["blas_pinned"]:
            assert env["blas_threads"] == 1 and env["pool_size"] == env["usable_cpus"]
        else:
            assert env["blas_threads"] is None and env["pool_size"] == 1
        assert env["peak_rss_mb"] > 0.0

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

        def recording(*args, **kwargs):
            inside.append([get() for get, _ in controls])
            if kwargs.get("seed") == 1:
                raise RuntimeError("synthetic Grushin failure")
            return real(*args, **kwargs)

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
                                   "bordered_condition_max", "grushin_flagged_probes"}
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

    def test_manifest_records_tool_version(self, done):
        _, record = done
        import toeplab
        assert record.manifest["version"] == toeplab.__version__
        assert record.manifest["wall_clock_s"] > 0


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

    def test_requires_config_or_preset(self):
        with pytest.raises(SystemExit):
            cli_main(["run"])
