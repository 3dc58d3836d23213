import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import toeplab._lapack as _lapack
from toeplab.cli import main as cli_main
from toeplab.geometry import (
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_to_record,
)
from toeplab.grushin import CONDITION_GUARD, _small_subspaces, b_diagnostics
from toeplab.harness import (
    STAGES,
    ConfigError,
    ExperimentConfig,
    acceptance_config,
    preset_config,
    run,
    verify,
)
from toeplab.quantize import ToeplitzMatrix, quantize_symbol
from toeplab.randmat import NormBound, derive_seed, operator_norm, sample_ginibre


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
        # float() would read a string or a bool, and a nan passes every window check
        ({"epsilon": "0.25"}, "epsilon must be a finite real"),
        ({"rho": None}, "rho must be a finite real"),
        ({"gamma": "0.04"}, "gamma must be a finite real"),
        ({"c_exponent": True}, "c_exponent must be a finite real"),
        ({"radii": {"count": 10, "max": float("nan")}}, "radii max must be a finite real"),
        ({"radii": {"count": 10, "max": "1.0"}}, "radii max must be a finite real"),
        ({"delta": {"power": "1"}}, "delta power must be a finite real"),
        ({"delta": {"power": True}}, "delta power must be a finite real"),
        ({"kappa_hat": float("nan")}, "kappa_hat must be a finite real"),
        ({"kappa_hat": 5.0}, r"kappa_hat must lie in \(0, 1\]"),
        ({"kappa_hat": 0.0}, r"kappa_hat must lie in \(0, 1\]"),
        # run would lose the whole cell to a non-finite probe after set-up
        ({"grushin_probes": [[float("nan"), 0.0]]}, "grushin_probes"),
        ({"probe_grid": {"points": [[float("inf"), 0.0]]}}, "points"),
        ({"grushin_probes": [[True, False]]}, "grushin_probes"),
        # validate reads keys of these, and "weyl" would read as the keys w, e, y, l
        ({"delta": "weyl"}, "delta must be a JSON object"),
        ({"radii": 5}, "radii must be a JSON object"),
        # run iterates these lists, and a string would read as its characters
        ({"n_values": 24}, "n_values must be a list"),
        ({"n_values": "300"}, "n_values must be a list"),
        ({"seeds": 3}, "seeds must be a list"),
        ({"unperturbed_sizes": 5}, "unperturbed_sizes must be a list"),
        ({"grushin_probes": 0.3}, "grushin_probes must be a list"),
        ({"probe_grid": {"points": 5}}, "probe_grid points must be a list"),
        # np.linspace would fail in set-up, before any manifest; nx = 0 would run no probes
        ({"probe_grid": {"nx": -1, "ny": 4}}, "probe_grid nx must lie in"),
        ({"probe_grid": {"nx": 0, "ny": 4}}, "probe_grid nx must lie in"),
        ({"probe_grid": {"nx": 4, "ny": 0}}, "probe_grid ny must lie in"),
        # the Grushin split squares |z|, which overflows to inf above 1.3e154
        ({"grushin_probes": [[1e200, 0.0]]}, r"grushin_probes must lie in \[-1e150, 1e150\]"),
        ({"probe_grid": {"points": [[0.0, -1e200]]}}, r"probe_grid points must lie in \[-1e150, 1e150\]"),
        # N^-p would overflow (OverflowError); noise_size reads no other preset
        ({"delta": {"power": -300.0}}, "delta power must lie in"),
        ({"delta": {"preset": "uniform"}}, "delta preset must be one of"),
        ({"space": "plane"}, "space must be one of"),
        # run would fail in Path(out_dir) after validating
        ({"out_dir": 5}, "out_dir must be a string or null"),
    ])
    def test_what_run_would_reinterpret_rejected(self, overrides, message):
        # run would silently read these otherwise, or fail inside a task
        with pytest.raises(ConfigError, match=message):
            tiny_config(**overrides).validate()

    @pytest.mark.parametrize("data", [5, None, "abc", [["space", "sphere"]]])
    def test_config_that_is_not_an_object_rejected(self, data, tmp_path):
        with pytest.raises(ConfigError, match="a configuration must be a JSON object"):
            ExperimentConfig.from_mapping(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="a configuration must be a JSON object"):
            ExperimentConfig.from_json(path)

    def test_unreadable_config_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"space": ')
        for target in (path, tmp_path / "absent.json"):
            with pytest.raises(ConfigError, match="cannot read configuration"):
                ExperimentConfig.from_json(target)

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

    def test_probe_points_reject_another_space(self):
        cfg = tiny_config()
        f = cfg.symbol_spec()
        assert len(cfg.probe_points(f, make_phase_space("sphere"))) == 16
        with pytest.raises(ConfigError, match="space 'torus' is not the 'sphere' space of the symbol"):
            cfg.probe_points(f, make_phase_space("torus"))

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


def _write_manifest(run_dir: Path, edit) -> None:
    """Write into ``run_dir`` the manifest of a ``tiny_config()`` run whose every cell failed, which
    lists no file and passes ``integrity``, after ``edit`` broke one part of it: ``edit`` changes
    the manifest in place, or returns the text to write instead."""
    manifest = {"config": tiny_config().to_mapping(), "stages": list(STAGES), "cells": {}, "matrices": {},
                "errors": {f"N{N}_s{seed}": "x" for N in (24, 48) for seed in (0, 1)}}
    text = edit(manifest)
    (run_dir / "manifest.json").write_text(text if isinstance(text, str) else json.dumps(manifest))


def _drop(*keys):
    """An edit of ``_write_manifest`` that deletes the manifest entry at the path ``keys``."""
    def edit(manifest: dict) -> None:
        *parents, key = keys
        for parent in parents:
            manifest = manifest[parent]
        del manifest[key]
    return edit


def _shift_first_u_emp(text: str) -> str:
    header, first, *rest = text.splitlines(True)
    fields = first.split(",")
    fields[4] = repr(float(fields[4]) + 0.01)
    return "".join([header, ",".join(fields), *rest])


def _nan_first_b1(flags: str):
    def edit(text: str) -> str:
        header, first, *rest = text.splitlines(True)
        fields = first.rstrip("\n").split(",")
        fields[7], fields[-1] = "nan", flags
        return "".join([header, ",".join(fields) + "\n", *rest])
    return edit


def _x_in_first(column: str):
    """An edit that sets ``column`` of the first data row to ``x``."""
    def edit(text: str) -> str:
        header, first, *rest = text.splitlines(True)
        fields = first.rstrip("\n").split(",")
        fields[header.rstrip("\n").split(",").index(column)] = "x"
        return "".join([header, ",".join(fields) + "\n", *rest])
    return edit


def _each_row(column: str, value):
    """An edit that sets ``column`` of every data row to ``value(row)``, the row a dict of its fields."""
    def edit(text: str) -> str:
        header, *lines = text.splitlines()
        names = header.split(",")
        rows = [dict(zip(names, line.split(","))) for line in lines]
        return "\n".join([header] + [",".join({**row, column: value(row)}.values()) for row in rows]) + "\n"
    return edit


class TestCrossCheck:
    """``verify``'s integrity suite checks a cell's CSVs against each other."""

    @pytest.fixture(scope="class")
    def n60(self, tmp_path_factory):
        cfg = preset_config("sphere-figure3")
        cfg.n_values, cfg.seeds = [60], [0, 1]
        out = tmp_path_factory.mktemp("n60")
        run(cfg, out_dir=out)
        return out

    @staticmethod
    def _tampered(run_dir: Path, copy: Path, name: str, edit) -> Path:
        """A copy of the run with ``edit`` applied to the CSV ``name`` and its checksum updated."""
        shutil.copytree(run_dir, copy)
        path = copy / name
        path.write_text(edit(path.read_text()))
        manifest = json.loads((copy / "manifest.json").read_text())
        for cell in manifest["cells"].values():
            for info in cell["files"].values():
                if info["path"] == name:
                    info["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (copy / "manifest.json").write_text(json.dumps(manifest))
        return copy

    @staticmethod
    def _relisted(run_dir: Path, copy: Path, edit) -> Path:
        """A copy of the run with ``edit`` applied to its manifest only."""
        shutil.copytree(run_dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        return copy

    def test_untouched_run_passes(self, n60):
        report = verify(n60, suite="integrity")
        assert report.passed, report.criteria

    @pytest.mark.parametrize("name, edit, detail", [
        ("pot_N60_s0.csv", _shift_first_u_emp, "N60_s0: U_emp "),
        ("cdf_N60_s0.csv", _each_row("empirical", lambda row: row["predicted"]), "N60_s0: empirical "),
        ("pot_N60_s0.csv", _each_row("deviation", lambda row: "1.0"), "N60_s0: deviation 1.0 at z="),
        ("eig_N60_s0.csv", lambda text: "".join(text.splitlines(True)[:-5]),
         "N60_s0: eig_N60_s0.csv holds 56 rows, expected 61 finite"),
        ("diag_N60_s1.csv", _nan_first_b1(""), "N60_s1: non-finite B1-B3 at z=(0.3, 0.2)"),
    ], ids=["shifted-potential", "predicted-counts", "unit-deviations", "short-spectrum", "unflagged-nan"])
    def test_a_tampered_copy_with_updated_checksums_fails_integrity(self, n60, tmp_path, name,
                                                                     edit, detail):
        copy = self._tampered(n60, tmp_path / "copy", name, edit)
        for suite in ("integrity", "acceptance"):
            integrity = verify(copy, suite=suite).criteria["integrity"]
            assert integrity["status"] == "fail"
            assert integrity["detail"].startswith("inconsistent artifacts: ['" + detail)

    @pytest.mark.parametrize("edit, detail, seeds", [
        (lambda m: m["cells"]["N60_s1"]["files"].pop("potential"),
         ["cell N60_s1 potential: listed None, run writes pot_N60_s1.csv"], 2),
        (lambda m: m["cells"].update(N60_s1=m["cells"]["N60_s0"]),
         [f"cell N60_s1 {kind}: listed {prefix}_N60_s0.csv, run writes {prefix}_N60_s1.csv"
          for kind, prefix in [("cdf", "cdf"), ("diagnostics", "diag"), ("potential", "pot"), ("spectrum", "eig")]],
         1),
        # a cell that the configuration does not have: seed 7 is not among its seeds
        (lambda m: m["cells"].update(N60_s7=m["cells"]["N60_s0"]),
         [f"cell N60_s7 {kind}: listed {prefix}_N60_s0.csv, run writes None"
          for kind, prefix in [("cdf", "cdf"), ("diagnostics", "diag"), ("potential", "pot"), ("spectrum", "eig")]],
         2),
    ], ids=["dropped-entry", "another-cells-files", "unconfigured-cell"])
    def test_a_listing_other_than_runs_fails_integrity(self, n60, tmp_path, edit, detail, seeds):
        # the manifest drops a file entry, lists another cell's files and health, or lists a cell that
        # its configuration does not have; checksums all match
        copy = self._relisted(n60, tmp_path / "copy", edit)
        for suite in ("integrity", "acceptance"):
            integrity = verify(copy, suite=suite).criteria["integrity"]
            assert integrity == {"status": "fail", "detail": f"artifacts not as run writes them: {detail}"}
        # a CSV listed under another cell's name is not judged as that cell's
        assert verify(copy).criteria["weyl_deviation"]["detail"].endswith(f" over {seeds} seeds")

    @pytest.mark.parametrize("name, edit, readers", [
        ("diag_N60_s0.csv", _x_in_first("A"), ["b3_negative", "schur_residual"]),
        ("diag_N60_s0.csv", _x_in_first("schur_residual"), ["b3_negative", "schur_residual"]),
        ("diag_N60_s0.csv", _x_in_first("B3"), ["b3_negative", "schur_residual"]),
        ("pot_N60_s0.csv", _x_in_first("deviation"), ["potential_median"]),
        ("cdf_N60_s0.csv", _x_in_first("empirical"), ["weyl_deviation"]),
        ("eig_N60_s0.csv", lambda text: "", []),
        ("pot_N60_s0.csv", lambda text: "", ["potential_median"]),
        ("diag_N60_s0.csv", lambda text: "", ["b3_negative", "schur_residual"]),
        ("cdf_N60_s0.csv", lambda text: "", ["weyl_deviation"]),
    ], ids=["diag-A", "diag-schur", "diag-B3", "pot-deviation", "cdf-empirical",
            "empty-eig", "empty-pot", "empty-diag", "empty-cdf"])
    def test_a_malformed_csv_with_an_updated_checksum_fails_and_is_named(
            self, n60, tmp_path, capsys, name, edit, readers):
        # each raised ValueError or IndexError out of verify, in one suite or both
        copy = self._tampered(n60, tmp_path / "copy", name, edit)
        for suite in ("integrity", "acceptance"):
            report = verify(copy, suite=suite)
            assert not report.passed
            assert report.criteria["integrity"]["status"] == "fail"
            assert name in report.criteria["integrity"]["detail"]
            capsys.readouterr()
            assert cli_main(["verify", str(copy), "--suite", suite]) == 1
            captured = capsys.readouterr()
            assert json.loads(captured.out) == json.loads(report.to_json())
            assert captured.err == ""
        criteria = verify(copy).criteria
        for criterion in readers:           # each criterion that reads the file fails, naming it
            assert criteria[criterion]["status"] == "fail"
            assert name in criteria[criterion]["detail"]

    def test_a_refused_csv_hides_no_other_fault_of_its_cell(self, n60, tmp_path):
        emptied = self._tampered(n60, tmp_path / "emptied", "cdf_N60_s0.csv", lambda text: "")
        copy = self._tampered(emptied, tmp_path / "copy", "pot_N60_s0.csv", _shift_first_u_emp)
        for suite in ("integrity", "acceptance"):
            integrity = verify(copy, suite=suite).criteria["integrity"]
            assert integrity["status"] == "fail"
            assert "cdf_N60_s0.csv" in integrity["detail"]
            assert "N60_s0: U_emp " in integrity["detail"]
        weyl = verify(copy).criteria["weyl_deviation"]
        assert weyl["status"] == "fail" and "cdf_N60_s0.csv" in weyl["detail"]

    @pytest.mark.parametrize("suite", ["integrity", "acceptance"])
    def test_each_listed_csv_is_parsed_once(self, n60, monkeypatch, suite):
        import toeplab.harness as hz
        real, parsed = hz._read_csv, []

        def counting(path, kind):
            parsed.append(path.name)
            return real(path, kind)

        monkeypatch.setattr(hz, "_read_csv", counting)
        assert verify(n60, suite=suite).criteria["integrity"]["status"] == "pass"
        manifest = json.loads((n60 / "manifest.json").read_text())
        listed = [info["path"] for cell in manifest["cells"].values() for info in cell["files"].values()]
        assert sorted(parsed) == sorted(listed)

    def test_a_cell_is_held_to_its_spectrum_whatever_its_health(self, tmp_path, monkeypatch):
        # the potential's values are the log-sums in every cell: no health value exempts a
        # cell from the cross-check, not even one that records a large check residual
        import toeplab.harness as hz
        real = hz.potential_from_spectrum

        def shifted(lam, probes, T=None):
            values, kept, health = real(lam, probes, T)
            return values + 1e-3, kept, {**health, "logdet_check_residual": 1e-3, "logdet_fallback": True}

        monkeypatch.setattr(hz, "potential_from_spectrum", shifted)
        record = run(tiny_config(n_values=[24], seeds=[0]), out_dir=tmp_path)
        assert record.manifest["cells"]["N24_s0"]["health"]["logdet_fallback"]
        integrity = verify(tmp_path, suite="integrity").criteria["integrity"]
        assert integrity["status"] == "fail" and "N24_s0: U_emp " in integrity["detail"]

    def test_a_singular_flag_explains_a_nonfinite_split(self, n60, tmp_path):
        copy = self._tampered(n60, tmp_path / "copy", "diag_N60_s1.csv",
                              _nan_first_b1("singular-bordered-determinant"))
        assert verify(copy, suite="integrity").passed


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
        rows = [(np.int64(7), z.real, z.imag, np.float32(0.1), 1e-300, -1, 2, 0.5, 0.25, -1.0, 0.0, flags)
                for z in lam]
        rows.append((0, float("nan"), -0.0, 0.2, 1e-300, np.int32(3), 0, 1.0, 2.0, -3.0, float("nan"), ""))
        # the table gives the file name and the header
        path = hz._emit(tmp_path, "diagnostics", "N7_s3", rows)
        assert path == tmp_path / "diag_N7_s3.csv"
        assert path.read_text() == (
            "N,z_re,z_im,rho,delta,seed,A,B1,B2,B3,schur_residual,flags\n"
            f"7,1.0,2.0,0.10000000149011612,1e-300,-1,2,0.5,0.25,-1.0,0.0,{flags}\n"
            f"7,-0.0,-0.5,0.10000000149011612,1e-300,-1,2,0.5,0.25,-1.0,0.0,{flags}\n"
            "0,nan,-0.0,0.2,1e-300,3,0,1.0,2.0,-3.0,nan,\n")

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
    def _edit_rows(out, kind, edit, cells=None):
        """Rewrite every data row of the listed ``kind`` artifacts (of ``cells``, default all) by
        ``edit`` and record the new checksums; returns the number of rows edited."""
        manifest = json.loads((out / "manifest.json").read_text())
        rows = 0
        for name in cells or manifest["cells"]:
            info = manifest["cells"][name]["files"][kind]
            path = out / info["path"]
            header, *lines = path.read_text().splitlines()
            path.write_text("\n".join([header] + [edit(ln) for ln in lines]) + "\n")
            info["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            rows += len(lines)
        (out / "manifest.json").write_text(json.dumps(manifest))
        return rows

    def test_each_schur_residual_is_its_spectrum_against_its_split(self, tmp_path):
        # route one is sum log|lambda - z| over the cell's eig_ rows, bit for bit; the split is
        # recomputed from the cell's noise on one BLAS thread, as run pins it
        import toeplab.harness as hz
        cfg = tiny_config(n_values=[36], grushin_probes=[[0.0, 0.0], [0.3, 0.2], [0.9, 0.0], [0.0, 1.5]])
        record = run(cfg, out_dir=tmp_path)
        assert record.manifest["errors"] == {}
        T, delta = quantize_symbol(cfg.symbol_spec(), 36), cfg.noise_size(36)
        checked = 0
        with hz._pinned_blas():
            for seed in cfg.seeds:
                G = hz._cell_noise(T, seed)
                eig = (tmp_path / f"eig_N36_s{seed}.csv").read_text().splitlines()[1:]
                lam = np.array([complex(float(re), float(im)) for re, im in (line.split(",") for line in eig)])
                for row in (tmp_path / f"diag_N36_s{seed}.csv").read_text().splitlines()[1:]:
                    fields = row.split(",")
                    z = complex(float(fields[1]), float(fields[2]))
                    split = b_diagnostics(T, z, cfg.rho, delta, G, 0.0)
                    route_one = np.sum(np.log(np.abs(lam - z)))
                    assert fields[10] == repr(float(abs(route_one - (split.log_det_bordered
                                                                     + split.log_det_corner))))
                    checked += 1
        assert checked == 8

    def test_a_split_of_another_matrix_fails_the_schur_criterion(self, tmp_path, monkeypatch):
        # the split at 1.5 delta factors a matrix that is not the cell's; route one,
        # read off the cell's own spectrum, tells (an LU route one of that same
        # wrong matrix agreed with the split to rounding, and the criterion passed)
        import toeplab.harness as hz
        real = hz.b_diagnostics

        def wrong_delta(T, z, rho, delta, *args, **kwargs):
            return real(T, z, rho, 1.5 * delta, *args, **kwargs)

        monkeypatch.setattr(hz, "b_diagnostics", wrong_delta)
        record = run(tiny_config(), out_dir=tmp_path)
        assert record.manifest["errors"] == {}
        criterion = verify(tmp_path).criteria["schur_residual"]
        assert criterion["status"] == "fail"
        assert all(cell["health"]["schur_residual_max"] > 1e-6
                   for cell in record.manifest["cells"].values())

    def test_nonfinite_schur_residuals_fail_unless_flagged_singular(self, done, tmp_path):
        out, _ = done
        clone = tmp_path / "nan"
        shutil.copytree(out, clone)
        rows = self._edit_rows(clone, "diagnostics",                # column 10: schur_residual
                               lambda ln: ",".join(ln.split(",")[:10] + ["nan"] + ln.split(",")[11:]))
        criterion = verify(clone).criteria["schur_residual"]
        assert criterion["status"] == "fail"
        assert criterion["detail"].startswith("worst finite residual 0.000e+00")
        assert criterion["detail"].endswith(f"; {rows} non-finite, {rows} of them without a singular- flag")
        assert verify(clone, suite="integrity").passed

        # a residual the split flags as singular explains itself
        self._edit_rows(clone, "diagnostics", lambda ln: ln.rsplit(",", 1)[0] + ",singular-corner-determinant")
        criterion = verify(clone).criteria["schur_residual"]
        assert criterion["status"] == "pass"
        assert criterion["detail"].endswith(f"; {rows} non-finite, 0 of them without a singular- flag")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_verify_refuses_a_manifest_that_is_not_strict_json(self, done, tmp_path, constant):
        out, _ = done
        clone = tmp_path / "nonstrict"
        shutil.copytree(out, clone)             # every artifact and its checksum intact
        path = clone / "manifest.json"
        text, count = re.subn(r'"max_abs_eig": [^,\n]+', f'"max_abs_eig": {constant}',
                              path.read_text(), count=1)
        assert count == 1
        path.write_text(text)
        report = verify(clone, suite="integrity")
        assert not report.passed
        assert report.criteria["integrity"]["detail"] == \
            f"malformed manifest: {constant} is not strict JSON"

    def test_potential_median_counts_dropped_deviations(self, done, tmp_path):
        out, _ = done
        assert verify(out).criteria["potential_median"]["detail"].endswith(
            "; 0 non-finite deviations dropped")
        clone = tmp_path / "nan"
        shutil.copytree(out, clone)
        rows = self._edit_rows(clone, "potential", lambda ln: ln.rsplit(",", 1)[0] + ",nan", ["N24_s0"])
        assert rows > 0
        assert verify(clone).criteria["potential_median"]["detail"].endswith(
            f"; {rows} non-finite deviations dropped")

    @staticmethod
    def _run_failing_top_size(out, monkeypatch):
        """Run tiny_config into ``out`` with every N = 48 cell failing; verify it."""
        import toeplab.harness as hz
        real = hz.sample_ginibre
        doomed = {hz.derive_seed(seed, "cell", 48) for seed in (0, 1)}

        def flaky(dim, seed, out=None):
            if seed in doomed:
                raise RuntimeError("synthetic N=48 failure")
            return real(dim, seed, out=out)

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

    @pytest.mark.parametrize("edit, detail", [
        (lambda m: json.dumps(m)[:-1], "malformed manifest: Expecting"),
        (lambda m: "[]", "malformed manifest: it must be a JSON object, got list"),
        (_drop("errors"), "malformed manifest: missing keys: ['errors']"),
        (_drop("stages"), "malformed manifest: missing keys: ['stages']"),
        (_drop("matrices"), "malformed manifest: missing keys: ['matrices']"),
        (_drop("config", "n_values"),
         "malformed manifest: config missing configuration keys: ['n_values']"),
        (lambda m: m["config"].update(n_values=[]),
         "malformed manifest: config n_values must be a nonempty list of integers, got []"),
        (lambda m: m["config"].update(seeds=["0"]), "malformed manifest: config seeds must be integers"),
        # a key that verify itself never reads is held to the key table as run holds it
        (lambda m: m["config"].update(rho="0.2"),
         "malformed manifest: config rho must be a finite real number, got '0.2'"),
        (lambda m: m["config"].update(typo=1),
         "malformed manifest: config unknown configuration keys: ['typo']"),
        (lambda m: m.update(config=[]), "malformed manifest: config must be a JSON object"),
        (lambda m: m.update(cells=[]), "malformed manifest: cells must be a JSON object"),
        (lambda m: m["cells"].update(N24_s0={"files": []}),
         "malformed manifest: cell N24_s0 needs a nonempty files object"),
        (lambda m: m["cells"].update(N24_s0={}),
         "malformed manifest: cell N24_s0 needs a nonempty files object"),
        (lambda m: m["cells"].update(N96_s0={"files": {}}),
         "malformed manifest: cell N96_s0 needs a nonempty files object"),
        (lambda m: m["cells"].update(N24_s0={"files": {"cdf": {"path": "cdf_N24_s0.csv"}}}),
         "malformed manifest: cell N24_s0 cdf artifact needs a path and a sha256"),
        # run writes bare file names; verify must not hash a file outside the run directory
        (lambda m: m["cells"].update(N24_s0={"files": {"cdf": {"path": "/etc/hostname", "sha256": "0"}}}),
         "malformed manifest: cell N24_s0 cdf artifact path '/etc/hostname' is not a bare file name"),
        (lambda m: m["cells"].update(N24_s0={"files": {"cdf": {"path": "../../etc/passwd", "sha256": "0"}}}),
         "malformed manifest: cell N24_s0 cdf artifact path '../../etc/passwd' is not a bare"),
        (lambda m: m["cells"].update(N24_s0={"files": {"cdf": {"path": "..", "sha256": "0"}}}),
         "malformed manifest: cell N24_s0 cdf artifact path '..' is not a bare"),
        # a configured cell that neither ran nor failed is named by the listing
        (_drop("errors", "N24_s0"),
         "artifacts not as run writes them: ['cell N24_s0 cdf: listed None, run writes cdf_N24_s0.csv', "
         "'cell N24_s0 diagnostics: listed None, run writes diag_N24_s0.csv', "
         "'cell N24_s0 potential: listed None, run writes pot_N24_s0.csv', "
         "'cell N24_s0 spectrum: listed None, run writes eig_N24_s0.csv']"),
        (lambda m: m.update(stages=["spectrum", "grushin", "matrix"]) or _drop("errors", "N24_s0")(m),
         "artifacts not as run writes them: ['cell N24_s0 cdf: listed None, run writes cdf_N24_s0.csv', "
         "'cell N24_s0 diagnostics: listed None, run writes diag_N24_s0.csv', "
         "'cell N24_s0 spectrum: listed None, run writes eig_N24_s0.csv', "
         "'matrix N24: listed None, run writes mat_N24.npy', "
         "'matrix N48: listed None, run writes mat_N48.npy']"),
        (lambda m: m.update(matrices=[]), "malformed manifest: matrices must be a JSON object"),
        (lambda m: m.update(stages="matrix"),
         "malformed manifest: stages must be a list of stage names, got 'matrix'"),
        (lambda m: m.update(stages=["matrix"], matrices={"N24": {"path": "mat_N24.npy"}}),
         "malformed manifest: matrix N24 artifact needs a path and a sha256"),
        (lambda m: m.update(stages=["matrix"], matrices={"N24": {"path": "../mat_N24.npy", "sha256": "0"}}),
         "malformed manifest: matrix N24 artifact path '../mat_N24.npy' is not a bare file name"),
        (lambda m: m.update(stages=["matrix"], matrices={"N24": {"path": "mat_N24.npy", "sha256": "0"}}),
         "missing artifacts: ['mat_N24.npy']"),
        (lambda m: m.update(stages=["bogus"]),
         "malformed manifest: stages must be a list of stage names, got ['bogus'] (a nonempty subset of"),
        (lambda m: m.update(stages=[]),
         "malformed manifest: stages must be a list of stage names, got [] (a nonempty subset of"),
        (lambda m: m.update(stages=["matrix"]),
         "artifacts not as run writes them: ['matrix N24: listed None, run writes mat_N24.npy', "
         "'matrix N48: listed None, run writes mat_N48.npy']"),
        # run refuses these stages, so no run writes them: potential and grushin read the spectrum
        (lambda m: m.update(stages=["potential", "grushin"]),
         "malformed manifest: stages ['potential', 'grushin'] need 'spectrum' beside 'potential' and"),
    ], ids=["truncated", "not-an-object", "no-errors-key", "no-stages", "no-matrices", "no-n_values",
            "empty-n_values", "string-seed", "string-rho", "unknown-config-key", "config-list", "cells-list",
            "files-list", "no-files", "empty-files", "no-sha256", "absolute-path", "parent-path", "dot-dot",
            "cell-absent", "cell-absent-beside-matrix", "matrices-list", "stages-string", "matrix-no-sha256",
            "matrix-parent-path", "matrix-missing", "stages-unknown", "stages-empty", "matrix-unlisted",
            "stages-no-spectrum"])
    def test_verify_reports_a_malformed_manifest(self, tmp_path, capsys, edit, detail):
        _write_manifest(tmp_path, edit)
        for suite in ("acceptance", "integrity"):
            report = verify(tmp_path, suite=suite)
            assert not report.passed
            assert report.criteria["integrity"]["status"] == "fail"
            assert report.criteria["integrity"]["detail"].startswith(detail)
            capsys.readouterr()
            assert cli_main(["verify", str(tmp_path), "--suite", suite]) == 1
            assert json.loads(capsys.readouterr().out) == json.loads(report.to_json())

    @pytest.mark.parametrize("symbol, detail", [
        ("", "config symbol: empty symbol record"),
        ("sphere\n0 1 0 0 nan 0.0\n", "config symbol: non-finite coefficient in symbol record line"),
        ("sphere\nfoo\n", "config symbol: malformed symbol record line: 'foo'"),
        (symbol_to_record(scottish_flag_symbol()), "config symbol kind 'torus' does not match space 'sphere'"),
    ], ids=["empty", "nan-coefficient", "malformed-line", "torus-under-sphere"])
    def test_verify_reads_the_symbol_as_run_does(self, tmp_path, symbol, detail):
        # run reads the symbol through symbol_spec and refuses each of these before any cell
        _write_manifest(tmp_path, lambda m: m["config"].update(symbol=symbol))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({**tiny_config().to_mapping(), "symbol": symbol}).validate()
        for suite in ("acceptance", "integrity"):
            report = verify(tmp_path, suite=suite)
            assert not report.passed and report.criteria["integrity"]["status"] == "fail"
            assert report.criteria["integrity"]["detail"].startswith(f"malformed manifest: {detail}")

    def test_no_diagnostics_row_to_judge_is_skipped(self, tmp_path):
        # no probe, then one far probe (A = 0): neither criterion may pass over zero rows
        for probes, schur in (([], "skipped"), ([[1.5, 1.5]], "pass")):
            out = tmp_path / f"probes{len(probes)}"
            record = run(tiny_config(n_values=[24], grushin_probes=probes), out_dir=out)
            rows = (out / "diag_N24_s0.csv").read_text().splitlines()[1:]
            assert not record.manifest["errors"] and len(rows) == len(probes)
            assert all(int(row.split(",")[6]) == 0 for row in rows)
            report = verify(out)
            assert report.criteria["integrity"]["status"] == "pass"
            assert report.criteria["b3_negative"] == {"status": "skipped",
                                                      "detail": "no diagnostics row with A >= 1 (sizes [24])"}
            assert report.criteria["schur_residual"]["status"] == schur

    def test_the_unbroken_manifest_passes_integrity(self, tmp_path):
        # the manifest that each malformed case breaks in one part: every cell failed
        _write_manifest(tmp_path, lambda m: None)
        criteria = verify(tmp_path).criteria
        assert criteria["integrity"] == {"status": "pass", "detail": "0 cells and 0 matrices intact"}
        assert criteria["cell_errors"]["status"] == "fail"

    @pytest.mark.parametrize("sizes, detail", [
        ([8], "artifacts not as run writes them: ['cell N8_unperturbed cdf: listed None, run writes "
              "cdf_N8_unperturbed.csv', 'cell N8_unperturbed potential: listed None, run writes "
              "pot_N8_unperturbed.csv', 'cell N8_unperturbed spectrum: listed None, run writes "
              "eig_N8_unperturbed.csv']"),
        ([8.5], "malformed manifest: config unperturbed_sizes must be integers, got [8.5]"),
        (5, "malformed manifest: config unperturbed_sizes must be a list, got 5"),
    ], ids=["absent", "fraction", "number"])
    def test_verify_counts_unperturbed_cells(self, tmp_path, sizes, detail):
        # the perturbed cells failed; the unperturbed one is in neither cells nor errors, and has no diag_
        _write_manifest(tmp_path, lambda m: m["config"].update(unperturbed_sizes=sizes))
        for suite in ("acceptance", "integrity"):
            integrity = verify(tmp_path, suite=suite).criteria["integrity"]
            assert integrity == {"status": "fail", "detail": detail}

    def test_unknown_or_incomplete_stages_rejected(self, tmp_path):
        # one rule: run refuses the stages that a manifest may not claim, with the same words
        for stages in ((), ("potential",), ("grushin",), ("potential", "grushin"), ("spectrum", "timings"),
                       ("grushin", "matrix")):
            with pytest.raises(ValueError, match="stages") as refused:
                run(tiny_config(), out_dir=tmp_path / "run", stages=stages)
            assert not (tmp_path / "run").exists()
            _write_manifest(tmp_path, lambda m: m.update(stages=list(stages)))
            assert verify(tmp_path, suite="integrity").criteria["integrity"] == {
                "status": "fail", "detail": f"malformed manifest: {refused.value}"}

    def test_a_bare_string_of_stages_is_named_as_given(self, tmp_path):
        with pytest.raises(ValueError, match=r"got 'spectrum' \(a nonempty subset"):
            run(tiny_config(), out_dir=tmp_path / "run", stages="spectrum")
        assert not (tmp_path / "run").exists()

    def test_an_unknown_suite_raises_before_anything_is_read(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        monkeypatch.setattr(hz, "_read_manifest", lambda manifest: pytest.fail("read a manifest"))
        for run_dir in (tmp_path / "absent", tmp_path):
            with pytest.raises(ValueError, match="unknown verification suite 'bogus'"):
                verify(run_dir, suite="bogus")
        (tmp_path / "manifest.json").write_text("{")
        with pytest.raises(ValueError, match="unknown verification suite 'bogus'"):
            verify(tmp_path, suite="bogus")

    def test_crash_isolation(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.sample_ginibre

        def flaky(dim, seed, out=None):
            if seed == hz.derive_seed(1, "cell", 24):
                raise RuntimeError("synthetic cell failure")
            return real(dim, seed, out=out)

        monkeypatch.setattr(hz, "sample_ginibre", flaky)
        record = run(tiny_config(), out_dir=tmp_path / "flaky", workers=1)
        assert "N24_s1" in record.manifest["errors"]
        assert "synthetic cell failure" in record.manifest["errors"]["N24_s1"]
        assert "N24_s0" in record.manifest["cells"]
        assert "N48_s1" in record.manifest["cells"]

    def test_nonfinite_noise_isolated(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        real = hz.sample_ginibre

        def poisoned(dim, seed, out=None):
            G = real(dim, seed, out=out)
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

        def flaky(T, z, rho, delta, G, classical, **kwargs):
            if T.N == 24 and np.array_equal(G, hz._cell_noise(T, 1)):
                raise RuntimeError("synthetic Grushin failure")
            return real(T, z, rho, delta, G, classical, **kwargs)

        monkeypatch.setattr(hz, "b_diagnostics", flaky)
        record = run(tiny_config(), out_dir=tmp_path / "flaky", workers=1)
        assert set(record.manifest["errors"]) == {"N24_s1"}
        assert "synthetic Grushin failure" in record.manifest["errors"]["N24_s1"]
        assert set(record.manifest["cells"]) == {"N24_s0", "N48_s0", "N48_s1"}
        for cell in record.manifest["cells"].values():
            assert set(cell["files"]) == {"spectrum", "cdf", "potential", "diagnostics"}

    @pytest.mark.parametrize("key, value, failed", [
        ("grushin_probes", [[1.0, 1.0]], {"N40_s0"}),
        ("probe_grid", {"points": [[1.0, 1.0], [0.3, 0.2]]}, {"N40_s0", "N50_unperturbed"}),
    ], ids=["grushin-probe", "potential-probe"])
    def test_a_probe_on_node_images_fails_only_the_tasks_that_need_it(self, tmp_path, key, value,
                                                                      failed):
        # every torus grid holds the node (0, 0), and the flag's f0 maps it exactly to 1 + 1j
        cfg = preset_config("scottish-flag-figure1")
        cfg.n_values, cfg.seeds, cfg.unperturbed_sizes, cfg.kappa_samples = [40], [0], [50], 10**4
        setattr(cfg, key, value)
        record = run(cfg, out_dir=tmp_path)
        assert set(record.manifest["errors"]) == failed
        for name in failed:
            assert "probe z=(1+1j) hits quadrature node images" in record.manifest["errors"][name]
        assert set(record.manifest["cells"]) == {"N40_s0", "N50_unperturbed"} - failed
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_records_environment(self, done):
        import toeplab.harness as hz
        _, record = done
        env = record.manifest["environment"]
        assert set(env) == {"numpy", "blas", "blas_threads", "pool_size", "usable_cpus",
                            "peak_rss_mb", "heap_release", "bands"}
        # the projection symbol i x1 + x2 is a weighted shift: one superdiagonal, plain order
        assert env["bands"] == {f"N{N}": {"diagonals": 1, "lo": 0, "hi": 1, "interleaved": False}
                                for N in (24, 48)}
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"]["name"], str) and env["blas"]["name"]
        assert env["blas"]["corename"] == _lapack.require()["get_corename"]().decode() != ""
        assert env["usable_cpus"] >= 1
        assert env["blas_threads"] == 1 and env["pool_size"] == env["usable_cpus"]
        assert env["peak_rss_mb"] > 0.0
        assert env["heap_release"] == (None if hz._malloc_trim() is None else "malloc_trim")

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
        assert env["pool_size"] == cpus
        assert sorted(p.name for p in (tmp_path / "again").glob("*.csv")) == \
            sorted(p.name for p in out.glob("*.csv"))
        for path in sorted(out.glob("*.csv")):
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_run_loads_no_scipy(self, tmp_path):
        script = ("import json, sys\n"
                  "import toeplab\n"
                  "from toeplab import harness\n"
                  "config = harness.ExperimentConfig.from_mapping(json.loads(sys.argv[1]))\n"
                  "record = harness.run(config, sys.argv[2])\n"
                  "assert not record.manifest['errors'], record.manifest['errors']\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")
        src = str(Path(_lapack.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, json.dumps(tiny_config().to_mapping()),
                                 str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []

    def test_blas_thread_counts_restored(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        blas = _lapack.require()
        get, set_ = blas["get_num_threads"], blas["set_num_threads"]
        original = get()
        real = hz.b_diagnostics
        inside = []

        def recording(T, z, rho, delta, G, *args, **kwargs):
            inside.append(get())
            if np.array_equal(G, hz._cell_noise(T, 1)):
                raise RuntimeError("synthetic Grushin failure")
            return real(T, z, rho, delta, G, *args, **kwargs)

        def broken():
            raise RuntimeError("synthetic pool failure")

        try:
            set_(2)
            monkeypatch.setattr(hz, "b_diagnostics", recording)
            record = run(tiny_config(), out_dir=tmp_path / "failing", workers=1)
            assert set(record.manifest["errors"]) == {"N24_s1", "N48_s1"}
            assert inside and set(inside) == {1}
            assert get() == 2
            monkeypatch.setattr(hz, "_usable_cpus", broken)
            with pytest.raises(RuntimeError, match="synthetic pool failure"):
                run(tiny_config(), out_dir=tmp_path / "raising", workers=1)
            assert get() == 2
        finally:
            set_(original)

    def test_csv_bits_independent_of_the_blas_thread_count_at_entry(self, tmp_path):
        # at resolution 100 the classical potential's dot products have 20 000
        # terms, which OpenBLAS splits over its threads unless set-up runs pinned
        blas = _lapack.require()
        get, set_ = blas["get_num_threads"], blas["set_num_threads"]
        original = get()
        cfg = tiny_config(n_values=[24], seeds=[0], probe_grid={"nx": 12, "ny": 12})
        try:
            for count in (2, 1):
                set_(count)
                if get() != count:
                    pytest.skip(f"OpenBLAS cannot run {count} threads here")
                run(cfg, out_dir=tmp_path / f"threads{count}")
        finally:
            set_(original)
        names = sorted(path.name for path in (tmp_path / "threads1").glob("*.csv"))
        assert len(names) == 4
        for name in names:
            assert (tmp_path / "threads2" / name).read_bytes() == \
                (tmp_path / "threads1" / name).read_bytes(), name

    def test_set_up_does_every_quadrature(self, tmp_path, monkeypatch):
        # f0 once on the run's grid, on the set-up thread, and one classical-potential call over
        # every probe; no default-resolution grid (the kappa fit's 64-node grid and samples aside)
        import threading
        import toeplab.geometry as geometry
        import toeplab.potential as potential
        real_evaluate, real_grid = geometry.evaluate_symbol_grid, geometry.liouville_quadrature
        real_many = potential.limit_potential_many
        evaluated, grids, quadratures = [], [], []

        def evaluate(f, points, *args, **kwargs):
            evaluated.append((threading.get_ident(), len(points)))
            return real_evaluate(f, points, *args, **kwargs)

        def grid(space, resolution):
            grids.append(resolution)
            return real_grid(space, resolution)

        def many(*args):
            quadratures.append(len(args[1]))
            return real_many(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("toeplab")]:
            for name, fake, real in (("evaluate_symbol_grid", evaluate, real_evaluate),
                                     ("liouville_quadrature", grid, real_grid),
                                     ("limit_potential_many", many, real_many)):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, fake)
        record = run(tiny_config(grushin_probes=[[0.3, 0.2], [0.0, 0.5]]), out_dir=tmp_path)
        assert record.manifest["errors"] == {} and len(record.manifest["cells"]) == 4
        assert grids == [64, 100]                       # the kappa fit's probe box, then the run's grid
        assert {thread for thread, _ in evaluated} == {threading.get_ident()}
        assert [n for _, n in evaluated].count(100 * 200) == 1     # resolution 100 on the sphere
        assert quadratures == [16 + 2]                  # the 4 x 4 probe grid, then the Grushin probes

    def test_a_matrix_only_run_does_no_quadrature(self, tmp_path, monkeypatch):
        import toeplab.geometry as geometry
        real, grids = geometry.liouville_quadrature, []

        def grid(space, resolution):
            grids.append(resolution)
            return real(space, resolution)

        for module in [m for name, m in sys.modules.items() if name.startswith("toeplab")]:
            if getattr(module, "liouville_quadrature", None) is real:
                monkeypatch.setattr(module, "liouville_quadrature", grid)
        record = run(tiny_config(kappa_hat=0.5), out_dir=tmp_path, stages=["matrix"])
        assert record.manifest["errors"] == {} and set(record.manifest["matrices"]) == {"N24", "N48"}
        assert grids == []

    def test_probe_points_are_the_run_probes(self, done):
        out, record = done
        cfg = tiny_config()
        probes = cfg.probe_points(cfg.symbol_spec(), cfg.symbol_spec().space)
        for name, cell in record.manifest["cells"].items():
            assert cell["health"]["probes_dropped"] == 0
            rows = [line.split(",") for line in (out / f"pot_{name}.csv").read_text().splitlines()[1:]]
            assert [complex(float(re), float(im)) for re, im, *_ in rows] == probes.tolist()

    def test_manifest_records_cell_health(self, done):
        out, record = done
        for name, cell in record.manifest["cells"].items():
            health = cell["health"]
            # a perturbed cell's potential check is its Schur residual: no logdet check of its own
            assert set(health) == {"probes_dropped", "max_abs_eig", "schur_residual_max",
                                   "bordered_condition_max", "grushin_flagged_probes",
                                   "cutoff_gap_min", "subspace_residual_max", "g_norm_bound",
                                   "g_norm_route"}
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
            t = np.linalg.svd(quantize_symbol(symbol_from_record(tiny_config().symbol), N).dense()
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
    """The cell eigensolve, one ``zgeev`` call, against ``np.linalg.eigvals``, its oracle."""

    @staticmethod
    def _cell_matrix(preset: str, dim: int):
        cfg = preset_config(preset)
        f = cfg.symbol_spec()
        N = dim - 1 if cfg.space == "sphere" else dim
        T = quantize_symbol(f, N)
        return T.dense() + cfg.noise_size(N) * sample_ginibre(dim, derive_seed(0, "cell", N))

    @staticmethod
    def _reduce(M):
        return _lapack.eigvals(np.array(M, order="F"))

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
            got, want = self._reduce(M), np.linalg.eigvals(M)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_holds_no_second_matrix(self):
        # zgeev works in M's buffer; its workspace is O(dim) columns, a copy of H dim^2 / 2
        import toeplab.harness as hz
        dim = 601
        G = sample_ginibre(dim, derive_seed(7, "eig", dim))
        with hz._pinned_blas():
            self._reduce(G)                                         # warm-up
            M = np.array(G, order="F")
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _lapack.eigvals(M)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak <= 16 * 0.1 * dim * dim

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_entry_raises(self, bad):
        M = sample_ginibre(31, 3)
        M[4, 7] = bad
        with pytest.raises(np.linalg.LinAlgError):
            self._reduce(M)

    def test_reduces_only_a_fortran_complex_array_in_place(self):
        M = sample_ginibre(31, 3)
        for bad in (np.ascontiguousarray(M), np.asfortranarray(M.real)):
            with pytest.raises(ValueError):
                _lapack.eigvals(bad)

    def test_releases_the_gil(self, spin_ratio):
        """A spinning main thread keeps its pace while a dim-301 eigensolve runs beside it.

        ``np.linalg.eigvals`` holds the GIL at this size: the spinner then
        keeps about 8% of its rate during an equally long ``time.sleep``.
        """
        import toeplab.harness as hz
        if hz._usable_cpus() < 2:
            pytest.skip("needs 2 usable CPUs")
        G = sample_ginibre(301, 5)
        ratios = []
        with hz._pinned_blas():
            for _ in range(3):
                ratios.append(spin_ratio(lambda: self._reduce(G)))
                if ratios[-1] >= 0.3:
                    return
        pytest.fail(f"spinner kept only {ratios} of its sleeping rate")


class TestCellMemory:
    """The spectrum task factors its cell matrix in place and keeps the shared ones."""

    # the draw and the eigensolve each hold M and O(dim) rows beside it, then the potential
    # |probe - lambda| (dim x probes); a dim x dim uniform draw (dim^2 / 2 entries) or a
    # kept copy of M's Hessenberg form (dim^2 / 2) does not fit
    @pytest.mark.parametrize("kind", ["perturbed", "unperturbed"])
    def test_spectrum_task_holds_one_cell_matrix(self, tmp_path, published, kind):
        import toeplab.harness as hz
        cfg = preset_config("sphere-figure3")
        cfg.resolution = 40
        f = cfg.symbol_spec()
        N, dim = 399, 400
        classical = hz._classical(cfg, {"spectrum", "potential"})
        probes = classical.probes
        setup = hz._Setup(out=tmp_path, matrices={N: quantize_symbol(f, N)}, deltas={N: cfg.noise_size(N)},
                          rho=cfg.rho, grushin_probes=[], classical=published(classical))
        seed = 0 if kind == "perturbed" else None
        with hz._pinned_blas():
            hz._spectrum_task(setup, kind, N, seed)                 # warm-up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _, health, *_ = hz._spectrum_task(setup, kind, N, seed)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert health["probes_dropped"] == 0 and len(probes) == 144
        assert peak <= 16 * (1.25 * dim * dim + dim * len(probes))

    def test_a_grushin_result_holds_no_reference_to_the_noise(self, tmp_path, monkeypatch, published):
        # a result waits in its future until every spectrum task before it is collected;
        # one that kept G (through its NormBound) held a dim^2 array per cell meanwhile.
        # G is drawn into the last probe's bordered matrix, whose buffer must go too
        import weakref
        import toeplab.harness as hz
        drawn = []

        def noise(T, seed, out=None):
            G = hz.sample_ginibre(T.dim, hz.derive_seed(seed, "cell", T.N), out=out)
            drawn.append(weakref.ref(G if G.base is None else G.base))
            return G

        monkeypatch.setattr(hz, "_cell_noise", noise)
        f = preset_config("sphere-figure3").symbol_spec()
        classical = hz._Classical(radii=np.zeros(1), predicted=np.zeros(1), probes=None, u_lim=np.zeros(0),
                                  grushin_u_lim=np.zeros(2))
        setup = hz._Setup(out=tmp_path, matrices={40: quantize_symbol(f, 40)}, deltas={40: 1 / 40},
                          rho=0.2, grushin_probes=[0.3 + 0.2j, 0.6 + 0j], classical=published(classical))
        result = hz._grushin_task(setup, "perturbed", 40, 0)
        assert len(result[0]) == 2 and len(drawn) == 1
        assert drawn[0]() is None

    def test_a_one_probe_grushin_task_holds_g_and_half_a_gram(self, tmp_path, monkeypatch, published):
        # G is drawn into the last probe's bordered matrix: the certificate holds that, the
        # probe's two bases (O(dim A)) and about 0.6 dim^2 of factor and scratch; the split factors
        # the bordered matrix over G beside O(dim A). A Gram matrix beside G, or G beside a new
        # bordered matrix, does not fit
        import toeplab.harness as hz
        N, dim, z = 299, 300, 0.3 + 0.2j
        T = quantize_symbol(preset_config("sphere-figure3").symbol_spec(), N)
        A = _small_subspaces(T, z, 0.2)[1].n_small
        certified, real = [], hz.NormBound

        def bounding(G):                        # the peak up to the certificate's end, then anew
            bound = real(G)
            certified.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return bound

        monkeypatch.setattr(hz, "NormBound", bounding)
        classical = hz._Classical(radii=np.zeros(1), predicted=np.zeros(1), probes=None, u_lim=np.zeros(0),
                                  grushin_u_lim=np.zeros(1))
        setup = hz._Setup(out=tmp_path, matrices={N: T}, deltas={N: 1 / N}, rho=0.2, grushin_probes=[z],
                          classical=published(classical))
        with hz._pinned_blas():
            hz._grushin_task(setup, "perturbed", N, 0)                # warm-up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                diags, health, _ = hz._grushin_task(setup, "perturbed", N, 0)
                split = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert diags[0].n_small == A >= 5 and health["g_norm_route"] == "cholesky"
        assert certified[-1] - before <= 16 * ((dim + A) ** 2 + 0.65 * dim * dim + 4 * dim * A)
        assert split <= 16 * (dim + A) * (dim + A + 7 * A + 48)

    @pytest.mark.parametrize("flagged", [False, True], ids=["bound-undecided", "neumann-flag"])
    def test_the_last_probe_takes_the_exact_norm_before_it_overwrites_g(self, tmp_path, published, flagged):
        # deltas where the certified bound cannot rule the Neumann warning out at the last probe
        # alone (the far first probe needs no exact norm): the exact norm of G, not of what the
        # last probe leaves in its place, gives the flag that a split beside G gives
        import toeplab.harness as hz
        N, z = 119, 0.3 + 0.2j
        T = quantize_symbol(preset_config("sphere-figure3").symbol_spec(), N)
        G = hz._cell_noise(T, 0)
        values, params, *_ = _small_subspaces(T, z, 0.2)
        reach = 1.0 / values[params.n_small] + 1.0
        exact, bound = operator_norm(G), NormBound(G).bound
        delta = 2.0 / (reach * exact) if flagged else 2.0 / (reach * (exact + bound))
        classical = hz._Classical(radii=np.zeros(1), predicted=np.zeros(1), probes=None, u_lim=np.zeros(0),
                                  grushin_u_lim=np.zeros(2))
        setup = hz._Setup(out=tmp_path, matrices={N: T}, deltas={N: delta}, rho=0.2,
                          grushin_probes=[1.5 + 1.5j, z], classical=published(classical))
        diags, health, _ = hz._grushin_task(setup, "perturbed", N, 0)
        want = b_diagnostics(T, z, 0.2, delta, G, 0.0, g_norm=NormBound(G))
        assert diags[0].flags == () and diags[-1].flags == want.flags
        assert any("Neumann" in flag for flag in want.flags) == flagged
        assert health == {"g_norm_bound": bound, "g_norm_route": "svd-exact"}

    def test_run_leaves_the_shared_matrices_unchanged(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        built = []

        def quantize(f, N):
            T = quantize_symbol(f, N)
            built.append((T, T.dense().copy()))
            return T

        monkeypatch.setattr(hz, "quantize_symbol", quantize)
        # N = 24 is both an unperturbed cell and two perturbed cells' matrix
        record = run(tiny_config(unperturbed_sizes=[24, 30]), out_dir=tmp_path)
        assert not record.manifest["errors"]
        assert "N24_unperturbed" in record.manifest["cells"]
        assert sorted(T.N for T, _ in built) == [24, 30, 48]
        for T, before in built:
            assert T.dense().tobytes() == before.tobytes()


class TestSetUpBesideThePool:
    """The tasks start right after validation and quantization; set-up's quadrature runs beside them."""

    def test_an_eigensolve_starts_before_set_up_quadrature_returns(self, tmp_path, monkeypatch):
        import threading
        import toeplab.harness as hz
        solving, waited = threading.Event(), []
        real_solve, real_many = _lapack.eigvals, hz.limit_potential_many

        def solve(M):
            solving.set()
            return real_solve(M)

        def many(*args):
            waited.append(solving.wait(timeout=10.0))
            return real_many(*args)

        monkeypatch.setattr(_lapack, "eigvals", solve)
        monkeypatch.setattr(hz, "limit_potential_many", many)
        record = run(tiny_config(n_values=[24], seeds=[0]), out_dir=tmp_path)
        assert record.manifest["errors"] == {}
        assert waited == [True]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_set_up_error_raises_from_run(self, tmp_path, monkeypatch, error):
        # every task waits for set-up's values; one that waited on a set-up that died would hang the run
        import threading
        from concurrent.futures import Future
        import toeplab.harness as hz
        raised, made = [], []

        class Recorded(Future):
            def __init__(self):
                super().__init__()
                made.append(self)

        def broken(*args):
            raise error("synthetic set-up failure")

        def target():
            try:
                run(tiny_config(), out_dir=tmp_path)
            except BaseException as exc:    # KeyboardInterrupt too
                raised.append(exc)

        monkeypatch.setattr(hz, "weyl_predict", broken)
        monkeypatch.setattr(hz, "Future", Recorded)
        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        if runner.is_alive():                   # free the waiting tasks, or the pool never ends
            for future in made:
                if not future.done():
                    future.set_exception(RuntimeError("released by the test"))
            pytest.fail("run still waits after set-up raised")
        assert [type(exc) for exc in raised] == [error]
        assert "synthetic set-up failure" in str(raised[0])
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("stages, swept", [
        (STAGES, [16]),                         # every probe of the unperturbed cell's 4 x 4 grid
        (("spectrum", "grushin"), []),          # no potential, nothing to check
    ], ids=["every-stage", "no-potential"])
    def test_only_an_unperturbed_cell_checks_its_potential_by_banded_lu(self, tmp_path, monkeypatch,
                                                                         stages, swept):
        # a perturbed cell's potential is checked by its Schur residual; its M is dense
        import toeplab.potential as potential
        real, sweeps = potential.band_log_abs_dets, []

        def recording(T, probes):
            sweeps.append([complex(z) for z in probes])
            return real(T, probes)

        monkeypatch.setattr(potential, "band_log_abs_dets", recording)
        record = run(tiny_config(n_values=[24], seeds=[0], unperturbed_sizes=[20],
                                 grushin_probes=[[0.3, 0.2], [0.0, 0.5]]),
                     out_dir=tmp_path, stages=stages)
        cells = record.manifest["cells"]
        assert record.manifest["errors"] == {}
        assert [len(probes) for probes in sweeps] == swept
        assert "logdet_check_residual" not in cells["N24_s0"]["health"]
        if swept:
            health = cells["N20_unperturbed"]["health"]
            assert 0.0 <= health["logdet_check_residual"] <= 1e-12
            pot = tmp_path / "pot_N20_unperturbed.csv"
            written = [complex(float(re), float(im)) for re, im, *_ in
                       (line.split(",") for line in pot.read_text().splitlines()[1:])]
            assert sweeps == [written]

    def test_flag_unperturbed_cell_records_its_worst_probe(self, tmp_path):
        # the banded check reads all 144 probes, the corner at +-0.136 +- 0.136i too, where
        # the log-sum is off by 3.2e-12 per dim; three check probes on the Hessenberg form,
        # which shares the eigensolve's reduction, read 2.8e-16 on this cell
        cfg = preset_config("scottish-flag-figure1")
        cfg.n_values = [20]
        record = run(cfg, tmp_path, stages=("spectrum", "potential"))
        health = record.manifest["cells"]["N50_unperturbed"]["health"]
        assert health["probes_dropped"] == 0
        assert 1e-12 <= health["logdet_check_residual"] <= 1e-11

    def test_manifest_cell_timings(self, done, tmp_path):
        # each task times its own stages; a stage that was not selected has no timing
        spectrum = {"draw_s", "eigensolve_s", "wait_s", "potential_s", "emit_s"}
        grushin = {"draw_s", "norm_bound_s", "wait_s", "split_s"}
        only = run(tiny_config(n_values=[24], seeds=[0], unperturbed_sizes=[20]), tmp_path,
                   stages=("spectrum",)).manifest["cells"]
        for cells, want in ((done[1].manifest["cells"], {"spectrum": spectrum, "grushin": grushin}),
                            (only, {"spectrum": spectrum - {"potential_s"}})):
            assert len(cells) >= 2
            for cell in cells.values():
                assert {task: set(seconds) for task, seconds in cell["timings"].items()} == want
                assert all(np.isfinite(t) and t >= 0.0
                           for seconds in cell["timings"].values() for t in seconds.values())

    def test_manifest_timings(self, done):
        _, record = done
        timings = record.manifest["timings"]
        assert set(timings) == {"validate_s", "setup_s", "pool_s"}
        assert all(np.isfinite(t) and t >= 0.0 for t in timings.values())
        assert timings["validate_s"] + timings["setup_s"] <= record.manifest["wall_clock_s"]
        assert timings["pool_s"] <= record.manifest["wall_clock_s"]

    def test_set_up_time_overlaps_the_pool(self, tmp_path, monkeypatch):
        import time
        import toeplab.harness as hz
        real = hz.weyl_predict

        def slow(*args):
            time.sleep(0.5)
            return real(*args)

        monkeypatch.setattr(hz, "weyl_predict", slow)
        record = run(tiny_config(), out_dir=tmp_path)
        timings, wall = record.manifest["timings"], record.manifest["wall_clock_s"]
        assert all(np.isfinite(t) and t >= 0.0 for t in timings.values())
        # the tasks wait out set-up's slow half second, which counts in both spans
        assert timings["setup_s"] >= 0.5 and timings["pool_s"] >= 0.5
        assert timings["validate_s"] + timings["setup_s"] + timings["pool_s"] >= wall + 0.3


def _desk_config(preset: str) -> ExperimentConfig:
    """A desk preset at tiny sizes, with every cell kind it has."""
    cfg = preset_config(preset)
    cfg.n_values, cfg.seeds = [24, 48], [0, 1]
    cfg.unperturbed_sizes = [16] if cfg.unperturbed_sizes else []
    return cfg


class TestHeapRelease:
    """A run returns freed heap to the OS after set-up and as each pool task ends, and nowhere else."""

    @pytest.mark.parametrize("preset", ["sphere-figure3", "scottish-flag-figure1"])
    def test_csv_bits_independent_of_the_release(self, preset, tmp_path, monkeypatch):
        import toeplab.harness as hz
        released = run(_desk_config(preset), out_dir=tmp_path / "released")
        monkeypatch.setattr(hz, "_release_heap", lambda: None)
        kept = run(_desk_config(preset), out_dir=tmp_path / "kept")
        assert released.manifest["errors"] == kept.manifest["errors"] == {}
        names = sorted(p.name for p in (tmp_path / "released").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "kept").glob("*.csv"))
        assert len(names) == sum(len(cell["files"]) for cell in released.manifest["cells"].values())
        for name in names:
            assert (tmp_path / "released" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes(), name

    def test_released_after_setup_and_as_each_task_ends_also_a_raising_one(self, tmp_path, monkeypatch):
        import threading
        import toeplab.harness as hz
        events, main = [], threading.get_ident()
        real_draw, real_predict = hz.sample_ginibre, hz.weyl_predict

        def drawing(dim, seed, out=None):                 # once per task: each task draws its cell's noise
            events.append("draw")
            if seed == hz.derive_seed(1, "cell", 24):
                raise RuntimeError("synthetic cell failure")
            return real_draw(dim, seed, out=out)

        def predicting(*args):                  # the last of set-up's quadrature values
            events.append("set-up")
            return real_predict(*args)

        monkeypatch.setattr(hz, "sample_ginibre", drawing)
        monkeypatch.setattr(hz, "weyl_predict", predicting)
        monkeypatch.setattr(hz, "_malloc_trim", lambda: lambda pad: events.append(
            ("release", pad, "set-up" if threading.get_ident() == main else "task")))
        record = run(tiny_config(), out_dir=tmp_path)
        assert set(record.manifest["errors"]) == {"N24_s1"}      # both of its tasks raised
        assert record.manifest["environment"]["heap_release"] == "malloc_trim"
        # 4 cells of 2 tasks, which start beside set-up: on the calling thread one release after
        # each of set-up's three quadrature steps, the last once its values are out; then one on
        # a pool thread as each task ends
        releases = [event for event in events if event[0] == "release"]
        assert releases.count(("release", 0, "task")) == 8 and len(releases) == 3 + 8
        assert events.count("draw") == 8
        by_set_up = [i for i, event in enumerate(events) if event == ("release", 0, "set-up")]
        assert len(by_set_up) == 3 and by_set_up[1] < events.index("set-up") < by_set_up[2]

    def test_runs_without_malloc_trim(self, tmp_path, monkeypatch):
        import toeplab.harness as hz
        monkeypatch.setattr(hz, "_malloc_trim", lambda: None)   # musl, macOS
        record = run(tiny_config(), out_dir=tmp_path)
        assert record.manifest["errors"] == {} and len(record.manifest["cells"]) == 4
        assert record.manifest["environment"]["heap_release"] is None

    def test_peak_memory_does_not_grow_with_the_cell_count(self, tmp_path):
        # a fresh interpreter per run, since the peak is the process's; a pool of one
        # thread, since on a pool of two the peak depends on which tasks happen to
        # overlap (a 2-seed run read 54.5-59.2 MiB), and more CPUs would let the
        # 12 seeds fill more of a larger pool than the 2 do
        script = ("import json, sys\n"
                  "from toeplab import harness\n"
                  "assert harness._malloc_trim.cache_info().currsize == 0    # not looked up at import\n"
                  "harness._usable_cpus = lambda: 1\n"
                  "config = harness.preset_config('sphere-figure3')\n"
                  "config.kappa_hat, config.seeds = 0.9, list(range(int(sys.argv[1])))\n"
                  "record = harness.run(config, sys.argv[2])\n"
                  "assert not record.manifest['errors'], record.manifest['errors']\n"
                  "print(json.dumps(record.manifest['environment']['peak_rss_mb']))\n")
        src = str(Path(_lapack.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        peaks = []
        for seeds in (2, 12):
            result = subprocess.run([sys.executable, "-c", script, str(seeds), str(tmp_path / str(seeds))],
                                    capture_output=True, text=True, env=env, timeout=300)
            assert result.returncode == 0, result.stderr
            peaks.append(json.loads(result.stdout.splitlines()[-1]))
        if peaks[0] is None:
            pytest.skip("no peak resident memory on this system")
        # one N = 300 cell matrix is 1.4 MiB: ten more cells kept would add 14
        assert abs(peaks[1] - peaks[0]) <= 4.0, peaks


def _grushin_scan_config() -> ExperimentConfig:
    """One N = 600 sphere cell with a Grushin probe ladder from A = 46 down to A = 0."""
    cfg = preset_config("sphere-figure3")
    cfg.n_values, cfg.seeds = [600], [1]
    cfg.probe_grid = {"points": [[0.5, 0.1], [-0.4, 0.3], [0.1, -0.6], [1.5, 1.5]]}
    cfg.grushin_probes = [[0.0, 0.0], [0.3, 0.2], [0.6, 0.0], [0.0, 0.8], [0.9, 0.0],
                          [0.97, 0.0], [1.2, 0.0], [0.0, 1.5]]
    return cfg


class TestNoDenseQuantization:
    """A run reads each quantization matrix from its diagonals; only the matrix stage builds it."""

    @pytest.mark.parametrize("make", [lambda: preset_config("sphere-figure3"),
                                      lambda: preset_config("scottish-flag-figure1"),
                                      _grushin_scan_config],
                             ids=["sphere-desk", "flag-desk", "grushin-scan"])
    def test_default_stages_never_build_dense_t(self, make, tmp_path, monkeypatch):
        def refuse(T):
            raise AssertionError(f"dense T built at N={T.N}")

        monkeypatch.setattr(ToeplitzMatrix, "dense", refuse)
        cfg = make()
        record = run(cfg, out_dir=tmp_path)
        assert record.manifest["errors"] == {}
        assert len(record.manifest["cells"]) == len(cfg.unperturbed_sizes) + len(cfg.n_values) * len(cfg.seeds)


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

    def test_quantize_verb(self, tmp_path):
        # one .npy per size of n_values and unperturbed_sizes, bit for bit the quantization
        cfg = self._write_config(tmp_path, unperturbed_sizes=[10])
        out = tmp_path / "mats"
        assert cli_main(["quantize", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mat_N10.npy", "mat_N16.npy"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"] == ["matrix"] and manifest["cells"] == {}
        assert sorted(manifest["matrices"]) == ["N10", "N16"]
        f = symbol_from_record(manifest["config"]["symbol"])
        for N in (10, 16):
            entries = np.load(out / f"mat_N{N}.npy", allow_pickle=False)
            expected = quantize_symbol(f, N).dense()
            assert entries.dtype == expected.dtype and entries.shape == expected.shape
            assert entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("damage", ["truncate", "edit"])
    def test_damaged_matrix_fails_integrity(self, tmp_path, capsys, damage):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "mats"
        assert cli_main(["quantize", "--config", str(cfg), "--out", str(out)]) == 0
        victim = out / "mat_N16.npy"
        data = victim.read_bytes()
        victim.write_bytes(data[:-100] if damage == "truncate" else data[:-1] + bytes([data[-1] ^ 1]))
        report = verify(out, suite="integrity")
        assert not report.passed
        assert report.criteria["integrity"]["detail"] == "checksum mismatch: ['mat_N16.npy']"
        victim.unlink()
        assert verify(out, suite="integrity").criteria["integrity"]["detail"] == \
            "missing artifacts: ['mat_N16.npy']"

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
            "grushin": ["cdf_N10_unperturbed.csv", "cdf_N16_s0.csv", "diag_N16_s0.csv",
                        "eig_N10_unperturbed.csv", "eig_N16_s0.csv"],
            "quantize": ["mat_N10.npy", "mat_N16.npy"],
        }
        assert sorted(p.name for p in (tmp_path / "run").iterdir() if p.suffix != ".csv") == \
            ["manifest.json"]
        for verb, names in expected.items():
            out = tmp_path / verb
            assert cli_main([verb, "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"]), verb
            for name in names:
                if verb != "quantize":
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

    def test_config_errors_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a sphere symbol in the torus space, a config that is not an object, no file at all,
        # a symbol that is not a record, sizes that are not integers
        base = json.loads(self._write_config(tmp_path).read_text())
        mismatched = self._write_config(tmp_path, space="torus")
        not_object = tmp_path / "five.json"
        not_object.write_text("5")

        def edited(name, **values):
            data = dict(base, **values)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            return path

        cases = [
            ("run", mismatched, "symbol kind 'sphere' does not match space 'torus'"),
            ("quantize", mismatched, "symbol kind 'sphere' does not match space 'torus'"),
            ("kappa", not_object, "a configuration must be a JSON object"),
            ("grushin", tmp_path / "absent.json", "cannot read configuration"),
            ("run", edited("null", symbol=None), "symbol must be a symbol record string, got None"),
            ("quantize", edited("number", symbol=5), "symbol must be a symbol record string, got 5"),
            ("spectrum", edited("tag", symbol="x"), "symbol: unknown symbol kind tag 'x'"),
            ("kappa", edited("empty", symbol=""), "symbol: empty symbol record"),
            ("quantize", edited("sizes", n_values=[30.7, True]),
             "n_values must be integers, got [30.7, True]"),
            # the kappa verb checks each key; its gamma cap is what the verb computes
            ("kappa", edited("samples", kappa_samples="abc"), "kappa_samples must be an integer, got 'abc'"),
            ("kappa", edited("few", kappa_samples=5000), "kappa_samples must lie in [10000, inf), got 5000"),
            ("kappa", edited("string", n_values="x"), "n_values must be a list, got 'x'"),
            ("kappa", edited("seeds", seeds=[0.5]), "seeds must be integers, got [0.5]"),
            ("kappa", edited("rho", rho=0.9), "rho must lie in (0, 0.5), got 0.9"),
            ("kappa", edited("delta", delta="weyl"), "delta must be a JSON object, got 'weyl'"),
        ]
        for i, (verb, path, message) in enumerate(cases):
            out = tmp_path / f"out_{i}"
            assert cli_main([verb, "--config", str(path), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("toeplab: ") and message in captured.err
            assert captured.err.count("\n") == 1, captured.err
            assert not out.exists()

        # without --out, out_dir names the output directory (default runs/)
        monkeypatch.chdir(tmp_path)
        for i, value in enumerate([5, True, {"a": 1}, ["x"]]):
            assert cli_main(["spectrum", "--config", str(edited(f"out_dir_{i}", out_dir=value))]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"toeplab: out_dir must be a string or null, got {value!r}\n"
            assert not (tmp_path / "runs").exists()

    def test_an_unusable_output_directory_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        for out, reason in ((taken, "File exists"), (taken / "below", "Not a directory")):
            assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"toeplab: out_dir {str(out)!r} is not a usable directory: {reason}\n"
        assert taken.read_text() == ""

    def test_requires_config_or_preset(self, capsys):
        # exactly one configuration source; --full-scale sizes a preset only
        for flags, message in [([], "one of the arguments --config --preset is required"),
                               (["--config", "cfg.json", "--preset", "sphere-figure3"], "not allowed with"),
                               (["--config", "cfg.json", "--full-scale"], "--full-scale applies only to --preset")]:
            with pytest.raises(SystemExit) as exc:
                cli_main(["run", *flags])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
