"""Self-tests of the benchmark at tiny sizes; they take well under a minute.

    python3 -m pytest -q perfbench

No test asserts an absolute factorization count: later changes are meant to
lower them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from toeplab import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, out: Path) -> Path:
    cfg, workers = workloads.build(name, 7, tiny=True)
    harness.run(cfg, out, workers)
    return out


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_end_to_end_traced(name):
    result = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["harness.cells"]["value"] >= 1


def test_untraced_result_carries_the_end_to_end_metrics():
    result = bench("--workload", "grushin-scan", "--seed", "4", "--seconds", "0", "--trace", "0")
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_refuses_a_directory_without_toeplab(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flag-full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_same_seed_same_inputs_and_seeds_differ():
    a, _ = workloads.build("sphere-desk", 5)
    b, _ = workloads.build("sphere-desk", 5)
    c, _ = workloads.build("sphere-desk", 6)
    assert a.canonical_json() == b.canonical_json() != c.canonical_json()


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _rewrite(out: Path, cell: str, kind: str, edit) -> None:
    """Edit one artifact and re-record its checksum, so integrity still passes."""
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    info = manifest["cells"][cell]["files"][kind]
    lines = (out / info["path"]).read_text().splitlines()
    (out / info["path"]).write_text("\n".join(edit(lines)) + "\n")
    info["sha256"] = hashlib.sha256((out / info["path"]).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _failed(out: Path) -> dict:
    return {c.name: c.problems for c in check.check_run(out) if not c.ok}


def _perturbed_cell(out: Path) -> str:
    manifest = json.loads((out / "manifest.json").read_text())
    return next(n for n in manifest["cells"] if "unperturbed" not in n)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_check_passes_good_output(name, tmp_path):
    cells = check.check_run(tiny_run(name, tmp_path / name))
    assert cells and all(c.ok for c in cells)
    assert all(np.isfinite(c.weyl_sup_dev) and c.max_abs_lambda > 0 for c in cells)


def test_check_flags_a_tampered_potential_value(tmp_path):
    out = tiny_run("flag-full", tmp_path / "run")
    cell = _perturbed_cell(out)

    def bump(lines):
        r = lines[1].split(",")
        r[4] = repr(float(r[4]) + 1e-6)
        return [lines[0], ",".join(r)] + lines[2:]

    _rewrite(out, cell, "potential", bump)
    failed = _failed(out)
    assert list(failed) == [cell] and "potential" in failed[cell][0]


def test_check_flags_a_bad_schur_residual(tmp_path):
    out = tiny_run("grushin-scan", tmp_path / "run")
    cell = _perturbed_cell(out)

    def worsen(lines):
        r = lines[1].split(",")
        r[10] = "1e-3"
        return [lines[0], ",".join(r)] + lines[2:]

    _rewrite(out, cell, "diagnostics", worsen)
    assert "Schur" in _failed(out)[cell][0]


def test_check_flags_a_missing_artifact(tmp_path):
    out = tiny_run("sphere-desk", tmp_path / "run")
    cell = _perturbed_cell(out)
    manifest = json.loads((out / "manifest.json").read_text())
    (out / manifest["cells"][cell]["files"]["cdf"]["path"]).unlink()
    failed = _failed(out)
    assert list(failed) == [cell] and failed[cell] == ["missing artifact: cdf"]


def test_check_flags_an_errored_cell(tmp_path):
    out = tiny_run("flag-full", tmp_path / "run")
    manifest = json.loads((out / "manifest.json").read_text())
    cell = _perturbed_cell(out)
    del manifest["cells"][cell]
    manifest["errors"][cell] = "LinAlgError: injected"
    (out / "manifest.json").write_text(json.dumps(manifest))
    failed = _failed(out)
    assert list(failed) == [cell] and "injected" in failed[cell][0]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _traced(name: str, out: Path) -> tuple:
    with tracer.Tracer() as t:
        tiny_run(name, out)
    return tracer.layer_metrics(t.spans), tracer.linalg_attribution(t.spans), t.unmeasured


@pytest.mark.parametrize("name", ["sphere-desk", "grushin-scan"])
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    first, attr_a, _ = _traced(name, tmp_path / "a")
    second, attr_b, _ = _traced(name, tmp_path / "b")
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert counts and {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert attr_a == attr_b
    assert first["linalg.factorizations"] > 0 and first["grushin.probes"] > 0


def test_tracer_restores_every_patch(tmp_path):
    import scipy.linalg

    before = (np.linalg.svd, np.linalg.slogdet, scipy.linalg.lu_factor,
              harness.b_diagnostics, harness.ThreadPoolExecutor)
    _traced("sphere-desk", tmp_path / "run")
    after = (np.linalg.svd, np.linalg.slogdet, scipy.linalg.lu_factor,
             harness.b_diagnostics, harness.ThreadPoolExecutor)
    assert all(x is y for x, y in zip(before, after))


def test_pooled_cells_overlap_and_serial_cells_do_not(tmp_path):
    pooled, _, _ = _traced("sphere-desk", tmp_path / "pooled")
    serial, _, _ = _traced("flag-full", tmp_path / "serial")
    assert pooled["harness.overlap"] > 1.0
    assert serial["harness.overlap"] == 1.0
    assert pooled["harness.self_s"] >= 0.0
    assert 0.0 <= serial["harness.self_s"] <= serial["harness.run_s"]


def test_a_missing_name_is_unmeasured_not_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "LINALG_ENTRY_POINTS", tracer.LINALG_ENTRY_POINTS
                        + [("numpy.linalg", "no_such_routine", "lu", None)])
    monkeypatch.delattr(harness, "ThreadPoolExecutor")
    monkeypatch.delattr(sys.modules["toeplab.spectra"], "weyl_predict")
    with tracer.Tracer() as t:
        pass
    assert "linalg:numpy.linalg.no_such_routine" in t.unmeasured
    assert t.unmeasured[-2:] == ["spectra:weyl_predict", "harness:cell"]


def test_flop_models_count_dense_work_only():
    a = np.zeros((10, 10), dtype=complex)
    hooks = {f"{mod}.{attr}": hook for mod, attr, _, hook in tracer.LINALG_ENTRY_POINTS}
    svd, norm = hooks["numpy.linalg.svd"], hooks["numpy.linalg.norm"]
    assert svd((a,), {})["flops"] > svd((a,), {"compute_uv": False})["flops"] > 0
    assert norm((a, 2), {})["factorization"] and norm((a,), {}) is None
