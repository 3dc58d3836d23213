"""Per-cell output check of one ``harness.run`` directory.

A cell passes when

* ``harness.verify(out, suite="integrity")`` passes and its own artifacts
  exist with the checksums the manifest records;
* the run recorded no error for it and every expected artifact exists;
* its spectrum holds ``dim`` finite eigenvalues;
* every potential row agrees with ``sum log|lambda_i - z| / dim``, recomputed
  from the cell's own eigenvalue CSV, within :data:`POTENTIAL_TOL`;
* every diagnostics row has finite B1-B3 and a finite Schur residual of at
  most :data:`SCHUR_TOL` (the acceptance tolerance).

The disk-counting sup deviation and max |lambda| are recorded per cell but
never gate it: the desk-scale rim defect (acceptance criterion 3) stays
visible without counting as a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Absolute tolerance on the normalized potential ``log|det(M - z)| / dim``.
#: The slogdet and eigenvalue routes agree to <= 4e-15 on perturbed cells
#: and 3.5e-12 on the unperturbed N=50 torus cell; 1e-8 leaves headroom for
#: other BLAS builds while still catching any wrong row.
POTENTIAL_TOL = 1e-8

#: Acceptance tolerance on the Schur determinant-identity residual.
SCHUR_TOL = 1e-6


@dataclass
class CellCheck:
    name: str
    problems: list = field(default_factory=list)
    potential_rows: int = 0
    potential_err: float = 0.0
    weyl_sup_dev: float = float("nan")
    max_abs_lambda: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems


def _rows(path: Path) -> list:
    lines = path.read_text().strip().splitlines()
    return [ln.split(",") for ln in lines[1:]]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_cells(config: dict) -> list:
    """``(name, kind, N)`` of every cell the configuration asks for."""
    cells = [(f"N{int(N)}_unperturbed", "unperturbed", int(N)) for N in config["unperturbed_sizes"]]
    cells += [(f"N{int(N)}_s{int(s)}", "perturbed", int(N))
              for N in config["n_values"] for s in config["seeds"]]
    return cells


def check_run(out_dir) -> list:
    """Check every expected cell of a run directory; one CellCheck per cell."""
    from toeplab.harness import verify
    from toeplab.geometry import make_phase_space
    from toeplab.quantize import bergman_dimension

    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    config = manifest["config"]
    space = make_phase_space(config["space"])
    integrity = verify(out, suite="integrity")
    results = []
    for name, kind, N in expected_cells(config):
        c = CellCheck(name)
        results.append(c)
        if name in manifest["errors"]:
            c.problems.append(f"run error: {manifest['errors'][name]}")
            continue
        files = manifest["cells"].get(name, {}).get("files", {})
        wanted = ["spectrum", "cdf", "potential"] + (["diagnostics"] if kind == "perturbed" else [])
        for key in wanted:
            info = files.get(key)
            if info is None or not (out / info["path"]).exists():
                c.problems.append(f"missing artifact: {key}")
            elif _sha256(out / info["path"]) != info["sha256"]:
                c.problems.append(f"checksum mismatch: {info['path']}")
        if c.problems:
            continue
        _check_cell(c, out, files, bergman_dimension(space, N))
    if not integrity.passed and all(c.ok for c in results):
        for c in results:                      # a failure no single cell explains
            c.problems.append(f"integrity: {integrity.criteria['integrity']['detail']}")
    return results


def _check_cell(c: CellCheck, out: Path, files: dict, dim: int) -> None:
    eig = np.array([[float(x) for x in r] for r in _rows(out / files["spectrum"]["path"])])
    if eig.shape != (dim, 2) or not np.all(np.isfinite(eig)):
        c.problems.append(f"spectrum holds {eig.shape[0]} rows, expected {dim} finite")
        return
    lam = eig[:, 0] + 1j * eig[:, 1]
    c.max_abs_lambda = float(np.max(np.abs(lam)))

    cdf = np.array([[float(x) for x in r] for r in _rows(out / files["cdf"]["path"])])
    c.weyl_sup_dev = float(np.max(np.abs(cdf[:, 1] - cdf[:, 2])))

    for r in _rows(out / files["potential"]["path"]):
        z = complex(float(r[0]), float(r[1]))
        recomputed = float(np.sum(np.log(np.abs(lam - z)))) / dim
        err = abs(float(r[4]) - recomputed)
        c.potential_rows += 1
        if not err <= POTENTIAL_TOL:
            c.problems.append(f"potential at z={z}: {r[4]} vs {recomputed!r} from the spectrum")
        else:
            c.potential_err = max(c.potential_err, err)

    if "diagnostics" in files:
        for r in _rows(out / files["diagnostics"]["path"]):
            b123, schur = [float(x) for x in r[7:10]], float(r[10])
            if not (np.all(np.isfinite(b123)) and np.isfinite(schur) and schur <= SCHUR_TOL):
                c.problems.append(f"diagnostics at z=({r[1]},{r[2]}): B1-B3 {b123}, "
                                  f"Schur residual {schur} (tolerance {SCHUR_TOL})")
