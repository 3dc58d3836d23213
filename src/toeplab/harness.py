"""Experiment configuration, seeded sweep execution, persistence, verification.

A run executes quantize -> perturb -> spectra / potential / diagnostics for
every (size, seed) cell of a validated configuration, or a subset of those
stages (the ``spectrum``, ``potential`` and ``grushin`` CLI verbs), and
persists plot-ready CSV tables plus a JSON manifest with per-artifact
checksums and per-cell numerical health.  Cells run as tasks on a thread
pool with OpenBLAS pinned to one thread, so identical configurations
byte-reproduce every CSV on the same build of numpy and its OpenBLAS (and
CPU instruction set, which OpenBLAS dispatches on) whatever the core count.
Without a pinnable OpenBLAS the cells run one at a time and the bits also
depend on the BLAS thread count.  The manifest additionally records
wall-clock, tool version and the build (and is therefore not byte-stable
itself).

Tasks overlap only inside dense calls that release the GIL.  Every LAPACK
call of a run goes through :mod:`toeplab._lapack`, numpy's own OpenBLAS
through ``ctypes``, which releases the GIL at every size and gives the bits
of ``np.linalg.eigvals``, ``np.linalg.slogdet`` and the ``scipy.linalg``
calls it replaces, so a run imports no scipy module.  Where numpy's
OpenBLAS lacks those routines, they fall back to numpy and scipy
(the manifest's ``lapack_route``), and the bits then also depend on
scipy's build.

Per-cell randomness: the Ginibre stream of cell ``(N, seed)`` is keyed by
``derive_seed(seed, "cell", N)``, so cells are independent and reproducible
in any execution order.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import json
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, _lapack
from .geometry import (
    QuadratureGrid,
    RegularityEstimate,
    estimate_kappa,
    evaluate_symbol_grid,
    liouville_quadrature,
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_to_record,
)
from .grushin import b_diagnostics
from .potential import limit_potential_many, potential_from_spectrum
from .quantize import ToeplitzMatrix, check_size, quantize_symbol
from .randmat import NormBound, derive_seed, noise_window, sample_ginibre
from .spectra import empirical_cdf_disks, weyl_predict


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


@dataclass
class ExperimentConfig:
    """A validated experiment description (see README for the JSON schema)."""

    space: str
    symbol: str                      # symbol record text
    n_values: list
    delta: dict                      # {"preset": "default"|"weyl"} or {"power": p}
    epsilon: float = 0.25
    rho: float = 0.2
    gamma: float = 0.04
    c_exponent: float = 0.5
    seeds: list = field(default_factory=lambda: [0])
    probe_grid: dict = field(default_factory=lambda: {"nx": 12, "ny": 12})
    radii: dict = field(default_factory=lambda: {"count": 50, "max": 1.0})
    grushin_probes: list = field(default_factory=lambda: [[0.3, 0.2]])
    unperturbed_sizes: list = field(default_factory=list)
    resolution: int = 200
    kappa_hat: float | None = None
    kappa_samples: int = 10**5
    out_dir: str | None = None

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {fld.name for fld in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        missing = {"space", "symbol", "n_values", "delta"} - set(data)
        if missing:
            raise ConfigError(f"missing configuration keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))

    def to_mapping(self) -> dict:
        return {
            "space": self.space, "symbol": self.symbol,
            "n_values": [int(n) for n in self.n_values],
            "unperturbed_sizes": [int(n) for n in self.unperturbed_sizes],
            "delta": self.delta, "epsilon": self.epsilon, "rho": self.rho,
            "gamma": self.gamma, "c_exponent": self.c_exponent,
            "seeds": [int(s) for s in self.seeds],
            "probe_grid": self.probe_grid, "radii": self.radii,
            "grushin_probes": self.grushin_probes, "resolution": int(self.resolution),
            "kappa_hat": self.kappa_hat, "kappa_samples": int(self.kappa_samples),
            "out_dir": self.out_dir,
        }

    def canonical_json(self) -> str:
        payload = self.to_mapping()
        payload.pop("out_dir")          # location does not affect the data products
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def noise_size(self, N: int) -> float:
        """delta(N) = N^-p: p = 1/2 + 2 epsilon for "default", 1 for "weyl", or the given power."""
        if "preset" in self.delta:
            name = self.delta["preset"]
            if name == "default":
                p = 0.5 + 2.0 * self.epsilon
            elif name == "weyl":
                p = 1.0
            else:
                raise ConfigError(f"unknown delta preset {name!r}")
        elif "power" in self.delta:
            p = float(self.delta["power"])
        else:
            raise ConfigError(f"delta rule must give a preset or a power, got {self.delta}")
        return float(N) ** -p

    def symbol_spec(self):
        f = symbol_from_record(self.symbol)
        if f.kind != self.space:
            raise ConfigError(f"symbol kind {f.kind!r} does not match space {self.space!r}")
        return f

    def radii_grid(self) -> np.ndarray:
        return np.linspace(0.0, float(self.radii.get("max", 1.0)), int(self.radii.get("count", 50)))

    def probe_points(self, f, space) -> np.ndarray:
        if "points" in self.probe_grid:
            return np.asarray([complex(re, im) for re, im in self.probe_grid["points"]])
        from .potential import default_probe_grid
        return default_probe_grid(f, space, int(self.probe_grid["nx"]), int(self.probe_grid["ny"]))

    def kappa_estimate(self) -> RegularityEstimate:
        """The sublevel-set exponent fit that :meth:`validate` uses without a ``kappa_hat``.

        Its seed comes from the configuration hash, so every run and the
        ``kappa`` verb of one configuration fit the same samples.
        """
        f = self.symbol_spec()
        return estimate_kappa(f, _kappa_probes(f, self.space), self.kappa_samples,
                              np.logspace(-3, -1, 7), seed=derive_seed("kappa", self.config_hash()))

    def validate(self) -> dict:
        """Hard-check the parameters; returns {kappa_hat, warnings}."""
        if not self.n_values:
            raise ConfigError("n_values must be a nonempty list")
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list")
        # run reads these with int(), which would truncate a float or a bool silently
        for key, values in (("n_values", self.n_values), ("seeds", self.seeds),
                            ("unperturbed_sizes", self.unperturbed_sizes),
                            ("resolution", [self.resolution]),
                            ("kappa_samples", [self.kappa_samples]),
                            ("radii count", [self.radii.get("count", 50)]),
                            ("probe_grid nx, ny", [self.probe_grid[k] for k in ("nx", "ny")
                                                   if k in self.probe_grid])):
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
                raise ConfigError(f"{key} must be integers, got {values}")
        if any(seed < 0 for seed in self.seeds):    # -1 labels the unperturbed cells
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if self.resolution < 2:
            raise ConfigError(f"resolution must be >= 2, got {self.resolution}")
        for key in ("n_values", "seeds", "unperturbed_sizes"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} has duplicate entries: {values}")
        if any(N < 2 for N in self.n_values):
            raise ConfigError(f"every size in n_values must be >= 2, got {self.n_values}")
        if not (0.0 < self.c_exponent < 1.0):
            raise ConfigError(f"c_exponent must lie in (0, 1), got {self.c_exponent}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if float(self.radii.get("max", 1.0)) < 0.0:
            raise ConfigError(f"radii max must be nonnegative, got {self.radii}")
        if self.radii.get("count", 50) < 1:
            raise ConfigError(f"radii count must be positive, got {self.radii}")
        for key, allowed in (("delta", {"preset", "power"}), ("radii", {"count", "max"}),
                             ("probe_grid", {"nx", "ny", "points"})):
            unknown = set(getattr(self, key)) - allowed
            if unknown:
                raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
        # run reads one form of each and would ignore the other
        for key, forms, wanted in (("delta", ({"preset"}, {"power"}), "a preset, a power"),
                                   ("probe_grid", ({"points"}, {"nx", "ny"}), "points, both nx and ny")):
            if set(getattr(self, key)) not in forms:
                raise ConfigError(f"{key} must give exactly one of: {wanted}; got {getattr(self, key)}")
        for key, points in (("grushin_probes", self.grushin_probes),
                            ("probe_grid points", self.probe_grid.get("points", []))):
            if not all(_is_pair(p) for p in points):
                raise ConfigError(f"every {key} entry must be an [re, im] pair, got {points}")
        if self.kappa_samples < 10**4:
            raise ConfigError(f"kappa_samples must be >= 10**4, got {self.kappa_samples}")
        for N in self.n_values:
            lower, upper = noise_window(N, self.epsilon, self.c_exponent)
            delta = self.noise_size(N)
            if not (lower < delta < upper):
                raise ConfigError(f"delta(N={N}) = {delta:.3e} outside admissible window "
                                  f"({lower:.3e}, {upper:.3e})")
        if not (0.0 < self.rho < min(0.5, self.epsilon)):
            raise ConfigError(
                f"rho={self.rho} outside (0, min(1/2, epsilon)) = (0, {min(0.5, self.epsilon)})")
        f = self.symbol_spec()          # rejects a symbol of another space
        for key in ("n_values", "unperturbed_sizes"):
            for N in getattr(self, key):
                try:
                    check_size(f, N)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
        kappa = self.kappa_hat
        if kappa is None:
            kappa = self.kappa_estimate().kappa
        gamma_cap = min(self.epsilon - self.rho, 2.0 * self.rho * kappa, 1.0 - 2.0 * self.rho)
        if not (0.0 < self.gamma < gamma_cap):
            raise ConfigError(
                f"gamma={self.gamma} outside (0, min(eps-rho, 2 rho kappa, 1-2 rho)) = (0, {gamma_cap:g})")
        # the kappa-dependent window can be empty at finite N; flag it
        c_paper = min(2.0 * self.rho * kappa, 1.0 - 2.0 * self.rho) - self.gamma
        warnings = []
        for N in self.n_values:
            delta = self.noise_size(N)
            if delta <= float(np.exp(-float(N) ** c_paper)):
                warnings.append(
                    f"N={N}: delta {delta:.3e} is below exp(-N^{c_paper:.3f}); "
                    "the kappa-derived window is empty at this size")
        return {"kappa_hat": float(kappa), "warnings": warnings}


def _is_pair(point) -> bool:
    return (isinstance(point, (list, tuple)) and len(point) == 2
            and all(isinstance(x, numbers.Real) for x in point))


def _kappa_probes(f, space_kind: str):
    # box probes for coverage plus image-value probes, which land where the
    # push-forward density concentrates (uniformity in z is the point)
    space = make_phase_space(space_kind)
    grid = liouville_quadrature(space, 64)
    vals = evaluate_symbol_grid(f.principal(), grid.points)
    re = np.linspace(vals.real.min(), vals.real.max(), 4)
    im = np.linspace(vals.imag.min(), vals.imag.max(), 4)
    probes = [complex(a, b) for a in re for b in im]
    from .geometry import sample_points
    probes += list(evaluate_symbol_grid(f.principal(), sample_points(space, 8, seed=1)))
    return probes


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_config(name: str, full_scale: bool = False) -> ExperimentConfig:
    """Figure-reproduction presets (desk-scale sizes by default)."""
    if name == "scottish-flag-figure1":
        return ExperimentConfig(
            space="torus",
            symbol=symbol_to_record(scottish_flag_symbol()),
            n_values=[1000 if full_scale else 300],
            unperturbed_sizes=[50],
            delta={"preset": "weyl"},
            seeds=[0],
            radii={"count": 50, "max": 2.0},
            grushin_probes=[[0.3, 0.2]],
        )
    if name == "sphere-figure3":
        return ExperimentConfig(
            space="sphere",
            symbol=symbol_to_record(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})),
            n_values=[2000 if full_scale else 300],
            delta={"preset": "weyl"},
            seeds=[0, 1, 2, 3, 4],
            radii={"count": 50, "max": 1.0},
            grushin_probes=[[0.3, 0.2]],
        )
    raise ConfigError(f"unknown preset {name!r}")


def acceptance_config() -> ExperimentConfig:
    """The configuration shared by the Weyl-law / potential / sign criteria."""
    cfg = preset_config("sphere-figure3")
    cfg.n_values = [100, 300]
    cfg.probe_grid = {"nx": 12, "ny": 12}
    return cfg


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """Paths and checksums of one executed configuration."""

    out_dir: str
    config_hash: str
    manifest: dict
    manifest_path: str


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


#: The stages a run computes per cell.  ``potential`` reads the spectrum
#: task's matrix and eigenvalues, so it needs ``spectrum``.
STAGES = ("spectrum", "potential", "grushin")


@dataclass(frozen=True)
class _Setup:
    """Run-wide inputs that every stage task reads; built once, before the tasks."""

    out: Path
    matrices: dict                      # N -> ToeplitzMatrix
    deltas: dict                        # N -> noise size delta(N), perturbed sizes
    grid: QuadratureGrid
    radii: np.ndarray
    predicted: np.ndarray | None        # None without the spectrum stage
    probes: np.ndarray | None           # None without the potential stage
    u_lim: np.ndarray | None
    grushin_probes: list
    rho: float


def run(config: ExperimentConfig, out_dir=None, workers=None, stages=STAGES) -> RunRecord:
    """Run the selected stages of every (size, seed) cell; persist artifacts atomically.

    ``stages`` is a subset of :data:`STAGES`.  The spectrum stage of a cell
    is one task (eigenvalues and disk counts, plus the potential when that
    stage is selected); the Grushin stage of a perturbed cell is a second
    task (a certified bound on ``||G||`` once, then the split at each
    Grushin probe).  Each task draws its own copy of the cell's noise, so no
    per-cell matrix exists outside a running task.  All tasks share one thread pool with one thread
    per usable CPU while every loaded OpenBLAS is pinned to one thread
    (restored afterwards); without a pinnable OpenBLAS the tasks run one at
    a time and BLAS keeps its own threads.  ``workers`` is ignored; it is
    kept so that callers passing it positionally, such as the benchmark's
    ``perfbench/child.py``, keep working.

    A failing task records its cell's error in the manifest and never
    disturbs sibling cells.
    """
    stages = set(stages)
    if not stages <= set(STAGES) or ("potential" in stages and "spectrum" not in stages):
        raise ValueError(f"stages must be a subset of {STAGES}, with 'potential' only "
                         f"beside 'spectrum'; got {sorted(stages)}")
    t_start = time.time()
    out = Path(out_dir or config.out_dir or "runs")
    out.mkdir(parents=True, exist_ok=True)

    validation = config.validate()
    f = config.symbol_spec()
    space = make_phase_space(config.space)
    radii = config.radii_grid()
    grid = liouville_quadrature(space, config.resolution)

    cells = [("unperturbed", int(N), None) for N in config.unperturbed_sizes]
    cells += [("perturbed", int(N), int(seed)) for N in config.n_values for seed in config.seeds]
    tasks = [(cell, _spectrum_task) for cell in cells if "spectrum" in stages]
    tasks += [(cell, _grushin_task) for cell in cells
              if "grushin" in stages and cell[0] == "perturbed"]

    probes = config.probe_points(f, space) if "potential" in stages else None
    setup = _Setup(
        out=out,
        matrices={N: quantize_symbol(f, N) for N in sorted({cell[1] for cell, _ in tasks})},
        deltas={int(N): config.noise_size(int(N)) for N in config.n_values},
        grid=grid,
        radii=radii,
        predicted=(weyl_predict(f, space, radii, grid)
                   if "spectrum" in stages else None),
        probes=probes,
        u_lim=None if probes is None else limit_potential_many(f, space, probes, grid),
        grushin_probes=[complex(re, im) for re, im in config.grushin_probes],
        rho=config.rho,
    )

    cell_files: dict = {}
    cell_health: dict = {}
    failures: dict = {}
    with _pinned_blas() as pinned:
        pool_size = _usable_cpus() if pinned else 1
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            futures = [(_cell_name(cell), pool.submit(task, setup, *cell)) for cell, task in tasks]
            for name, fut in futures:
                try:
                    task_files, task_health = fut.result()
                except Exception as exc:  # crash isolation per task
                    failures.setdefault(name, []).append(f"{type(exc).__name__}: {exc}")
                    continue
                cell_files.setdefault(name, {}).update(task_files)
                cell_health.setdefault(name, {}).update(task_health)
    errors = {name: "; ".join(dict.fromkeys(msgs)) for name, msgs in failures.items()}

    manifest = {
        "tool": "toeplab",
        "version": __version__,
        "config": config.to_mapping(),
        "config_hash": config.config_hash(),
        "kappa_hat": validation["kappa_hat"],
        "warnings": validation["warnings"],
        "wall_clock_s": time.time() - t_start,
        "environment": _environment(pinned, pool_size),
        "cells": {
            name: {"files": {k: {"path": str(p.name), "sha256": _sha256_file(p)}
                             for k, p in cell_files[name].items()},
                   "health": cell_health[name]}
            for name in sorted(cell_files) if name not in errors
        },
        "errors": errors,
    }
    manifest_path = out / "manifest.json"
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))
    return RunRecord(str(out), manifest["config_hash"], manifest, str(manifest_path))


def _cell_noise(T: ToeplitzMatrix, seed: int):
    """The cell's Ginibre matrix; every task of the cell draws the same one."""
    return sample_ginibre(T.dim, derive_seed(seed, "cell", T.N))


def _spectrum_task(setup: _Setup, kind: str, N: int, seed: int | None):
    """Spectrum stage of one cell, plus its potential when that stage is selected."""
    T = setup.matrices[N]
    name = _cell_name((kind, N, seed))
    if kind == "unperturbed":
        M = T.entries
    else:
        M = _cell_noise(T, seed)             # M = T + delta G, built over this task's G
        M *= setup.deltas[N]
        M += T.entries

    lam = _lapack.eigvals(M)
    files = {
        "spectrum": _emit(setup.out, f"eig_{name}.csv", "re,im",
                          ((z.real, z.imag) for z in lam)),
        "cdf": _emit(setup.out, f"cdf_{name}.csv", "r,empirical,predicted",
                     zip(setup.radii, empirical_cdf_disks(lam, setup.radii), setup.predicted)),
    }
    health = {"max_abs_eig": float(np.max(np.abs(lam)))}
    if setup.probes is None:
        return files, health

    seed_label = -1 if seed is None else seed
    u_emp, kept, potential_health = potential_from_spectrum(M, lam, setup.probes)
    rows = [(z.real, z.imag, N, seed_label, ue, ul,
             abs(ue - ul) if np.isfinite(ue) else float("nan"))
            for z, ue, ul in zip(setup.probes[kept], u_emp[kept], setup.u_lim[kept])]
    files["potential"] = _emit(setup.out, f"pot_{name}.csv",
                               "z_re,z_im,N,seed,U_emp,U_lim,deviation", rows)
    health.update(potential_health)
    return files, health


def _grushin_task(setup: _Setup, kind: str, N: int, seed: int):
    """Grushin stage of one perturbed cell: the split at each Grushin probe, in order."""
    T = setup.matrices[N]
    delta = setup.deltas[N]
    G = _cell_noise(T, seed)
    g_norm = NormBound(G)                   # certified; the exact norm only if a flag hinges on it
    diags = [b_diagnostics(T, z, setup.rho, delta, G, setup.grid, g_norm=g_norm)
             for z in setup.grushin_probes]
    rows = [(N, z.real, z.imag, setup.rho, delta, seed, d.n_small, d.b1, d.b2, d.b3,
             d.schur_residual, ";".join(d.flags))
            for z, d in zip(setup.grushin_probes, diags)]
    files = {"diagnostics": _emit(setup.out, f"diag_{_cell_name((kind, N, seed))}.csv",
                                  "N,z_re,z_im,rho,delta,seed,A,B1,B2,B3,schur_residual,flags",
                                  rows)}
    health = {
        # np.max, not max: a nan residual must surface, not vanish by order
        "schur_residual_max": float(np.max([d.schur_residual for d in diags], initial=0.0)),
        "bordered_condition_max": float(np.max([d.condition for d in diags], initial=0.0)),
        "grushin_flagged_probes": sum(1 for d in diags if d.flags),
        "cutoff_gap_min": float(np.min([d.cutoff_gap for d in diags])) if diags else None,
        "subspace_residual_max": float(np.max([d.subspace_residual for d in diags], initial=0.0)),
        "g_norm_bound": g_norm.bound,
        "g_norm_route": g_norm.route,
    }
    return files, health


# ---------------------------------------------------------------------------
# execution environment
# ---------------------------------------------------------------------------

#: (get, set) thread-count symbols of the scipy-openblas builds that the
#: numpy (ILP64) and scipy (LP64) wheels ship.  Other BLAS builds are left
#: alone, and the run is then serial.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list:
    """``(get, set)`` thread-count functions of every OpenBLAS mapped into this process now.

    Looked up afresh at each run, so an OpenBLAS mapped since the last run
    (scipy's, once a caller imports it) is pinned too.  Without numpy's
    LAPACKE the dense calls fall back to scipy, whose OpenBLAS is then
    mapped first.
    """
    if _lapack.routines() is None:
        import scipy.linalg  # noqa: F401

    controls = []
    for lib in _lapack.openblas_libraries():
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _pinned_blas():
    """Pin every loaded OpenBLAS to one thread; yields whether any was found.

    Each library's thread count is restored on exit, also when the body raises.
    """
    saved = [(set_, get()) for get, set_ in _openblas_thread_controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield bool(saved)
    finally:
        for set_, count in saved:
            set_(count)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # not on Linux
        return os.cpu_count() or 1


def _environment(pinned: bool, pool_size: int) -> dict:
    """Build and execution record of a run (its CSV bits depend on the build)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):               # numpy < 1.25 has no dict mode
        blas = {}
    try:
        import resource
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    except ImportError:                         # not on a POSIX system
        peak_rss_mb = None
    return {
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),      # not imported by a run
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_pinned": pinned,
        "blas_threads": 1 if pinned else None,
        "lapack_route": "fallback" if _lapack.routines() is None else "lapacke",
        "pool_size": pool_size,
        "usable_cpus": _usable_cpus(),
        "peak_rss_mb": peak_rss_mb,
    }


def _cell_name(cell) -> str:
    kind, N, seed = cell
    return f"N{N}_unperturbed" if kind == "unperturbed" else f"N{N}_s{seed}"


def _emit(out: Path, name: str, header: str, rows) -> Path:
    """Write the CSV artifact ``name``: the ``header`` line, then one line per row tuple.

    The one place that formats a field: a ``str`` as is, an integer as
    ``str(x)``, any other number as ``repr(float(x))`` (reads back bit-exact).
    """
    lines = [header] + [",".join(map(_csv_field, row)) for row in rows]
    path = out / name
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def _csv_field(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(x)
    return repr(float(x))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    criteria: dict

    def to_json(self) -> str:
        return json.dumps({"passed": self.passed, "criteria": self.criteria},
                          indent=2, sort_keys=True)


def verify(run_dir, suite: str = "acceptance") -> VerifyReport:
    """Check artifact integrity, that no cell failed, and the named criteria suite of a run."""
    out = Path(run_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return VerifyReport(False, {"integrity": {"status": "fail", "detail": "missing manifest"}})
    manifest = json.loads(manifest_path.read_text())
    criteria: dict = {}

    mismatched, missing, intact = [], [], set()
    for name, cell in manifest["cells"].items():
        for kind, info in cell["files"].items():
            path = out / info["path"]
            if not path.exists():
                missing.append(info["path"])
            elif _sha256_file(path) != info["sha256"]:
                mismatched.append(info["path"])
            else:
                intact.add(info["path"])
    if mismatched:
        criteria["integrity"] = {"status": "fail", "detail": f"checksum mismatch: {mismatched}"}
    elif missing:
        criteria["integrity"] = {"status": "fail", "detail": f"missing artifacts: {missing}"}
    else:
        criteria["integrity"] = {"status": "pass", "detail": f"{len(manifest['cells'])} cells intact"}
    failed = sorted(manifest["errors"])
    criteria["cell_errors"] = {"status": "fail" if failed else "pass",
                               "detail": f"failed cells: {failed}" if failed else "no failed cells"}

    if suite == "acceptance":
        _verify_acceptance(out, manifest, intact, criteria)
    elif suite != "integrity":
        raise ValueError(f"unknown verification suite {suite!r}")

    passed = all(c["status"] == "pass" for c in criteria.values() if c["status"] != "skipped")
    return VerifyReport(passed, criteria)


def _read_csv(path: Path) -> list:
    """Rows of a CSV artifact as dicts keyed by its header."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _verify_acceptance(out: Path, manifest: dict, intact: set, criteria: dict) -> None:
    """Judge the acceptance criteria on the ``intact`` artifacts the manifest lists.

    Only listed artifacts whose checksum matched are read: not a failed
    cell's CSVs left by an earlier run in the same directory, nor a file
    edited after the run.  A criterion judged at the largest size is
    skipped, naming that size, when no intact artifact of that size is left.
    """
    n_values = sorted(int(n) for n in manifest["config"]["n_values"])
    n_top = n_values[-1]
    seeds = manifest["config"]["seeds"]

    def tables(kind: str, N: int) -> list:
        """Rows of each intact ``kind`` artifact the manifest lists for size N."""
        found = []
        for seed in seeds:
            cell = manifest["cells"].get(_cell_name(("perturbed", N, seed)), {})
            info = cell.get("files", {}).get(kind)
            if info is not None and info["path"] in intact:
                found.append(_read_csv(out / info["path"]))
        return found

    cdfs = tables("cdf", n_top)
    if not cdfs:
        criteria["weyl_deviation"] = {"status": "skipped",
                                      "detail": f"no counting-curve artifact at N={n_top}"}
    else:
        worst = max(abs(float(r["empirical"]) - float(r["predicted"]))
                    for rows in cdfs for r in rows)
        criteria["weyl_deviation"] = {
            "status": "pass" if worst <= 0.05 else "fail",
            "detail": f"sup deviation {worst:.4f} (tolerance 0.05) over {len(cdfs)} seeds",
        }

    medians = {}
    for N in n_values:
        vals = [float(r["deviation"]) for rows in tables("potential", N) for r in rows]
        vals = [v for v in vals if np.isfinite(v)]
        if vals:
            medians[N] = float(np.median(vals))
    if n_top not in medians:
        criteria["potential_median"] = {"status": "skipped",
                                        "detail": f"no potential artifact at N={n_top}"}
    else:
        ok = medians[n_top] <= 0.05 and (len(medians) < 2 or medians[n_top] < medians[min(medians)])
        criteria["potential_median"] = {
            "status": "pass" if ok else "fail",
            "detail": f"medians by size: { {k: round(v, 6) for k, v in medians.items()} }",
        }

    b3_rows = 0
    b3_bad = 0
    schur_worst = 0.0
    sizes = []
    for N in n_values:
        diags = tables("diagnostics", N)
        if diags:
            sizes.append(N)
        for r in (r for rows in diags for r in rows):
            schur = float(r["schur_residual"])
            if int(r["A"]) >= 1:
                b3_rows += 1
                if not (float(r["B3"]) < 0.0):
                    b3_bad += 1
            if np.isfinite(schur):
                schur_worst = max(schur_worst, schur)
    if not sizes:
        criteria["b3_negative"] = {"status": "skipped", "detail": "no diagnostics artifacts"}
        criteria["schur_residual"] = {"status": "skipped", "detail": "no diagnostics artifacts"}
    else:
        criteria["b3_negative"] = {
            "status": "pass" if b3_bad == 0 else "fail",
            "detail": f"{b3_rows - b3_bad}/{b3_rows} realizations with A >= 1 have B3 < 0 "
                      f"(sizes {sizes})",
        }
        criteria["schur_residual"] = {
            "status": "pass" if schur_worst <= 1e-6 else "fail",
            "detail": f"worst residual {schur_worst:.3e} (tolerance 1e-6, sizes {sizes})",
        }
