"""Experiment configuration, seeded sweep execution, persistence, verification.

A run executes quantize -> perturb -> spectra / potential / diagnostics for
every (size, seed) cell of a validated configuration, or a subset of those
stages (the ``spectrum``, ``potential`` and ``grushin`` CLI verbs), and
persists plot-ready CSV tables plus a JSON manifest with per-artifact
checksums and per-cell numerical health.  The ``matrix`` stage (the
``quantize`` verb) persists each size's quantization matrix as ``.npy``.
Cells run as tasks on a thread pool, which starts right after validation
and quantization; set-up's quadrature runs beside the tasks' first dense
work and reaches them through one future.  The whole run, set-up included,
runs with OpenBLAS pinned to one thread, so identical configurations
byte-reproduce every CSV on the same build of numpy and its OpenBLAS and the
same OpenBLAS kernel, whatever the core count.  The manifest additionally
records wall-clock, run-level timings, tool version, the build and the
kernel (and is therefore not byte-stable itself).

Tasks overlap only inside dense calls that release the GIL.  Every LAPACK
call of a run but four goes through :mod:`toeplab._lapack`, numpy's own
OpenBLAS through ``ctypes``, which releases the GIL at every size and gives
the bits of ``np.linalg.eigvals``, ``np.linalg.slogdet`` and the
``scipy.linalg`` calls it replaces, so a run imports no scipy module.  The
four (named in :mod:`toeplab._lapack`) take numpy's linalg instead.  A numpy
whose OpenBLAS lacks those routines is refused before a run starts.

``run`` writes and ``verify`` reads by two tables, ``_CSV_KINDS`` (each cell
CSV's file name, stage and header) and ``_CRITERIA`` (each acceptance criterion),
and by one cell list (``ExperimentConfig.cells``) and one cell-stage rule (``_cell_stages``).

Per-cell randomness: the Ginibre stream of cell ``(N, seed)`` is keyed by
``derive_seed(seed, "cell", N)``, so cells are independent and reproducible
in any execution order.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import hashlib
import json
import math
import numbers
import os
import resource
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _lapack
from .geometry import (
    SPHERE,
    TORUS,
    RegularityEstimate,
    estimate_kappa,
    evaluate_symbol_grid,
    make_phase_space,
    sample_points,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_image,
    symbol_to_record,
)
from .grushin import _small_subspaces, b_diagnostics
from .potential import (
    default_probe_grid,
    limit_potential_many,
    log_abs_sums,
    potential_from_spectrum,
)
from .quantize import ToeplitzMatrix, bergman_dimension, check_size, quantize_symbol
from .randmat import NormBound, derive_seed, noise_window, sample_ginibre
from .spectra import empirical_cdf_disks, weyl_predict


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


_REQUIRED = object()                    # the default of a key that a configuration must give


@dataclass(frozen=True)
class _Key:
    """One configuration key: its kind, bounds, default and meaning.

    Every number of the value (itself, each list entry, each pair coordinate)
    lies in the interval ``bounds``; a key whose default is null may be null.
    An object with ``forms`` gives exactly one of those sets of its sub-keys;
    one without reads an omitted sub-key from its default.
    """

    kind: str                           # a key of _KINDS
    doc: str
    default: object = _REQUIRED
    bounds: str | None = None
    choices: tuple = ()
    nonempty: bool = False
    keys: dict | None = None
    forms: tuple = ()


#: The Grushin cutoff squares the singular values of P - z, which overflow above sqrt(float max) = 1.3e154.
_PROBE_BOUNDS = "[-1e150, 1e150]"

#: Every configuration key in field order, required ones first: the one statement of its kind,
#: bounds and default, read by the fields, ``from_mapping``, ``to_mapping`` and ``check_keys``.
CONFIG_KEYS = {
    "space": _Key("string", "phase space of the symbol", choices=(TORUS, SPHERE)),
    "symbol": _Key("record", "symbol record text (geometry.symbol_to_record)"),
    "n_values": _Key("integers", "sizes of the perturbed cells", bounds="[2, inf)", nonempty=True),
    "delta": _Key("object", "noise size delta(N) = N^-p", forms=(("preset",), ("power",)), keys={
        "preset": _Key("string", '"default": p = 1/2 + 2 epsilon; "weyl": p = 1', choices=("default", "weyl")),
        "power": _Key("real", "p itself; a negative one would overflow N^-p", bounds="[0, inf)"),
    }),
    "epsilon": _Key("real", "admissibility window exponent", 0.25, bounds="(0, inf)"),
    "rho": _Key("real", "cutoff exponent", 0.2, bounds="(0, 0.5)"),
    "gamma": _Key("real", "target rate", 0.04, bounds="(0, inf)"),
    "c_exponent": _Key("real", "lower noise window edge exp(-N^c)", 0.5, bounds="(0, 1)"),
    "seeds": _Key("integers", "noise seeds (-1 labels unperturbed cells)", [0], bounds="[0, inf)", nonempty=True),
    "probe_grid": _Key("object", "potential probes", {"nx": 12, "ny": 12}, forms=(("points",), ("nx", "ny")), keys={
        "points": _Key("pairs", "explicit probes", bounds=_PROBE_BOUNDS),
        "nx": _Key("integer", "grid columns over the box of f0 on the run's grid", bounds="[1, inf)"),
        "ny": _Key("integer", "grid rows", bounds="[1, inf)"),
    }),
    "radii": _Key("object", "disks |z| <= r, r in linspace(0, max, count)", {"count": 50, "max": 1.0}, keys={
        "count": _Key("integer", "number of radii", bounds="[1, inf)"),
        "max": _Key("real", "largest radius", bounds="[0, inf)"),
    }),
    "grushin_probes": _Key("pairs", "points z of the Grushin split", [[0.3, 0.2]], bounds=_PROBE_BOUNDS),
    "unperturbed_sizes": _Key("integers", "sizes run without noise", [], bounds="[2, inf)"),
    "resolution": _Key("integer", "quadrature resolution", 200, bounds="[2, inf)"),
    "kappa_hat": _Key("real", "regularity exponent; estimated when null", None, bounds="(0, 1]"),
    "kappa_samples": _Key("integer", "samples of the kappa fit", 10**5, bounds="[10000, inf)"),
    "out_dir": _Key("string", "output directory", None),
}


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


#: kind -> (test of a value, what a value must be); strict wherever ``run``
#: would reinterpret a value (README, *Configuration schema*).
_KINDS = {
    "integer": (_is_integer, "an integer"),
    "real": (_is_real, "a finite real number"),
    "string": (lambda x: isinstance(x, str), "a string"),
    "record": (lambda x: isinstance(x, str), "a symbol record string"),
    "object": (lambda x: isinstance(x, dict), "a JSON object"),
    "integers": (lambda x: isinstance(x, (list, tuple)), "a list"),
    "pairs": (lambda x: isinstance(x, (list, tuple)), "a list"),
}

#: list kind -> (test of an entry, what the entries must be)
_ENTRIES = {"integers": (_is_integer, "integers"),
            "pairs": (lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_real, x)),
                      "[re, im] pairs of finite numbers")}


def _within(bounds: str, x) -> bool:
    """Whether the number ``x`` lies in the interval ``bounds``, such as ``"(0, 1]"``."""
    low, high = (float(end) for end in bounds[1:-1].split(","))
    return (low < x if bounds[0] == "(" else low <= x) and (x < high if bounds[-1] == ")" else x <= high)


def _check(name: str, key: _Key, value) -> None:
    """Raise ConfigError unless ``value`` has ``key``'s kind, entries, form and bounds."""
    if value is None and key.default is None:
        return
    is_kind, kind_text = _KINDS[key.kind]
    if not is_kind(value):
        raise ConfigError(f"{name} must be {kind_text}{' or null' if key.default is None else ''}, "
                          f"got {value!r}")
    if isinstance(value, str) and "\0" in value:     # no path, record or name holds one
        raise ConfigError(f"{name} must not hold a NUL byte, got {value!r}")
    if key.choices and value not in key.choices:
        raise ConfigError(f"{name} must be one of {list(key.choices)}, got {value!r}")
    bounded = [value]
    if key.kind in _ENTRIES:
        is_entry, entries_text = _ENTRIES[key.kind]
        if key.nonempty and not value:
            raise ConfigError(f"{name} must be a nonempty list of {entries_text}, got {value!r}")
        if not all(map(is_entry, value)):
            raise ConfigError(f"{name} must be {entries_text}, got {value}")
        if key.kind == "integers" and len(set(value)) != len(value):    # a cell would run twice
            raise ConfigError(f"{name} has duplicate entries: {value}")
        bounded = value if key.kind == "integers" else [x for pair in value for x in pair]
    if key.kind == "object":
        if set(value) - set(key.keys):
            raise ConfigError(f"unknown {name} keys: {sorted(set(value) - set(key.keys))}")
        if key.forms and set(value) not in [set(form) for form in key.forms]:   # run reads one form
            wanted = ", ".join(form[0] if len(form) == 1 else "both " + " and ".join(form)
                               for form in key.forms)
            raise ConfigError(f"{name} must give exactly one of: {wanted}; got {value}")
        for sub, sub_value in value.items():
            _check(f"{name} {sub}", key.keys[sub], sub_value)
    if key.bounds and not all(_within(key.bounds, x) for x in bounded):
        raise ConfigError(f"{name} must lie in {key.bounds}, got {value}")


def _table_fields(cls):
    """Class decorator: a dataclass with one field per key of CONFIG_KEYS, in order, with its default."""
    cls.__annotations__ = dict.fromkeys(CONFIG_KEYS, "typing.Any")
    for name, key in CONFIG_KEYS.items():
        if key.default is not _REQUIRED:        # each config gets its own copy of a list or dict
            setattr(cls, name, field(default_factory=partial(copy.deepcopy, key.default))
                    if isinstance(key.default, (list, dict)) else key.default)
    return dataclass(cls)


@_table_fields
class ExperimentConfig:
    """An experiment description: one field per key of :data:`CONFIG_KEYS` (see README)."""

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a configuration must be a JSON object, got {data!r}")
        unknown = set(data) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        missing = {name for name, key in CONFIG_KEYS.items() if key.default is _REQUIRED} - set(data)
        if missing:
            raise ConfigError(f"missing configuration keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:    # ValueError: JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"cannot read configuration {path}: {exc}") from None
        return cls.from_mapping(data)

    def to_mapping(self) -> dict:
        mapping = {}
        for name, key in CONFIG_KEYS.items():
            value = getattr(self, name)
            if key.kind == "integer":           # int(): a numpy integer is not JSON
                value = int(value)
            elif key.kind == "integers":
                value = [int(x) for x in value]
            mapping[name] = value
        return mapping

    def canonical_json(self) -> str:
        payload = self.to_mapping()
        payload.pop("out_dir")          # location does not affect the data products
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def noise_size(self, N: int) -> float:
        """delta(N) = N^-p: p = 1/2 + 2 epsilon for "default", 1 for "weyl", or the given power."""
        if "power" in self.delta:
            p = float(self.delta["power"])
        else:
            p = {"default": 0.5 + 2.0 * self.epsilon, "weyl": 1.0}[self.delta["preset"]]
        return float(N) ** -p

    def cells(self) -> list:
        """The run's cells as ``(kind, N, seed)``, unperturbed ones first (seed None), then each
        size of ``n_values`` with each seed; read by :func:`run` and :func:`verify` alike."""
        return ([("unperturbed", int(N), None) for N in self.unperturbed_sizes]
                + [("perturbed", int(N), int(seed)) for N in self.n_values for seed in self.seeds])

    def symbol_spec(self):
        try:
            f = symbol_from_record(self.symbol)
        except ValueError as exc:
            raise ConfigError(f"symbol: {exc}") from None
        if f.kind != self.space:
            raise ConfigError(f"symbol kind {f.kind!r} does not match space {self.space!r}")
        return f

    def radii_grid(self) -> np.ndarray:
        radii = {**CONFIG_KEYS["radii"].default, **self.radii}
        return np.linspace(0.0, float(radii["max"]), int(radii["count"]))

    def probe_points(self, f, space) -> np.ndarray:
        """The run's potential probes of ``f``; ``space``, kept for callers such as the
        benchmark's ``perfbench/run.py``, must be ``f.space`` (else ConfigError)."""
        if space.kind != f.kind:
            raise ConfigError(f"space {space.kind!r} is not the {f.kind!r} space of the symbol")
        return self._probes(symbol_image(f, self.resolution))

    def _probes(self, image) -> np.ndarray:
        """The potential probes: ``probe_grid``'s points, or its grid over the box of ``image``."""
        if "points" in self.probe_grid:
            return np.asarray([complex(re, im) for re, im in self.probe_grid["points"]])
        return default_probe_grid(image, int(self.probe_grid["nx"]), int(self.probe_grid["ny"]))

    def kappa_estimate(self) -> RegularityEstimate:
        """The sublevel-set exponent fit that :meth:`validate` uses without a ``kappa_hat``.

        Its seed comes from the configuration hash, so every run and the
        ``kappa`` verb of one configuration fit the same samples.
        """
        f = self.symbol_spec()
        try:
            return estimate_kappa(f, _kappa_probes(f), self.kappa_samples,
                                  np.logspace(-3, -1, 7), seed=derive_seed("kappa", self.config_hash()))
        except ValueError as exc:               # a constant symbol has no sublevel sets to fit
            raise ConfigError(f"kappa_hat is null and the kappa fit failed ({exc}); "
                              "give kappa_hat in the configuration") from None

    def check_keys(self) -> None:
        """Check each key on its own against :data:`CONFIG_KEYS`; raises ConfigError."""
        for name, key in CONFIG_KEYS.items():
            _check(name, key, getattr(self, name))

    def validate(self) -> dict:
        """Hard-check each key, then the rules between keys; returns {kappa_hat, warnings}."""
        self.check_keys()
        for N in self.n_values:
            lower, upper = noise_window(N, self.epsilon, self.c_exponent)
            delta = self.noise_size(N)
            if not (lower < delta < upper):
                raise ConfigError(f"delta(N={N}) = {delta:.3e} outside admissible window "
                                  f"({lower:.3e}, {upper:.3e})")
        if not self.rho < min(0.5, self.epsilon):
            raise ConfigError(f"rho={self.rho} outside (0, min(1/2, epsilon)) = (0, {min(0.5, self.epsilon)})")
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
        if not self.gamma < gamma_cap:
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


def _kappa_probes(f):
    # box probes for coverage plus image-value probes, which land where the
    # push-forward density concentrates (uniformity in z is the point)
    vals = symbol_image(f, 64).values
    re = np.linspace(vals.real.min(), vals.real.max(), 4)
    im = np.linspace(vals.imag.min(), vals.imag.max(), 4)
    probes = [complex(a, b) for a in re for b in im]
    probes += list(evaluate_symbol_grid(f.principal(), sample_points(f.space, 8, seed=1)))
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
            radii={"count": 50, "max": 2.0},
        )
    if name == "sphere-figure3":
        return ExperimentConfig(
            space="sphere",
            symbol=symbol_to_record(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0})),
            n_values=[2000 if full_scale else 300],
            delta={"preset": "weyl"},
            seeds=[0, 1, 2, 3, 4],
        )
    raise ConfigError(f"unknown preset {name!r}")


def acceptance_config() -> ExperimentConfig:
    """The configuration shared by the Weyl-law / potential / sign criteria."""
    cfg = preset_config("sphere-figure3")
    cfg.n_values = [100, 300]
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


def _atomic_write(path: Path, write) -> Path:
    """Call ``write`` on a binary file at a temporary sibling of ``path``, then rename it to ``path``."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)
    return path


#: The stages a run computes per cell by default.  ``potential`` reads the
#: spectrum task's eigenvalues, and ``grushin`` reads them as route one of
#: its Schur check, so both need ``spectrum``.
#: One more stage, ``matrix``, writes each size's quantization matrix; only
#: the ``quantize`` verb selects it.
STAGES = ("spectrum", "potential", "grushin")
_ALL_STAGES = (*STAGES, "matrix")


@dataclass(frozen=True)
class _Setup:
    """Run-wide inputs that every stage task reads.

    All but ``classical`` are built before the tasks start.  Set-up publishes
    its derived values (:func:`_classical`) through ``classical`` while the
    tasks run; a task does its cell's own dense work first, then waits on it.
    """

    out: Path
    matrices: dict                      # N -> ToeplitzMatrix
    deltas: dict                        # N -> noise size delta(N), perturbed sizes
    rho: float
    grushin_probes: list                # the Grushin probes z, in order; empty without that stage
    classical: Future                   # of the run's _Classical


@dataclass(frozen=True)
class _Classical:
    """A run's derived set-up values: the classical side of every comparison."""

    radii: np.ndarray
    predicted: np.ndarray               # Weyl prediction at each radius
    probes: np.ndarray | None           # None without the potential stage
    u_lim: np.ndarray                   # classical potential at each probe of probes, or nan
    grushin_u_lim: np.ndarray           # classical potential at each Grushin probe, or nan


def _stages_problem(stages) -> str | None:
    """How ``stages`` breaks the rule of a stage selection, or None.

    A selection is a nonempty list of names from :data:`_ALL_STAGES`, with
    ``potential`` and ``grushin`` only beside ``spectrum``, whose eigenvalues
    both read.  :func:`run` refuses a
    selection that breaks it, and :func:`verify` a manifest whose ``stages`` do.
    """
    if not (isinstance(stages, list) and stages and all(stage in _ALL_STAGES for stage in stages)):
        return f"stages must be a list of stage names, got {stages!r} (a nonempty subset of {_ALL_STAGES})"
    if {"potential", "grushin"} & set(stages) and "spectrum" not in stages:
        return f"stages {stages!r} need 'spectrum' beside 'potential' and 'grushin'"
    return None


def _cell_stages(cell, stages) -> set:
    """The cell stages of ``stages`` that ``cell`` runs: an unperturbed cell has no noise to split,
    so no Grushin task and no ``diag_`` CSV.  :func:`run`'s tasks and :func:`verify`'s listing read it."""
    return {stage for stage in STAGES
            if stage in stages and not (stage == "grushin" and cell[0] == "unperturbed")}


def run(config: ExperimentConfig, out_dir=None, workers=None, stages=STAGES) -> RunRecord:
    """Run the selected stages of every (size, seed) cell; persist artifacts atomically.

    ``stages`` is a nonempty subset of :data:`STAGES` and ``matrix`` (see
    :func:`_stages_problem`).  The matrix
    stage writes ``mat_N{N}.npy`` for every size of ``n_values`` and
    ``unperturbed_sizes`` and lists them under the manifest's ``matrices``.
    The spectrum stage of a cell is one task (eigenvalues and disk counts,
    and the potential when that stage is selected); the Grushin stage of a
    perturbed cell is a second task (the last probe's small subspaces, a
    certified bound on ``||G||`` once, then the split at each Grushin probe,
    the last one factored over ``G``).  Neither waits on the other;
    where the results are collected, spectrum tasks first, the ``diag_`` CSV
    gets each probe's Schur residual, the two routes to ``log|det(M - z)|``:
    the cell's eigenvalues and the split.

    Validation and quantization come first; then every task starts, and
    set-up evaluates ``f0`` once on the run's quadrature grid, which gives
    the probes, the classical potential of every potential and Grushin
    probe and the Weyl prediction (:func:`_classical`), while the tasks draw
    their noise and do their first dense work (the eigensolve; the last
    probe's subspaces and the bound on ``||G||``).  Each task waits for
    those values only after that work, so no task evaluates the symbol; a probe that
    the quadrature cannot give fails each task that needs it, and a set-up
    that raises fails every task and raises from ``run``.  Each task draws its own copy of the cell's noise, so no
    per-cell matrix exists outside a running task.  All tasks share one thread pool with one thread
    per usable CPU.  From validation on, numpy's OpenBLAS, which does every
    dense call, is pinned to one thread (restored afterwards).  ``workers`` is ignored; it is
    kept so that callers passing it positionally, such as the benchmark's
    ``perfbench/child.py``, keep working.  The manifest's ``timings`` give
    the seconds of validation (``validate_s``), of the rest of set-up until
    its quadrature's values are out (``setup_s``), and from the first task's
    start to the last one's end (``pool_s``); the last two overlap.  Each
    cell's ``timings`` give the stage seconds of its tasks, under
    ``spectrum`` (:func:`_spectrum_task`) and ``grushin`` (:func:`_grushin_task`).

    A failing task records its cell's error in the manifest and never
    disturbs sibling cells.  A numpy without its OpenBLAS LAPACKE raises
    :class:`~toeplab._lapack.UnsupportedBuildError` before anything else, and an output
    directory that cannot be made raises :class:`ConfigError` after validation.
    """
    _lapack.require()
    problem = _stages_problem(stages if isinstance(stages, str) else list(stages))
    if problem:
        raise ValueError(problem)
    with _pinned_blas():                        # set-up too: a threaded dot moves its sums' bits
        return _run(config, out_dir, set(stages))


def _run(config: ExperimentConfig, out_dir, stages: set) -> RunRecord:
    """The body of :func:`run`, on one OpenBLAS thread."""
    t_start, t_validate = time.time(), time.perf_counter()
    validation = config.validate()             # a rejected config leaves no directory behind
    t_setup = time.perf_counter()
    out = Path(out_dir or config.out_dir or "runs")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {str(out)!r} is not a usable directory: {exc.strerror}") from None
    f = config.symbol_spec()

    cells = config.cells()
    tasks = [(cell, task) for stage, task in (("spectrum", _spectrum_task), ("grushin", _grushin_task))
             for cell in cells if stage in _cell_stages(cell, stages)]     # spectrum tasks first

    sizes = {cell[1] for cell, _ in tasks}
    if "matrix" in stages:
        sizes.update(cell[1] for cell in cells)
    setup = _Setup(
        out=out,
        matrices={N: quantize_symbol(f, N) for N in sorted(sizes)},
        deltas={int(N): config.noise_size(int(N)) for N in config.n_values},
        rho=config.rho,
        grushin_probes=_grushin_probes(config, stages),
        classical=Future(),
    )

    cell_files: dict = {}
    cell_health: dict = {}
    cell_timings: dict = {}                     # cell name -> stage -> its task's stage timings
    failures: dict = {}
    pool_size = _usable_cpus()
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        t_pool = time.perf_counter()
        futures = [pool.submit(_releasing, task, setup, *cell) for cell, task in tasks]
        try:                                    # beside the tasks' first dense work
            setup.classical.set_result(_classical(config, stages))
        except BaseException as exc:            # KeyboardInterrupt too: no task may wait forever
            setup.classical.set_exception(exc)
            for fut in futures:
                fut.cancel()
            raise
        setup_s = time.perf_counter() - t_setup
        _release_heap()                         # the quadrature's temporaries
        spectra = {}                    # cell name -> its eigenvalues, route one of its Schur checks
        for (cell, task), fut in zip(tasks, futures):   # spectrum tasks first: route one, then split
            name = _cell_name(cell)
            try:
                result = fut.result()
                if task is _spectrum_task:
                    task_files, task_health, spectra[name], timings = result
                elif name not in spectra:       # the spectrum task failed; its error stands
                    continue
                else:
                    diags, health, timings = result
                    task_files, task_health = _diagnostics(setup, cell, diags, health, spectra[name])
            except Exception as exc:  # crash isolation per task
                failures.setdefault(name, []).append(f"{type(exc).__name__}: {exc}")
                continue
            cell_files.setdefault(name, {}).update(task_files)
            cell_health.setdefault(name, {}).update(task_health)
            cell_timings.setdefault(name, {})["spectrum" if task is _spectrum_task else "grushin"] = timings
    pool_s = time.perf_counter() - t_pool
    errors = {name: "; ".join(dict.fromkeys(msgs)) for name, msgs in failures.items()}
    matrices = {}
    if "matrix" in stages:
        for N, T in setup.matrices.items():
            path = _atomic_write(out / f"mat_N{N}.npy",    # one dense matrix at a time
                                 lambda fh: np.save(fh, T.dense(), allow_pickle=False))
            matrices[f"N{N}"] = _artifact_record(path)

    manifest = {
        "tool": "toeplab",
        "version": __version__,
        "config": config.to_mapping(),
        "config_hash": config.config_hash(),
        "kappa_hat": validation["kappa_hat"],
        "warnings": validation["warnings"],
        "wall_clock_s": time.time() - t_start,
        "timings": {"validate_s": t_setup - t_validate, "setup_s": setup_s, "pool_s": pool_s},
        "environment": {**_environment(pool_size), "bands": {
            f"N{N}": {"diagonals": len(T.diagonals), "lo": T.band.lo, "hi": T.band.hi,
                      "interleaved": T.band.perm is not None}
            for N, T in setup.matrices.items()}},
        "stages": [stage for stage in _ALL_STAGES if stage in stages],
        "cells": {
            name: {"files": {k: _artifact_record(p) for k, p in cell_files[name].items()},
                   "health": _strict_health(cell_health[name]), "timings": cell_timings[name]}
            for name in sorted(cell_files) if name not in errors
        },
        "matrices": matrices,
        "errors": errors,
    }
    manifest_path = out / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(manifest_path, lambda fh: fh.write(text.encode()))
    return RunRecord(str(out), manifest["config_hash"], manifest, str(manifest_path))


def _classical(config: ExperimentConfig, stages: set) -> _Classical | None:
    """A run's derived set-up values for ``stages``; None for a matrix-only run, whose stage reads none.

    One evaluation of ``f0`` on the run's quadrature grid
    (:func:`~toeplab.geometry.symbol_image`) gives the probes, the classical
    potential of every probe of the run and the Weyl prediction.  The tasks'
    first dense work runs beside these steps, so each step's temporaries are
    released (:func:`_release_heap`) before the next step allocates its
    own: kept resident, they would count in the run's peak beside the
    tasks' matrices.
    """
    if "spectrum" not in stages:                # potential and grushin need it
        return None
    image = symbol_image(config.symbol_spec(), config.resolution)
    _release_heap()                             # the kappa fit's temporaries and the grid's nodes
    probes = config._probes(image) if "potential" in stages else None
    n_probes = 0 if probes is None else len(probes)
    # the classical potential of every probe of the run, in one call; nan where it hits nodes
    u_lim = limit_potential_many(image, [*([] if probes is None else probes),
                                         *_grushin_probes(config, stages)])
    _release_heap()
    radii = config.radii_grid()
    return _Classical(
        radii=radii,
        predicted=weyl_predict(image, radii),
        probes=probes,
        u_lim=u_lim[:n_probes],
        grushin_u_lim=u_lim[n_probes:],
    )


def _grushin_probes(config: ExperimentConfig, stages: set) -> list:
    """The run's Grushin probes z, in order: the configuration's, or none without the Grushin stage."""
    return [complex(re, im) for re, im in config.grushin_probes] if "grushin" in stages else []


def _strict_health(health: dict) -> dict:
    """``health`` with each inf or nan value as None, its key listed under ``nonfinite``.

    Strict JSON has no inf or nan, so the manifest records which values were.
    """
    nonfinite = sorted(k for k, v in health.items() if isinstance(v, float) and not math.isfinite(v))
    if not nonfinite:
        return health
    return {**health, **dict.fromkeys(nonfinite), "nonfinite": nonfinite}


def _artifact_record(path: Path) -> dict:
    return {"path": path.name, "sha256": _sha256_file(path)}


def _cell_noise(T: ToeplitzMatrix, seed: int, out: np.ndarray | None = None):
    """The cell's Ginibre matrix, in Fortran order or in ``out``; every task of the cell draws the same one."""
    return sample_ginibre(T.dim, derive_seed(seed, "cell", T.N), out=out)


class _Clock:
    """Seconds per named stage of one task, each lap timed from the end of the one before and
    added to its stage's seconds."""

    def __init__(self):
        self.seconds, self._last = {}, time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage], self._last = self.seconds.get(stage, 0.0) + now - self._last, now


def _spectrum_task(setup: _Setup, kind: str, N: int, seed: int | None):
    """Spectrum stage of one cell and its potential when selected.

    Returns its files, health, eigenvalues and stage timings: ``draw_s``
    (forming ``M``), ``eigensolve_s``, ``wait_s`` (for set-up's values),
    ``potential_s`` (the potential and, in an unperturbed cell, its check)
    and ``emit_s`` (its CSVs).
    """
    clock = _Clock()
    T = setup.matrices[N]
    name = _cell_name((kind, N, seed))
    # M is overwritten by the eigensolve; T, shared by every task, lends only its diagonals
    if kind == "unperturbed":
        M = T.copy_to(np.zeros((T.dim, T.dim), dtype=complex, order="F"))
    else:
        M = _cell_noise(T, seed)             # M = T + delta G, built over this task's G
        M *= setup.deltas[N]
        T.add_to(M)
    clock.lap("draw_s")
    lam = _lapack.eigvals(M)
    del M                                   # overwritten by zgeev; freed before the potential's work
    clock.lap("eigensolve_s")
    classical = setup.classical.result()
    clock.lap("wait_s")
    health = {"max_abs_eig": float(np.max(np.abs(lam)))}
    tables = {"spectrum": ((z.real, z.imag) for z in lam),
              "cdf": zip(classical.radii, empirical_cdf_disks(lam, classical.radii), classical.predicted)}
    if classical.probes is not None:
        _require_classical(zip(classical.probes, classical.u_lim))
        seed_label = -1 if seed is None else seed
        u_emp, kept, potential_health = potential_from_spectrum(
            lam, classical.probes, T if kind == "unperturbed" else None)
        tables["potential"] = [(z.real, z.imag, N, seed_label, ue, ul, _deviation(ue, ul)) for z, ue, ul
                               in zip(classical.probes[kept], u_emp[kept], classical.u_lim[kept])]
        health.update(potential_health)
        clock.lap("potential_s")
    files = {table: _emit(setup.out, table, name, rows) for table, rows in tables.items()}
    clock.lap("emit_s")
    return files, health, lam, clock.seconds


def _deviation(u_emp: float, u_lim: float) -> float:
    """A potential row's ``deviation``: ``|U_emp - U_lim|``, nan where ``U_emp`` is not finite."""
    return abs(u_emp - u_lim) if math.isfinite(u_emp) else float("nan")


def _grushin_task(setup: _Setup, kind: str, N: int, seed: int):
    """Grushin stage of one perturbed cell: the split at each Grushin probe, in order, the
    ``||G||`` health and stage timings (``draw_s``, ``norm_bound_s``, ``wait_s`` for set-up's
    values and ``split_s`` over every probe), but not ``G``: the result waits in its future
    for :func:`_diagnostics`.

    The last probe's small subspaces come first; the probes are the configuration's, so
    that needs nothing from set-up.  ``G`` is drawn into the top-left block of that probe's
    ``(dim + A)^2`` bordered matrix, and the earlier probes build their own from it.  The
    last probe then forms and factors its bordered matrix over ``G``, so a one-probe cell
    holds ``G`` and half a dim^2 array while the bound on ``||G||`` is certified
    (:func:`~toeplab.randmat.certify_norm_bound`), and no second dim^2 array in its split."""
    clock = _Clock()
    T, zs, delta = setup.matrices[N], setup.grushin_probes, setup.deltas[N]
    last = _small_subspaces(T, zs[-1], setup.rho) if zs else None
    clock.lap("split_s")
    A = last[1].n_small if zs else 0
    bordered = np.empty((T.dim + A, T.dim + A), dtype=complex, order="F")
    G = _cell_noise(T, seed, out=bordered[:T.dim, :T.dim])
    clock.lap("draw_s")
    g_norm = NormBound(G)                   # certified; the exact norm only if a flag hinges on it
    clock.lap("norm_bound_s")
    u_lim = setup.classical.result().grushin_u_lim
    clock.lap("wait_s")
    _require_classical(zip(zs, u_lim))
    diags = [b_diagnostics(T, z, setup.rho, delta, G, classical, g_norm=g_norm)
             for z, classical in zip(zs[:-1], u_lim[:-1])]
    if zs:                                  # over G: the exact norm, if needed, comes first
        diags.append(b_diagnostics(T, zs[-1], setup.rho, delta, G, u_lim[-1], g_norm=g_norm,
                                   bases=last, bordered=bordered))
    clock.lap("split_s")
    return diags, {"g_norm_bound": g_norm.bound, "g_norm_route": g_norm.route}, clock.seconds


def _diagnostics(setup: _Setup, cell, diags: list, health: dict, lam):
    """The ``diag_`` CSV and Grushin health of a perturbed cell, from both of its tasks.

    A probe's Schur residual is ``|route one - (log|det bordered| + log|det corner|)|``, route one
    being :func:`~toeplab.potential.log_abs_sums` of the eigenvalues ``lam``; nan when either side is not finite."""
    _, N, seed = cell
    zs = setup.grushin_probes
    totals = [d.log_det_bordered + d.log_det_corner for d in diags]
    residuals = [abs(a - b) if np.isfinite(a) and np.isfinite(b) else float("nan")
                 for a, b in zip(log_abs_sums(lam, zs), totals)]
    rows = [(N, z.real, z.imag, setup.rho, setup.deltas[N], seed, d.n_small, d.b1, d.b2, d.b3,
             residual, ";".join(d.flags))
            for z, d, residual in zip(zs, diags, residuals)]
    return {"diagnostics": _emit(setup.out, "diagnostics", _cell_name(cell), rows)}, {
        # np.max, not max: a nan residual must surface, not vanish by order
        "schur_residual_max": float(np.max(residuals, initial=0.0)),
        "bordered_condition_max": float(np.max([d.condition for d in diags], initial=0.0)),
        "grushin_flagged_probes": sum(1 for d in diags if d.flags),
        "cutoff_gap_min": float(np.min([d.cutoff_gap for d in diags])) if diags else None,
        "subspace_residual_max": float(np.max([d.subspace_residual for d in diags], initial=0.0)),
        **health,
    }


def _require_classical(pairs):
    """Raise for the first ``(z, classical potential)`` pair whose quadrature set-up could not do."""
    for z, classical in pairs:
        if math.isnan(classical):
            raise ValueError(f"probe z={z} hits quadrature node images at every refinement")


# ---------------------------------------------------------------------------
# execution environment
# ---------------------------------------------------------------------------

@contextmanager
def _pinned_blas():
    """Pin numpy's OpenBLAS, the one library that :mod:`~toeplab._lapack` binds, to one thread.

    A run calls no other BLAS: it loads no scipy.  The thread count is
    restored on exit, also when the body raises.
    """
    blas = _lapack.require()
    count = blas["get_num_threads"]()
    blas["set_num_threads"](1)
    try:
        yield
    finally:
        blas["set_num_threads"](count)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim`` from this process's C library, or None where it has none (musl, macOS).

    Looked up at the first call, not at import.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):    # TypeError: no CDLL(None) on Windows
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_heap() -> None:
    """Return the heap pages that ``free`` left resident to the OS, where ``malloc_trim`` exists.

    glibc keeps what a thread frees resident in that thread's arena, for
    the arena's next allocation, so the dim^2 arrays a pool task freed
    would count in the run's peak beside the next task's.  Called only at a
    run's phase boundaries: after each of set-up's quadrature steps, which
    run beside the first tasks, and as each pool task ends.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _releasing(task, *args):
    """Run one pool task, then release the heap it freed, also when it raises."""
    try:
        return task(*args)
    finally:
        _release_heap()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _environment(pool_size: int) -> dict:
    """Build and execution record of a run (its CSV bits depend on the build)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "corename": _lapack.require()["get_corename"]().decode()},
        "blas_threads": 1,
        "pool_size": pool_size,
        "usable_cpus": _usable_cpus(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        "heap_release": None if _malloc_trim() is None else "malloc_trim",
    }


def _cell_name(cell) -> str:
    kind, N, seed = cell
    return f"N{N}_unperturbed" if kind == "unperturbed" else f"N{N}_s{seed}"


#: Each kind of cell CSV: its file name prefix, the stage that writes it and its header; the one
#: statement of all three, read by :func:`_emit`, :func:`_read_csv` and :func:`verify`.
_CSV_KINDS = {
    "spectrum": ("eig", "spectrum", "re,im"),
    "cdf": ("cdf", "spectrum", "r,empirical,predicted"),
    "potential": ("pot", "potential", "z_re,z_im,N,seed,U_emp,U_lim,deviation"),
    "diagnostics": ("diag", "grushin", "N,z_re,z_im,rho,delta,seed,A,B1,B2,B3,schur_residual,flags"),
}


def _csv_name(kind: str, cell: str) -> str:
    return f"{_CSV_KINDS[kind][0]}_{cell}.csv"


def _emit(out: Path, kind: str, cell: str, rows) -> Path:
    """Write the ``kind`` CSV of the named ``cell``, its file name and header line from
    :data:`_CSV_KINDS`, then one line per row tuple.

    The one place that formats a field: a ``str`` as is, an integer as
    ``str(x)``, any other number as ``repr(float(x))`` (reads back bit-exact).
    """
    lines = [_CSV_KINDS[kind][2]] + [",".join(map(_csv_field, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    return _atomic_write(out / _csv_name(kind, cell), lambda fh: fh.write(text.encode()))


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
    """Check artifact integrity, that no cell failed, and the named criteria suite of a run.

    An unknown ``suite`` raises ValueError before any file is read.  A missing
    or malformed manifest fails the ``integrity`` criterion (:func:`_read_manifest`;
    its ``config`` is read by the key table that ``run`` reads a configuration
    by), and so does a file listing other than :func:`_expected_artifacts`, the
    files ``run`` writes for the configuration's cells that did not fail.
    Each cell CSV listed under its expected name, with a matching checksum, is
    parsed once by :func:`_read_csv`; the cross-check of :func:`_inconsistent_cells`
    and the criteria read those rows.  A CSV that :func:`_read_csv` refuses fails
    ``integrity`` and each criterion that reads it, naming the file.
    """
    if suite not in ("acceptance", "integrity"):
        raise ValueError(f"unknown verification suite {suite!r}")
    out = Path(run_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return _integrity_failure("missing manifest")
    try:
        manifest = json.loads(manifest_path.read_text(), parse_constant=_refuse_constant)
        config = _read_manifest(manifest)
    except ValueError as exc:                   # JSONDecodeError, UnicodeDecodeError, NaN, a malformed part
        return _integrity_failure(f"malformed manifest: {exc}")
    expected = _expected_artifacts(config, manifest["stages"], manifest["errors"])
    paths = {label: info["path"] for label, info in _artifacts(manifest)}
    listing = [f"{label}: listed {paths.get(label)}, run writes {expected.get(label)}"
               for label in sorted({*expected, *paths}) if paths.get(label) != expected.get(label)]

    mismatched, missing, intact = [], [], set()
    for _, info in _artifacts(manifest):
        path = out / info["path"]
        if not path.exists():
            missing.append(info["path"])
        elif _sha256_file(path) != info["sha256"]:
            mismatched.append(info["path"])
        else:
            intact.add(info["path"])
    tables, refused = {}, {}            # (cell, kind) -> its rows, or what _read_csv said of it
    for name, cell in sorted(manifest["cells"].items()):
        for kind, info in cell["files"].items():
            if info["path"] in intact and expected.get(f"cell {name} {kind}") == info["path"]:
                try:
                    tables[name, kind] = _read_csv(out / info["path"], kind)
                except ValueError as exc:
                    refused[name, kind] = str(exc)
    faults = [("checksum mismatch", mismatched), ("missing artifacts", missing),     # the first found fails
              ("artifacts not as run writes them", listing),
              ("inconsistent artifacts", [*refused.values(), *_inconsistent_cells(config, tables)])]
    fault = next((f"{what}: {found}" for what, found in faults if found), None)
    whole = f"{len(manifest['cells'])} cells and {len(manifest['matrices'])} matrices intact"
    failed = sorted(manifest["errors"])
    criteria = {"integrity": {"status": "fail" if fault else "pass", "detail": fault or whole},
                "cell_errors": {"status": "fail" if failed else "pass",
                                "detail": f"failed cells: {failed}" if failed else "no failed cells"}}

    if suite == "acceptance":
        _verify_acceptance(config, tables, refused, criteria)

    passed = all(c["status"] == "pass" for c in criteria.values() if c["status"] != "skipped")
    return VerifyReport(passed, criteria)


#: Largest gap between a potential row's ``U_emp`` and ``sum log|lambda - z| / dim``
#: recomputed from its cell's spectrum CSV.  ``run`` and ``verify`` compute it by one
#: function, :func:`~toeplab.potential.log_abs_sums`, so on one build the two are
#: equal; the bound admits a run that another build wrote.
POTENTIAL_TOL = 1e-8


def _inconsistent_cells(config: ExperimentConfig, tables: dict) -> list:
    """Where a cell's parsed CSVs disagree with each other or its size, one line each.

    ``tables`` maps each parsed ``(cell, kind)`` CSV of a cell of ``config``
    to its rows.  The spectrum
    holds ``dim`` finite eigenvalues, each potential row's ``U_emp`` is the
    one that spectrum gives within :data:`POTENTIAL_TOL`, each
    counting-curve row's ``empirical`` is that spectrum's count at its
    radius, exactly, each potential row's ``deviation`` is its
    ``|U_emp - U_lim|``, exactly, and each diagnostics row has finite B1-B3
    or a ``singular-`` flag.
    """
    problems = []
    for cell in sorted(config.cells(), key=_cell_name):
        name, lam = _cell_name(cell), None
        if (name, "spectrum") in tables:
            dim = bergman_dimension(make_phase_space(config.space), cell[1])
            eig = np.array([[r["re"], r["im"]] for r in tables[name, "spectrum"]])
            if len(eig) != dim or not np.all(np.isfinite(eig)):
                problems.append(f"{name}: {_csv_name('spectrum', name)} holds {len(eig)} rows, "
                                f"expected {dim} finite")
            else:
                lam = eig[:, 0] + 1j * eig[:, 1]
        potentials = tables.get((name, "potential"), [])
        if lam is not None:
            zs = [complex(r["z_re"], r["z_im"]) for r in potentials]
            for r, z, want in zip(potentials, zs, (log_abs_sums(lam, zs) / len(lam)).tolist()):
                got = r["U_emp"]
                if math.isnan(got) or not (got == want or abs(got - want) <= POTENTIAL_TOL):
                    problems.append(f"{name}: U_emp {got!r} at z={z} against {want!r} from its spectrum")
            counts = tables.get((name, "cdf"), [])
            for r, want in zip(counts, empirical_cdf_disks(lam, [r["r"] for r in counts]).tolist()):
                if r["empirical"] != want:
                    problems.append(f"{name}: empirical {r['empirical']!r} at r={r['r']!r} "
                                    f"against {want!r} from its spectrum")
        for r in potentials:
            got, want = r["deviation"], _deviation(r["U_emp"], r["U_lim"])
            if not (got == want or math.isnan(got) and math.isnan(want)):
                problems.append(f"{name}: deviation {got!r} at z={complex(r['z_re'], r['z_im'])} "
                                f"against |U_emp - U_lim| = {want!r}")
        for r in tables.get((name, "diagnostics"), []):
            finite = all(math.isfinite(r[b]) for b in ("B1", "B2", "B3"))
            if not (finite or _singular_flagged(r)):
                problems.append(f"{name}: non-finite B1-B3 at z=({r['z_re']}, {r['z_im']}) "
                                "without a singular- flag")
    return problems


def _singular_flagged(row: dict) -> bool:
    """Whether a diagnostics row's flags name a singular determinant, where its split is undefined."""
    return any(flag.startswith("singular-") for flag in row["flags"].split(";"))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _integrity_failure(detail: str) -> VerifyReport:
    return VerifyReport(False, {"integrity": {"status": "fail", "detail": detail}})


def _read_manifest(manifest) -> ExperimentConfig:
    """The configuration of a parsed manifest that :func:`verify` can read; raises ValueError
    naming what keeps it from being read.

    Every key that ``run`` writes and ``verify`` reads must be there.  The
    ``config`` must pass :meth:`ExperimentConfig.check_keys` and its symbol
    :meth:`ExperimentConfig.symbol_spec`, as a configuration that ``run``
    accepts does, and ``stages`` the rule of :func:`_stages_problem`.  An artifact path must be a bare file name, as
    ``run`` writes it, so that ``verify`` opens no file outside the run directory.
    """
    if not isinstance(manifest, dict):
        raise ValueError(f"it must be a JSON object, got {type(manifest).__name__}")
    missing = [key for key in ("config", "stages", "cells", "matrices", "errors") if key not in manifest]
    if missing:
        raise ValueError(f"missing keys: {missing}")
    for key in ("config", "cells", "matrices", "errors"):
        if not isinstance(manifest[key], dict):
            raise ValueError(f"{key} must be a JSON object")
    problem = _stages_problem(manifest["stages"])
    if problem:
        raise ValueError(problem)
    try:
        config = ExperimentConfig.from_mapping(manifest["config"])
        config.check_keys()
        config.symbol_spec()
    except ConfigError as exc:
        raise ValueError(f"config {exc}") from None
    for name, cell in manifest["cells"].items():
        files = cell.get("files") if isinstance(cell, dict) else None
        if not (isinstance(files, dict) and files):     # so the listing names a cell run has not
            raise ValueError(f"cell {name} needs a nonempty files object")
    for label, info in _artifacts(manifest):
        if not (isinstance(info, dict) and isinstance(info.get("path"), str)
                and isinstance(info.get("sha256"), str)):
            raise ValueError(f"{label} artifact needs a path and a sha256")
        if info["path"] in ("", "..") or Path(info["path"]).name != info["path"]:
            raise ValueError(f"{label} artifact path {info['path']!r} is not a bare file name")
    return config


def _artifacts(manifest: dict):
    """``(label, {path, sha256})`` of every artifact a manifest lists: cell files, then matrices."""
    for name, cell in manifest["cells"].items():
        for kind, info in cell["files"].items():
            yield f"cell {name} {kind}", info
    for name, info in manifest["matrices"].items():
        yield f"matrix {name}", info


def _expected_artifacts(config: ExperimentConfig, stages, errors) -> dict:
    """Label, as :func:`_artifacts` gives it -> file name, of each artifact that ``run`` writes under
    ``stages``: the CSVs of each cell of ``config`` not named in ``errors``, and the matrices."""
    expected = {f"cell {name} {kind}": _csv_name(kind, name)
                for cell in config.cells() if (name := _cell_name(cell)) not in errors
                for kind, (_, stage, _) in _CSV_KINDS.items() if stage in _cell_stages(cell, stages)}
    if "matrix" in stages:                  # every size, whether or not its cells failed
        expected.update({f"matrix N{N}": f"mat_N{N}.npy" for _, N, _ in config.cells()})
    return expected


def _read_csv(path: Path, kind: str) -> list:
    """Rows of a ``kind`` CSV artifact as dicts keyed by its header, each field but ``flags`` a float.

    Raises ValueError, naming the file, on an empty file, a header other than
    the one :data:`_CSV_KINDS` gives ``kind``, a row whose field count differs
    from the header's, or a field that is not a number.
    """
    lines = path.read_text().splitlines()
    header = _CSV_KINDS[kind][2]
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name} does not start with the header {header!r}")
    header, rows = header.split(","), []
    for number, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        try:
            if len(fields) != len(header):
                raise ValueError(f"{len(fields)} fields under a header of {len(header)}")
            rows.append({key: x if key == "flags" else float(x) for key, x in zip(header, fields)})
        except ValueError as exc:
            raise ValueError(f"{path.name} line {number}: {exc}") from None
    return rows


def _judge_weyl(by_size: dict) -> tuple:
    (N, cdfs), = by_size.items()
    if not cdfs:
        return "skipped", f"no counting-curve artifact at N={N}"
    worst = max((abs(r["empirical"] - r["predicted"]) for rows in cdfs for r in rows),
                default=float("nan"))
    return ("pass" if worst <= 0.05 else "fail"), \
        f"sup deviation {worst:.4f} (tolerance 0.05) over {len(cdfs)} seeds"


def _judge_potential(by_size: dict) -> tuple:
    medians, dropped = {}, 0
    for N, pots in by_size.items():
        vals = [r["deviation"] for rows in pots for r in rows]
        finite = [v for v in vals if np.isfinite(v)]
        dropped += len(vals) - len(finite)
        if finite:
            medians[N] = float(np.median(finite))
    n_top = max(by_size)
    if n_top not in medians:
        return "skipped", f"no potential artifact at N={n_top}"
    ok = medians[n_top] <= 0.05 and (len(medians) < 2 or medians[n_top] < medians[min(medians)])
    return ("pass" if ok else "fail"), (f"medians by size: { {k: round(v, 6) for k, v in medians.items()} }; "
                                        f"{dropped} non-finite deviations dropped")


def _judge_b3(by_size: dict) -> tuple:
    sizes = [N for N, diags in by_size.items() if diags]
    if not sizes:
        return "skipped", "no diagnostics artifacts"
    b3 = [r["B3"] for diags in by_size.values() for rows in diags for r in rows if r["A"] >= 1]
    if not b3:
        return "skipped", f"no diagnostics row with A >= 1 (sizes {sizes})"
    bad = sum(1 for x in b3 if not x < 0.0)
    return ("pass" if bad == 0 else "fail"), \
        f"{len(b3) - bad}/{len(b3)} realizations with A >= 1 have B3 < 0 (sizes {sizes})"


def _judge_schur(by_size: dict) -> tuple:
    sizes = [N for N, diags in by_size.items() if diags]
    if not sizes:
        return "skipped", "no diagnostics artifacts"
    rows = [r for diags in by_size.values() for rows in diags for r in rows]
    if not rows:
        return "skipped", f"no diagnostics rows (sizes {sizes})"
    worst = max([0.0, *(r["schur_residual"] for r in rows if np.isfinite(r["schur_residual"]))])
    explained = [_singular_flagged(r) for r in rows if not np.isfinite(r["schur_residual"])]
    return ("pass" if worst <= 1e-6 and all(explained) else "fail"), \
        f"worst finite residual {worst:.3e} (tolerance 1e-6, sizes {sizes}); " \
        f"{len(explained)} non-finite, {explained.count(False)} of them without a singular- flag"


#: Each acceptance criterion: the CSV kind it reads, whether it reads the largest size only (else
#: every size), and its judge, which maps ``{N: [rows of each parsed CSV]}`` to ``(status, detail)``.
_CRITERIA = {
    "weyl_deviation": ("cdf", True, _judge_weyl),
    "potential_median": ("potential", False, _judge_potential),
    "b3_negative": ("diagnostics", False, _judge_b3),
    "schur_residual": ("diagnostics", False, _judge_schur),
}


def _verify_acceptance(config: ExperimentConfig, tables: dict, refused: dict, criteria: dict) -> None:
    """Judge each criterion of :data:`_CRITERIA` on the perturbed cells' CSVs that :func:`verify` parsed.

    ``tables`` maps each parsed ``(cell, kind)`` CSV to its rows and ``refused`` each one
    :func:`_read_csv` refused to its message; neither holds a CSV left by an earlier run or
    edited after this one.  A criterion fails, naming the files, when a CSV it would read
    was refused; otherwise its judge gives the verdict (``skipped`` with nothing to judge).
    """
    by_size = {}                        # N -> its perturbed cells' names, sizes ascending, seeds in order
    for cell in sorted(config.cells(), key=lambda cell: cell[1]):
        if cell[0] == "perturbed":
            by_size.setdefault(cell[1], []).append(_cell_name(cell))
    for name, (kind, top_only, judge) in _CRITERIA.items():
        cells = {N: by_size[N] for N in (list(by_size)[-1:] if top_only else by_size)}
        malformed = [refused[c, kind] for names in cells.values() for c in names if (c, kind) in refused]
        status, detail = ("fail", f"malformed artifacts: {malformed}") if malformed else judge(
            {N: [tables[c, kind] for c in names if (c, kind) in tables] for N, names in cells.items()})
        criteria[name] = {"status": status, "detail": detail}
