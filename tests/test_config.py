"""The configuration key table: pinned hashes, the README schema, and its boundary under fuzzing."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplab.cli import main as cli_main
from toeplab.geometry import scottish_flag_symbol, sphere_symbol, symbol_to_record
from toeplab.harness import CONFIG_KEYS, ConfigError, ExperimentConfig, acceptance_config, preset_config, run

README = Path(__file__).resolve().parents[1] / "README.md"
SPHERE_RECORD = symbol_to_record(sphere_symbol({(1, 0, 0): 1j, (0, 1, 0): 1.0}))
FLAG_RECORD = symbol_to_record(scottish_flag_symbol())


def _without_radii_count_and_probe_grid():
    data = preset_config("sphere-figure3").to_mapping()
    data["radii"] = {"max": 1.0}
    del data["probe_grid"]
    return ExperimentConfig.from_mapping(data)


# config_hash seeds the kappa fit and names every run; to_mapping must not drift
@pytest.mark.parametrize("make, expected", [
    (lambda: preset_config("sphere-figure3"),
     "31af167bc93bfc5b0865172b4a0635c98fe220f5485e1e430f9fdc573d86eeeb"),
    (lambda: preset_config("sphere-figure3", full_scale=True),
     "e1e658b149019fb7348957829df15406fee5a0ddf8d208bdeac9f4f34b2f3657"),
    (lambda: preset_config("scottish-flag-figure1"),
     "91aa8c49783222dbffcfa1f191f4bb5fecaf3070f2a94d0dc0131fc538bea43e"),
    (lambda: preset_config("scottish-flag-figure1", full_scale=True),
     "0b9343dd52118f666c37035ec18240c7721a72f309e351edb94fad500317c997"),
    (acceptance_config, "2f798b923b8bff6c4642c79a12a37e3e7c26619a6c1681828fd919897888b740"),
    (_without_radii_count_and_probe_grid,
     "ca3af2d3d8cc5a17fad57d801abc1664b65e4dbbefca9031dc500c41cfb86a5a"),
], ids=["sphere-desk", "sphere-full", "flag-desk", "flag-full", "acceptance", "omitted-defaults"])
def test_config_hash_pinned(make, expected):
    assert make().config_hash() == expected


def test_readme_schema_matches_the_table():
    # README's example gives the required keys; every other key shows its default
    text = README.read_text()
    block = re.search(r"## Configuration schema.*?```jsonc\n(.*?)```", text, re.S).group(1)
    schema = json.loads(re.sub(r"//[^\n]*", "", block))
    required = {name: schema[name] for name in ("space", "symbol", "n_values", "delta")}
    assert ExperimentConfig.from_mapping(required).to_mapping() == schema
    assert list(schema) == list(CONFIG_KEYS)


# ---------------------------------------------------------------------------
# the boundary: every drawn value is rejected with a ConfigError (one CLI
# line, exit 2) or runs without a failed cell
# ---------------------------------------------------------------------------

def _base() -> dict:
    return dict(space="sphere", symbol=SPHERE_RECORD, n_values=[12], delta={"preset": "weyl"},
                seeds=[0], probe_grid={"nx": 2, "ny": 2}, radii={"count": 5, "max": 1.0},
                grushin_probes=[[0.3, 0.2]], resolution=24, kappa_hat=0.9, kappa_samples=10**4)


#: Every settable value: the top-level keys, then each object's sub-keys.
PATHS = [(name,) for name in CONFIG_KEYS] + [
    (name, sub) for name, key in CONFIG_KEYS.items() if key.keys for sub in key.keys]

#: Largest integer drawn where an accepted value allocates: sizes, quadrature
#: resolution, kappa samples, radii and grid counts.  validate sets no such
#: upper bound; larger values stay untested here.
CAPS = {"n_values": 64, "unperturbed_sizes": 64, "resolution": 64, "kappa_samples": 2 * 10**4,
        "radii count": 200, "probe_grid nx": 8, "probe_grid ny": 8}

SUB_KEYS = sorted({sub for key in CONFIG_KEYS.values() if key.keys for sub in key.keys})
REALS = (st.floats() | st.floats(min_value=-2.0, max_value=2.0)
         | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e200, 1e150, -1e150]))
STRINGS = st.text(max_size=6) | st.sampled_from(["torus", "sphere", "weyl", "default", SPHERE_RECORD, FLAG_RECORD])


def _ints(cap):
    if cap is None:
        return st.integers(min_value=-3, max_value=100) | st.integers() | st.just(2**64)
    return st.integers(min_value=-3, max_value=cap)


def _junk(cap):
    """Any JSON value: null, bools, numbers, strings, lists and objects."""
    scalars = st.none() | st.booleans() | _ints(cap) | REALS | STRINGS
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(SUB_KEYS) | st.text(max_size=4), inner, max_size=3), max_leaves=8)


def _shaped(name, key):
    """Values of ``key``'s kind, with numbers at and beyond its bounds."""
    cap = CAPS.get(name)
    if key.kind == "integer":
        return _ints(cap)
    if key.kind == "real":
        return REALS
    if key.kind == "integers":
        return st.lists(_ints(cap), max_size=4)
    if key.kind == "pairs":
        return st.lists(st.lists(REALS, min_size=2, max_size=2), max_size=3)
    if key.kind == "object":
        return st.lists(st.sampled_from(list(key.keys)), unique=True).flatmap(lambda subs: st.fixed_dictionaries(
            {sub: _shaped(f"{name} {sub}", key.keys[sub]) for sub in subs}))
    return STRINGS


def _values(path):
    name = " ".join(path)
    key = CONFIG_KEYS[path[0]] if len(path) == 1 else CONFIG_KEYS[path[0]].keys[path[1]]
    return _junk(CAPS.get(name)) | _shaped(name, key)


def _with(path, value) -> dict:
    data = _base()
    if len(path) == 1:
        data[path[0]] = value
    elif path[0] == "radii":
        data["radii"] = dict(data["radii"], **{path[1]: value})
    elif path[1] in ("nx", "ny"):
        data["probe_grid"] = dict(data["probe_grid"], **{path[1]: value})
    else:                                       # the one-key forms: delta preset, power; points
        data[path[0]] = {path[1]: value}
    return data


@contextlib.contextmanager
def _cwd(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _scaled_sphere_record(scale: float) -> str:
    """The sphere preset's symbol ``i x1 + x2``, times ``scale``."""
    return symbol_to_record(sphere_symbol({(1, 0, 0): 1j * scale, (0, 1, 0): scale}))


def _assert_one_line_rejection(data: dict, verb: str = "run") -> str:
    """``toeplab VERB --config`` on ``data`` exits 2 with one line and writes nothing; returns the line."""
    # no --out, which would replace a drawn out_dir; a run would write to runs/
    with tempfile.TemporaryDirectory() as tmp, _cwd(tmp):
        Path("cfg.json").write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([verb, "--config", "cfg.json"])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("toeplab: ") and err.getvalue().count("\n") == 1
        assert sorted(p.name for p in Path(".").iterdir()) == ["cfg.json"]
        return err.getvalue()


@pytest.mark.parametrize("verb, change, message", [
    ("run", {"symbol": "sphere\n0 1 0 0 nan 0.0\n"}, "non-finite coefficient"),
    ("run", {"symbol": "sphere\n0 1 0 0 1.0 inf\n"}, "non-finite coefficient"),
    ("kappa", {"symbol": "sphere\n0 1 0 0 nan 0.0\n"}, "non-finite coefficient"),
    ("run", {"symbol": "sphere\n0 0 0 0 1.0 0.0\n"}, "give kappa_hat"),
    ("kappa", {"symbol": "sphere\n0 0 0 0 1.0 0.0\n"}, "give kappa_hat"),
    ("run", {"out_dir": "ru\0ns"}, "out_dir must not hold a NUL byte"),
    # the Grushin split squares the entries; a run lost its cell to inf there
    ("run", {"symbol": _scaled_sphere_record(1e160)}, "coefficient outside [-1e150, 1e150]"),
    ("run", {"symbol": "sphere\n0 1 0 0 0.0 -2e150\n"}, "coefficient outside [-1e150, 1e150]"),
    ("run", {"symbol": "sphere\n0 1 0 0 1e150 0.0\n0 1 0 0 1e150 0.0\n"},
     "coefficient outside [-1e150, 1e150]"),
    ("kappa", {"symbol": _scaled_sphere_record(1e160)}, "coefficient outside [-1e150, 1e150]"),
], ids=["nan-coefficient", "inf-coefficient", "kappa-nan-coefficient", "constant-symbol",
        "kappa-constant-symbol", "nul-out-dir", "huge-coefficient", "huge-imaginary-part",
        "huge-summed-coefficient", "kappa-huge-coefficient"])
def test_sphere_preset_rejections_are_one_line(verb, change, message):
    # each exited 1 with a ValueError traceback before these checks (kappa_hat is null here),
    # or, a huge coefficient, lost its cell inside the run
    data = {**preset_config("sphere-figure3").to_mapping(), **change}
    assert message in _assert_one_line_rejection(data, verb)


@pytest.mark.parametrize("scale", [1e50, 1e100, 1e150])
def test_large_coefficients_within_the_bound_run_cleanly(scale, tmp_path):
    data = {**_base(), "symbol": _scaled_sphere_record(scale)}
    record = run(ExperimentConfig.from_mapping(data), out_dir=tmp_path)
    assert record.manifest["errors"] == {}
    assert record.manifest["cells"]
    # the manifest is strict JSON: a health value that overflowed (the subspace
    # residual from scale 1e100 on) is null and named under the cell's nonfinite
    manifest = json.loads(Path(record.manifest_path).read_text(), parse_constant=_refuse_constant)
    for cell in manifest["cells"].values():
        nonfinite = cell["health"].get("nonfinite", [])
        assert all(cell["health"][key] is None for key in nonfinite)


def _refuse_constant(name: str):
    raise ValueError(f"{name} in a manifest that should be strict JSON")


@pytest.mark.parametrize("path", PATHS, ids=" ".join)
def test_boundary_rejects_with_config_error_or_runs_cleanly(path):
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_values(path))
    def check(value):
        data = _with(path, value)
        try:
            config = ExperimentConfig.from_mapping(data)
            config.validate()
        except ConfigError:
            _assert_one_line_rejection(data)
            return
        with tempfile.TemporaryDirectory() as tmp:
            record = run(config, out_dir=tmp)
            assert record.manifest["errors"] == {}
            assert record.manifest["cells"]

    check()
