"""toeplab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a toeplab checkout; toeplab is imported from ``src/``.
``run.py`` first times ``SETUP_SAMPLES`` fresh interpreters importing
toeplab (``setup_s``).  It then starts one fresh ``child.py`` process per
sample, one at a time, each making a single ``harness.run`` call, until
``S`` seconds have passed (at least one sample).  Every run directory is
checked cell by cell (``check.py``) outside the timed region and deleted.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` each untraced sample is followed by a traced one and the
result carries the per-layer metrics, including the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
#: Every process started must end well inside the 180 s limit of a run.
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the loaded OpenBLAS, and how it was read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:                         # e.g. a "(deleted)" mapping
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn(), f"ctypes {Path(path).name}:{sym}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var]), f"environment {var}"
    return None, "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or "unknown"
        except OSError:                         # git is not installed
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "blas_threads_source": source,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "benchmark_seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def spawn(cmd: list, deadline: float, **kwargs) -> tuple:
    """Run ``cmd`` to completion; returns (exit code or None on timeout, wall s).

    A blocking wait keeps the wall time exact: ``Popen.wait(timeout)`` polls
    in steps of up to 50 ms.  A timer kills the process at the deadline.
    """
    timed_out = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        code = proc.wait()
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        killer.join()
    return (None if timed_out.is_set() else code), elapsed


def measure_setup(deadline: float) -> list:
    """Wall times of fresh interpreters importing toeplab (after one warm-up)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(SETUP_SAMPLES + 1):
        code, elapsed = spawn([sys.executable, "-c", "import toeplab"], deadline, env=env)
        if code != 0:
            fail(f"importing toeplab failed (exit code {code})")
        if i:                                   # the first import compiles bytecode
            times.append(elapsed)
    return times


def run_sample(args, work: Path, index: int, trace: bool, deadline: float) -> dict:
    """One child run plus the output check of its run directory."""
    from check import check_run

    out = work / f"run{index}"
    result_path = work / f"result{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--result", str(result_path)]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    sample = {"trace": trace, "result": None, "cells": [], "artifact_bytes": 0, "error": None}
    code, _ = spawn(cmd, deadline)
    if code != 0:
        sample["error"] = "child timed out" if code is None else f"child exited with code {code}"
    else:
        sample["result"] = json.loads(result_path.read_text())
    if (out / "manifest.json").exists():
        sample["cells"] = check_run(out)
        sample["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        sample["cell_errors"] = len(json.loads((out / "manifest.json").read_text())["errors"])
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    return sample


def workload_shape(args) -> tuple:
    """Cells per run and potential probes per cell of the workload."""
    import workloads
    from check import expected_cells
    from toeplab.geometry import make_phase_space

    cfg, _ = workloads.build(args.workload, args.seed, tiny=args.tiny)
    probes = cfg.probe_points(cfg.symbol_spec(), make_phase_space(cfg.space))
    return len(expected_cells(cfg.to_mapping())), len(probes)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    spread = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
    each = " ".join(f"{v:.4g}" for v in values)
    return f"  {name:<34} {med:>14.6g} {unit:<6} (median of n={len(values)}{spread}; each: {each})"


def cell_lines(samples: list) -> list:
    lines = []
    for i, s in enumerate(samples):
        tag = "traced" if s["trace"] else "untraced"
        if s["error"]:
            lines.append(f"  sample {i} ({tag}): {s['error']}")
        for c in s["cells"]:
            status = "ok" if c.ok else "FAIL " + "; ".join(c.problems[:3])
            lines.append(f"  sample {i} ({tag}) cell {c.name}: {status}; "
                         f"weyl sup deviation {c.weyl_sup_dev:.4f}, max|lambda| "
                         f"{c.max_abs_lambda:.4f}, potential rows {c.potential_rows}, "
                         f"worst potential error {c.potential_err:.2e}")
    return lines


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to seconds (self-tests only)")
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "toeplab" / "__init__.py").is_file():
        fail(f"no toeplab sources under {ROOT / 'src'}; run from the root of a toeplab checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.WORKLOADS)}")

    env = environment(args.seed)
    setup = measure_setup(deadline)
    n_cells, n_probes = workload_shape(args)

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    samples = []
    t_start = time.monotonic()
    try:
        while not samples or (time.monotonic() - t_start < args.seconds
                              and time.monotonic() < deadline - 60.0):
            samples.append(run_sample(args, work, len(samples), False, deadline))
            if args.trace:
                samples.append(run_sample(args, work, len(samples), True, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ROOT.joinpath(".perfbench").is_dir() and not any(ROOT.joinpath(".perfbench").iterdir()):
            ROOT.joinpath(".perfbench").rmdir()

    plain = [s["result"] for s in samples if not s["trace"] and s["result"]]
    traced = [s for s in samples if s["trace"] and s["result"]]
    if not plain or (args.trace and not traced):
        for line in cell_lines(samples):
            print(line)
        fail("no sample completed")

    attempted = n_cells * len(samples)        # check_run reports every expected cell
    failed = attempted - sum(1 for s in samples for c in s["cells"] if c.ok)
    correct = failed == 0 and all(s["error"] is None for s in samples)

    print(f"perfbench workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced samples, {len(traced)} traced, {n_cells} cells each")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in cell_lines(samples):
        print(line)

    e2e = {
        "run_s": [r["run_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setup,
    }
    units = metric_units("end_to_end")
    print("end-to-end (tracing off):")
    for name, values in e2e.items():
        print(describe(name, values, units[name]))
    print(f"  {'cell_fail_rate':<34} {failed / attempted:>14.6g} ratio  "
          f"({failed} failed of n={attempted} cells)")

    if not args.trace:
        metrics = {name: statistics.median(v) for name, v in e2e.items()}
        metrics["cell_pass_rate"] = 1.0 - failed / attempted
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = per_layer(traced, e2e["run_s"], n_probes, failed / attempted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def per_layer(traced: list, untraced_run_s: list, n_probes: int, fail_rate: float) -> dict:
    first = traced[0]["result"]
    print("dense calls by owning layer (first traced sample): "
          + json.dumps(first["attribution"], sort_keys=True))
    if first["unmeasured"]:
        print("unmeasured (name missing, metric reads 0): " + ", ".join(first["unmeasured"]))
    counts = {k: v for k, v in first["layers"].items() if isinstance(v, int)}
    for s in traced[1:]:
        again = {k: v for k, v in s["result"]["layers"].items() if isinstance(v, int)}
        if again != counts:
            print(f"WARNING: traced counts differ between samples: {counts} vs {again}")

    cells = [c for s in traced for c in s["cells"]]
    values = {k: statistics.median(s["result"]["layers"][k] for s in traced)
              for k in first["layers"]}
    traced_run_s = statistics.median(s["result"]["run_s"] for s in traced)
    values.update({
        "potential.probe_yield": sum(c.potential_rows for c in cells) / (len(cells) * n_probes),
        "harness.cells": len(cells) / len(traced),
        "harness.cell_errors": sum(s.get("cell_errors", 0) for s in traced) / len(traced),
        "harness.artifact_bytes": statistics.median(s["artifact_bytes"] for s in traced),
        "trace.overhead_s": traced_run_s - statistics.median(untraced_run_s),
        "check.weyl_sup_dev": max(c.weyl_sup_dev for c in cells),
        "check.potential_err": max(c.potential_err for c in cells),
        "cell_fail_rate": fail_rate,
    })
    print(f"per-layer (median of n={len(traced)} traced samples):")
    units = metric_units("per_layer")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


if __name__ == "__main__":
    main()
