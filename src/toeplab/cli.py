"""Command line front end.

Verbs: quantize, spectrum, potential, grushin, run, verify, kappa.  Every
verb takes a configuration (``--config FILE`` or ``--preset NAME``) plus the
shared flags ``--seed``, ``--out``, ``--workers``.  Outputs are CSV tables
and JSON manifests; there is no interactive mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import estimate_kappa, liouville_quadrature, make_phase_space
from .grushin import DIAGNOSTICS_CSV_HEADER, b_diagnostics
from .harness import ExperimentConfig, _emit, preset_config, run as run_experiment, verify as verify_run
from .potential import potential_sweep
from .quantize import quantize_symbol, save_matrix
from .randmat import derive_seed, operator_norm, sample_ginibre
from .spectra import SpectrumResult, spectrum_csv_rows


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment configuration JSON file")
    p.add_argument("--preset", help="named preset (scottish-flag-figure1, sphere-figure3)")
    p.add_argument("--full-scale", action="store_true",
                   help="use the full figure sizes instead of desk-scale defaults")
    p.add_argument("--seed", type=int, help="override: use this single seed")
    p.add_argument("--out", help="output directory (default: runs/)")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility; runs size their own thread pool")


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    elif args.preset:
        cfg = preset_config(args.preset, full_scale=args.full_scale)
    else:
        raise SystemExit("either --config or --preset is required")
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.out:
        cfg.out_dir = args.out
    if args.workers:
        cfg.workers = args.workers
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg.out_dir or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="toeplab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"toeplab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("quantize", "spectrum", "potential", "grushin", "run", "kappa"):
        _add_common(sub.add_parser(verb))
    vp = sub.add_parser("verify")
    vp.add_argument("run_dir", help="directory holding a run manifest")
    vp.add_argument("--suite", default="acceptance", choices=["acceptance", "integrity"])
    args = parser.parse_args(argv)

    if args.verb == "verify":
        report = verify_run(args.run_dir, suite=args.suite)
        print(report.to_json())
        return 0 if report.passed else 1

    cfg = _load_config(args)
    f = cfg.symbol_spec()
    space = make_phase_space(cfg.space)

    if args.verb == "run":
        record = run_experiment(cfg, out_dir=cfg.out_dir, workers=cfg.workers)
        print(json.dumps({"out_dir": record.out_dir, "config_hash": record.config_hash,
                          "cells": len(record.manifest["cells"]),
                          "errors": record.manifest["errors"]}, indent=2))
        return 0 if not record.manifest["errors"] else 1

    if args.verb == "quantize":
        out = _out_dir(cfg)
        for N in cfg.n_values:
            T = quantize_symbol(f, int(N))
            path = out / f"matrix_N{int(N)}.tmat"
            save_matrix(T, path)
            print(path)
        return 0

    if args.verb == "spectrum":
        out = _out_dir(cfg)
        schedule = cfg.schedule()
        for N in cfg.n_values:
            N = int(N)
            T = quantize_symbol(f, N)
            for seed in cfg.seeds:
                delta = schedule.rule(N)
                G = sample_ginibre(T.dim, derive_seed(seed, "cell", N))
                lam = np.linalg.eigvals(T.entries + delta * G.entries)
                print(_emit(out, f"eig_N{N}_s{seed}.csv",
                            spectrum_csv_rows(SpectrumResult(lam, f"N{N}_s{seed}"))))
        return 0

    if args.verb == "potential":
        out = _out_dir(cfg)
        report = potential_sweep(f, space, cfg.n_values, cfg.schedule(),
                                 z_grid=cfg.probe_points(f, space), seeds=cfg.seeds,
                                 grid=liouville_quadrature(space, cfg.resolution))
        print(_emit(out, "potential_sweep.csv", report.csv_rows()))
        print(json.dumps({"medians_by_size": report.medians_by_size,
                          "singular_probes": report.singular_probes}, indent=2))
        return 0

    if args.verb == "grushin":
        out = _out_dir(cfg)
        schedule = cfg.schedule()
        grid = liouville_quadrature(space, cfg.resolution)
        rows = [DIAGNOSTICS_CSV_HEADER]
        for N in cfg.n_values:
            N = int(N)
            T = quantize_symbol(f, N)
            delta = schedule.rule(N)
            for seed in cfg.seeds:
                G = sample_ginibre(T.dim, derive_seed(seed, "cell", N))
                g_norm = operator_norm(G.entries)
                for zre, zim in cfg.grushin_probes:
                    diag = b_diagnostics(T, complex(zre, zim), cfg.rho, delta, G, grid,
                                         seed=seed, g_norm=g_norm)
                    rows.append(diag.csv_row(N))
        print(_emit(out, "diagnostics.csv", rows))
        return 0

    if args.verb == "kappa":
        seed = cfg.seeds[0] if cfg.seeds else 0
        from .harness import _kappa_probes
        est = estimate_kappa(f, _kappa_probes(f, cfg.space), max(cfg.kappa_samples, 10**4),
                             np.logspace(-3, -1, 7), seed=seed)
        print(json.dumps({
            "kappa": est.kappa,
            "fits": [{"z": [z.real, z.imag], "slope": s, "rms": r, "bins": b}
                     for z, s, r, b in est.fit_diagnostics],
            "skipped": [[z.real, z.imag] for z in est.skipped],
        }, indent=2))
        return 0

    raise SystemExit(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
