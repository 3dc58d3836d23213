"""Command line front end.

Verbs: quantize, spectrum, potential, grushin, run, verify, kappa.  Every
verb but verify takes exactly one configuration source, ``--config FILE``
or ``--preset NAME`` (``--full-scale`` only beside ``--preset``), plus the
shared flags ``--seed`` and ``--out``.  ``run`` computes
every cell stage of every cell; ``quantize``, ``spectrum``, ``potential``
and ``grushin`` are ``run`` restricted to the stages :data:`VERB_STAGES`
names, so each validates its configuration and writes a manifest beside its
artifacts: the per-cell CSVs of ``run`` (``grushin`` and ``potential`` need
the spectrum, so they write its ``eig_`` and ``cdf_`` CSVs too), or for
``quantize`` one ``mat_N{N}.npy`` matrix per size.  Outputs are CSV tables,
``.npy`` arrays and JSON manifests; there is no interactive mode.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._lapack import UnsupportedBuildError
from .harness import STAGES, ConfigError, ExperimentConfig, preset_config, run as run_experiment, verify as verify_run

#: The stages each run-type verb computes (see ``harness.run``).
VERB_STAGES = {
    "run": STAGES,
    "quantize": ("matrix",),
    "spectrum": ("spectrum",),
    "potential": ("spectrum", "potential"),
    "grushin": ("spectrum", "grushin"),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="experiment configuration JSON file")
    source.add_argument("--preset", help="named preset (scottish-flag-figure1, sphere-figure3)")
    p.add_argument("--full-scale", action="store_true",
                   help="with --preset: use the full figure sizes instead of desk-scale defaults")
    p.add_argument("--seed", type=int, help="override: use this single seed")
    p.add_argument("--out", help="output directory (default: runs/)")


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = preset_config(args.preset, full_scale=args.full_scale)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.out:
        cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="toeplab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"toeplab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {verb: sub.add_parser(verb)
             for verb in ("quantize", "spectrum", "potential", "grushin", "run", "kappa")}
    for p in verbs.values():
        _add_common(p)
    vp = sub.add_parser("verify")
    vp.add_argument("run_dir", help="directory holding a run manifest")
    vp.add_argument("--suite", default="acceptance", choices=["acceptance", "integrity"])
    args = parser.parse_args(argv)
    if args.verb in verbs and args.config is not None and args.full_scale:
        verbs[args.verb].error("--full-scale applies only to --preset")     # exits 2

    if args.verb == "verify":
        report = verify_run(args.run_dir, suite=args.suite)
        print(report.to_json())
        return 0 if report.passed else 1

    try:
        return _run_verb(args)
    except (ConfigError, UnsupportedBuildError) as exc:    # a rejected config or numpy build
        print(f"toeplab: {exc}", file=sys.stderr)
        return 2


def _run_verb(args) -> int:
    cfg = _load_config(args)
    if args.verb == "kappa":
        cfg.check_keys()                        # not validate: its gamma cap needs the kappa fitted here
        est = cfg.kappa_estimate()
        print(json.dumps({
            "kappa": est.kappa,
            "fits": [{"z": [z.real, z.imag], "slope": s, "rms": r, "bins": b}
                     for z, s, r, b in est.fit_diagnostics],
            "skipped": [[z.real, z.imag] for z in est.skipped],
        }, indent=2))
        return 0

    record = run_experiment(cfg, stages=VERB_STAGES[args.verb])
    print(json.dumps({"out_dir": record.out_dir, "config_hash": record.config_hash,
                      "cells": len(record.manifest["cells"]),
                      "errors": record.manifest["errors"]}, indent=2))
    return 0 if not record.manifest["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
