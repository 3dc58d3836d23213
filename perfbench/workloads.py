"""The three benchmark workloads, built from a benchmark seed.

Each workload is a toeplab experiment configuration plus the ``workers``
value handed to ``harness.run``.  The benchmark seed only chooses the noise
seeds of the cells; sizes, probes and symbols are fixed, so every seed does
the same amount of dense work.  ``tiny=True`` keeps each code path but
shrinks the sizes so the self-tests finish in seconds.
"""

from __future__ import annotations

import random

WORKLOADS = ("sphere-desk", "flag-full", "grushin-scan")

#: Grushin probe ladder for grushin-scan.  At N=600 the counts of small
#: singular values are A = 23, 25, 31, 46, 42, 37, 10, 0, so the A=0 branch
#: of ``b_diagnostics`` runs too.
GRUSHIN_LADDER = [[0.0, 0.0], [0.3, 0.2], [0.6, 0.0], [0.0, 0.8], [0.9, 0.0],
                  [0.97, 0.0], [1.2, 0.0], [0.0, 1.5]]

#: Explicit potential probes for grushin-scan: few on purpose, so the
#: potential layer barely runs there.
SCAN_POTENTIAL_PROBES = [[0.5, 0.1], [-0.4, 0.3], [0.1, -0.6], [1.5, 1.5]]


def noise_seeds(name: str, seed: int, count: int) -> list:
    """Distinct noise seeds for ``count`` cells, fixed by (workload, seed)."""
    return random.Random(f"{name}:{seed}").sample(range(2**31), count)


def build(name: str, seed: int, tiny: bool = False):
    """Return ``(ExperimentConfig, workers)`` for one workload."""
    from toeplab.harness import preset_config

    if name == "sphere-desk":
        cfg = preset_config("sphere-figure3")          # N=300, 5 seeds, 144 probes
        cfg.seeds = noise_seeds(name, seed, len(cfg.seeds))
        workers = 2
        if tiny:
            cfg.n_values, cfg.resolution = [30], 40
    elif name == "flag-full":
        cfg = preset_config("scottish-flag-figure1", full_scale=True)   # N=1000 + N=50
        cfg.seeds = noise_seeds(name, seed, 1)
        workers = 1
        if tiny:
            cfg.n_values, cfg.unperturbed_sizes, cfg.resolution = [40], [20], 40
    elif name == "grushin-scan":
        cfg = preset_config("sphere-figure3")
        cfg.n_values = [600]
        cfg.seeds = noise_seeds(name, seed, 1)
        cfg.probe_grid = {"points": SCAN_POTENTIAL_PROBES}
        cfg.grushin_probes = GRUSHIN_LADDER
        workers = 1
        if tiny:
            cfg.n_values, cfg.resolution = [36], 40
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    if tiny and "nx" in cfg.probe_grid:
        cfg.probe_grid = {"nx": 4, "ny": 4}
    return cfg, workers
