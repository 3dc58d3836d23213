"""Set-up's quadrature in node blocks against the whole-grid routes it replaced, and its memory.

The references below build the whole grid and the whole sample at once, as
set-up did before it worked in blocks of ``geometry.BLOCK_NODES`` nodes.
Every blocked route must give their bits: the run's CSVs depend on them.
"""

import tracemalloc

import numpy as np
import pytest

import toeplab.geometry as geometry
import toeplab.harness as harness
import toeplab.potential as potential
import toeplab.spectra as spectra
from toeplab.geometry import (
    TORUS,
    SymbolImage,
    estimate_kappa,
    evaluate_symbol_grid,
    liouville_quadrature,
    sample_points,
    symbol_image,
)
from toeplab.harness import STAGES, preset_config
from toeplab.potential import limit_potential_many
from toeplab.spectra import weyl_predict

PRESETS = ("sphere-figure3", "scottish-flag-figure1")


def whole_grid(space, resolution):
    """The nodes and weights of the Liouville quadrature, built as one grid."""
    if space.kind == TORUS:
        x = np.arange(resolution) / resolution
        X, XI = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([X.ravel(), XI.ravel()], axis=-1)
        return pts, np.full(pts.shape[0], space.volume / pts.shape[0])
    n_phi = 2 * resolution
    u, wu = np.polynomial.legendre.leggauss(resolution)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    U, PHI = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - U**2)
    pts = np.stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), U.ravel()], axis=-1)
    return pts, (np.outer(wu, np.full(n_phi, 2.0 * np.pi / n_phi)) * 0.5).ravel()


def whole_image(f, resolution):
    """``f0`` evaluated on the whole grid at once."""
    points, weights = whole_grid(f.space, resolution)
    f0 = f.principal()
    return SymbolImage(f0, resolution, evaluate_symbol_grid(f0, points), weights)


def whole_limit_potential_many(image, probes):
    """The classical potential with one grid-sized distance array per probe and attempt."""
    images = [image]
    volume = image.symbol.space.volume
    out = np.full(len(probes), np.nan)
    for i, z in enumerate(probes):
        for attempt in range(4):
            if attempt == len(images):
                images.append(whole_image(image.symbol, image.resolution + attempt))
            dist = np.abs(complex(z) - images[attempt].values)
            if np.all(dist > 0.0):
                out[i] = np.dot(images[attempt].weights, np.log(dist)) / volume
                break
    return out


def whole_weyl_predict(image, radii):
    """The Weyl prediction from one cumulative sum over every node."""
    dist = np.abs(image.values)
    order = np.argsort(dist)
    cum = np.concatenate([[0.0], np.cumsum(image.weights[order])])
    idx = np.searchsorted(dist[order], np.asarray(radii, dtype=float), side="right")
    return cum[idx] / image.symbol.space.volume


def whole_sample(space, n, seed):
    """``n`` Liouville-uniform points drawn at once."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if space.kind == TORUS:
        return rng.random((n, 2))
    u = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - u**2)
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=-1)


@pytest.fixture(params=[None, 1000, 50], ids=["default-blocks", "1000-node-blocks", "50-node-blocks"])
def blocks(request, monkeypatch):
    """The block size: the default, one that splits every grid here, and one below a grid row."""
    if request.param is not None:
        for module in (geometry, potential, spectra):
            monkeypatch.setattr(module, "BLOCK_NODES", request.param)
    return request.param


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBitsOfTheWholeGrid:
    # 200 is a run's default; 37 leaves its last block part-filled on both spaces, as 203 and
    # 200 do over several blocks on the sphere and the torus
    @pytest.mark.parametrize("resolution", [200, 37, 203])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_image_probes_potential_and_weyl(self, blocks, preset, resolution):
        cfg = preset_config(preset)
        f = cfg.symbol_spec()
        image, whole = symbol_image(f, resolution), whole_image(f, resolution)
        assert same_bits(image.values, whole.values) and same_bits(image.weights, whole.weights)
        probes = cfg._probes(image)
        assert same_bits(probes, cfg._probes(whole))
        zs = [*probes, *(complex(re, im) for re, im in cfg.grushin_probes), 0.3 + 0.2j]
        assert same_bits(limit_potential_many(image, zs), whole_limit_potential_many(whole, zs))
        radii = np.concatenate([cfg.radii_grid(), [-1.0, -0.0, 5.0, 1e300]])   # below 0, beyond the image
        predicted = weyl_predict(image, radii)
        assert same_bits(predicted, whole_weyl_predict(whole, radii))
        assert predicted[-4] == 0.0 and predicted[-1] == predicted[-2] > 0.99

    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_probe_on_a_node_takes_the_refined_grid(self, blocks, preset):
        f = preset_config(preset).symbol_spec()
        image, whole = symbol_image(f, 37), whole_image(f, 37)
        zs = [2.0 + 0.5j, image.values[17], image.values[-1], -0.3 + 0.7j]
        got = limit_potential_many(image, zs)
        assert np.all(np.isfinite(got))
        assert same_bits(got, whole_limit_potential_many(whole, zs))
        refined = whole_image(f, 38)
        assert got[1] == np.dot(refined.weights, np.log(np.abs(zs[1] - refined.values))) / f.space.volume

    def test_a_probe_on_nodes_at_every_refinement_gets_nan(self, blocks):
        f = geometry.sphere_symbol({(0, 0, 0): 0.5j})
        got = limit_potential_many(symbol_image(f, 37), [0.5j, 1.0])
        assert np.isnan(got[0]) and same_bits(got, whole_limit_potential_many(whole_image(f, 37), [0.5j, 1.0]))

    @pytest.mark.parametrize("space", ["sphere", "torus"])
    def test_quadrature_nodes(self, blocks, space):
        grid, (points, weights) = liouville_quadrature(geometry.make_phase_space(space), 37), \
            whole_grid(geometry.make_phase_space(space), 37)
        assert same_bits(grid.points, points) and same_bits(grid.weights, weights)

    @pytest.mark.parametrize("n", [0, 8, 1000, 40_001])
    @pytest.mark.parametrize("space", ["sphere", "torus"])
    def test_samples(self, blocks, space, n):
        space = geometry.make_phase_space(space)
        assert same_bits(sample_points(space, n, 7), whole_sample(space, n, 7))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_kappa_fit(self, preset):
        cfg = preset_config(preset)
        cfg.kappa_samples = 40_001
        f = cfg.symbol_spec()
        probes, t_grid = harness._kappa_probes(f), np.logspace(-3, -1, 7)
        est = estimate_kappa(f, probes, cfg.kappa_samples, t_grid, seed=11)
        vals = evaluate_symbol_grid(f.principal(), whole_sample(f.space, cfg.kappa_samples, 11))
        fits = []
        for z in probes:
            m = np.array([np.mean(np.abs(vals - z) ** 2 <= t) for t in t_grid])
            mask = m > 0
            if mask.sum() >= 2 and np.ptp(np.log(m[mask])) != 0.0:
                fits.append((z, *np.polyfit(np.log(t_grid[mask]), np.log(m[mask]), 1)))
        assert [(z, slope) for z, slope, _, _ in est.fit_diagnostics] == [(z, slope) for z, slope, _ in fits]


def traced_peak(work) -> float:
    """MiB that ``work()`` allocated through numpy and Python at its peak, above what it began with."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


class TestSetUpMemory:
    """Set-up keeps the image's values and weights, one distance buffer and the Weyl sort's order."""

    def test_classical_at_resolution_400(self):
        # 320000 nodes: values 4.9 MiB, weights, the distance buffer and the order 2.4 MiB
        # each; 25.2 MiB when the nodes, per-term products and distances were whole-grid arrays
        cfg = preset_config("sphere-figure3")
        cfg.resolution = 400
        with harness._pinned_blas():
            peak = traced_peak(lambda: harness._classical(cfg, set(STAGES)))
        assert peak <= 14.0

    def test_validate(self):
        # 10^5 kappa samples: 7.7 MiB when they and their values were whole arrays
        cfg = preset_config("sphere-figure3")
        assert cfg.kappa_hat is None and cfg.kappa_samples == 10**5
        assert traced_peak(cfg.validate) <= 4.5
