"""Output bytes pinned across versions.

A kernel rewrite (a cached rotation plan, a worker pool) must not change a
single output byte. These digests were recorded from the direct, uncached
implementation; a change here is a change of the corpus every published
score was measured on. The toy accuracy tables were recorded from the
evaluate that decoded each image to float64 and took ``np.mean``/``np.std``
of it; a faster feature path must give the same table, byte for byte. The
surface files were recorded from the per-cell grid and the json.dumps writer.
"""

import hashlib

import numpy as np
import pytest

from asibench.harness import ToyClassifierAdapter, evaluate
from asibench.image import Image
from asibench.metrics import save_accuracy_table
from asibench.perturb import rotate
from asibench.registry import default_registry, materialize
from asibench.surface import emit_grid, surface_grid
from conftest import synthetic_corpus

MANIFEST_SHA256 = "8083d0fd5e862491f3888b4a687eb8f1b5f5434702347e2f229519338c217e4d"

ROTATE_SHA256 = {
    ("gray", 45.0): "1976baf2a9cf6114d919ebed60033ac738fa428efd93ede341c0115775a3c1de",
    ("gray", -137.5): "fd8b3848eb6022da051366255ab161a2ee32de895fe79d148ec9e2559b9320fa",
    ("gray", 90.0): "6a923b01b7b25099f1a4472c7278ee592bccf8e378b17279b5a97d7ee9cd48ca",
    ("gray", 1e-3): "6a5a1ee99032fe7dd971956c5937fa5b2bfaddaa69c49d54ca547789b167951a",
    ("rgb", 45.0): "ac2218b1fcd25b348fd58cf059858a58445c182d62f67d64bcb8c28d3c357fb6",
    ("rgb", -137.5): "b3596dd04e699ad135f138f54839667ec9de0332af21bd0aec1e65cf684e1f9f",
    ("rgb", 90.0): "df12c2afa4d4d46e00e6cb5505df33748b53d83bb7ee030ed41690744a50bdc1",
    ("rgb", 1e-3): "56cd3a8dd0e934c5444d6f984ee051cea29e138878b577cb3e617aff4f5d54c5",
}

TOY_TABLE_SHA256 = {
    "gray224": "62b4ba151d641dd2133f2611f6e8b169ea602d99453b437eca6ed4eb70e8bd64",
    "rgb32": "0e25a89578290ae8203383494f6ed884269aa5dfe6e7eda5350786939dbc3ec2",
}

SURFACE_SHA256 = {
    # the defaults: mean 0..100, CV 0..25, 51 x 51
    ("defaults", "csv"): "0257fe9a44d8b609efe114169207e45b1b3d8c21d0245eee501963a068d36087",
    ("defaults", "json"): "bc522ab480c40f44d77ff599193c49200732b5abe2b349d5e891d6c6ba6a7c18",
    # a masked origin: mean 0..100, CV 0..10, 11 x 11
    ("origin", "csv"): "d7772d70dd96c0178ff54469662b0a76e170312969e2fe1ee7a09a09c7115cc3",
    ("origin", "json"): "e450b3b9df9ceab6ce9fcd7d58c844e8d4f7cf90968b3b931e5cec8f57f68628",
}

SURFACE_GRIDS = {
    "defaults": lambda: surface_grid(),
    "origin": lambda: surface_grid((0.0, 100.0), (0.0, 10.0), 11),
}

IMAGES = {
    # non-square on purpose: a transposed index shows up here
    "gray": lambda: Image(np.random.default_rng(8).uniform(0.0, 1.0, size=(23, 37))),
    "rgb": lambda: Image(np.random.default_rng(7).uniform(0.0, 1.0, size=(12, 20, 3))),
}


def golden_corpus():
    return synthetic_corpus(n_per_class=2, size=16) + [("rgb_00.ppm", "mid", IMAGES["rgb"]())]


@pytest.mark.parametrize("jobs", [1, 2])
def test_manifest_digest(tmp_path, jobs):
    materialize(golden_corpus(), default_registry(), 42, tmp_path, jobs=jobs)
    digest = hashlib.sha256((tmp_path / "manifest.csv").read_bytes()).hexdigest()
    assert digest == MANIFEST_SHA256


@pytest.mark.parametrize("name,degrees", sorted(ROTATE_SHA256))
def test_rotate_digest(name, degrees):
    out = rotate(IMAGES[name](), degrees)
    assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == ROTATE_SHA256[name, degrees]


def tinted_corpus(n_per_class: int, size: int, seed: int = 99):
    """Three RGB classes that differ by a faint tint under strong per-pixel noise."""
    rng = np.random.default_rng(seed)
    corpus = []
    for label, tint in (("red", (0.53, 0.5, 0.5)), ("green", (0.5, 0.53, 0.5)),
                        ("blue", (0.5, 0.5, 0.53))):
        for i in range(n_per_class):
            pixels = np.clip(np.array(tint) + rng.normal(0.0, 0.15, size=(size, size, 3)), 0.0, 1.0)
            corpus.append((f"{label}_{i:02d}.ppm", label, Image(pixels)))
    return corpus


TOY_CORPORA = {
    "gray224": lambda: synthetic_corpus(n_per_class=2, size=224),
    "rgb32": lambda: tinted_corpus(n_per_class=3, size=32),
}


@pytest.mark.parametrize("name", sorted(TOY_CORPORA))
def test_toy_accuracy_table_digest(tmp_path, name):
    corpus = tmp_path / "corpus"
    materialize(TOY_CORPORA[name](), default_registry(), 42, corpus)
    table = tmp_path / "acc.csv"
    save_accuracy_table([evaluate(ToyClassifierAdapter(), corpus, "toy")], table)
    assert hashlib.sha256(table.read_bytes()).hexdigest() == TOY_TABLE_SHA256[name]


@pytest.mark.parametrize("name,fmt", sorted(SURFACE_SHA256))
def test_surface_digest(tmp_path, name, fmt):
    path = tmp_path / f"grid.{fmt}"
    emit_grid(SURFACE_GRIDS[name](), fmt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SURFACE_SHA256[name, fmt]
