"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from asibench.cli import main as cli_main
from asibench.harness import ToyClassifierAdapter, evaluate
from asibench.image import Image
from asibench.metrics import (
    BenchmarkScore,
    asi,
    coefficient_of_variation,
    compare,
    load_reference_scores,
    score,
)
from asibench.perturb import (
    Kind,
    PerturbationStep,
    apply_gaussian_noise,
    apply_salt_pepper,
    apply_sequence,
)
from asibench.registry import default_registry, materialize, read_manifest
from asibench.surface import emit_grid, surface_grid
from conftest import synthetic_corpus
from test_metrics import brute_force_cv


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_published_score_table():
    rows = load_reference_scores()
    assert len(rows) == 75
    worst = max(abs(asi(r.mean, r.cv) - r.asi) for r in rows)
    anchors = {
        1: (85.250, 2.276, 0.948),
        4: (89.702, 1.479, 0.968),
        26: (91.129, 3.980, 0.916),
        72: (89.715, 0.554, 0.988),
    }
    anchors_ok = all(
        abs(asi(mean, cv) - expected) <= 0.001
        for mean, cv, expected in anchors.values()
    )
    report(
        "criterion 1: 75-row golden score table within 0.001",
        worst <= 0.001 and anchors_ok,
        f"worst |delta| = {worst:.6f}",
    )


def test_criterion_2_published_comparison():
    r4 = BenchmarkScore("R4", 89.702, 1.479, asi(89.702, 1.479))
    r8 = BenchmarkScore("R8", 88.663, 1.737, asi(88.663, 1.737))
    delta = compare(r4, r8)
    ok = (
        abs(delta.cv_delta_percent - 17.442) <= 0.001
        and abs(delta.mean_delta_percent - (-1.158)) <= 0.001
        and delta.asi_ordering == "a"
        and round(r4.asi, 3) == 0.968
        and round(r8.asi, 3) == 0.962
    )
    report(
        "criterion 2: R4 vs R8 comparison reproduction",
        ok,
        f"cv {delta.cv_delta_percent:+.3f}%, mean {delta.mean_delta_percent:+.3f}%",
    )


def test_criterion_3_index_properties():
    rng = np.random.default_rng(2024)
    means = rng.uniform(1e-9, 100.0, 10000)
    cvs = rng.uniform(1e-9, 50.0, 10000)
    ok = True
    for m, c in zip(means, cvs):
        v = asi(m, c)
        if not (-1.0 < v < 1.0):
            ok = False
            break
        if not (asi(m + 0.5, c) > v > asi(m, c + 0.5)):
            ok = False
            break
        if any(abs(asi(k * m, k * c) - v) > 1e-12 for k in (0.5, 2.0, 10.0)):
            ok = False
            break
    report("criterion 3: bounds, monotonicity, scale invariance on 10000 pairs", ok)


def test_criterion_4_cv_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 70))
        values = rng.uniform(1.0, 100.0, n).tolist()
        got = coefficient_of_variation(values)
        want = brute_force_cv(values)
        worst = max(worst, abs(got - want) / want)
    anchor = coefficient_of_variation([80.0, 90.0, 100.0])
    ok = worst <= 1e-12 and abs(anchor - 9.0722) <= 1e-4
    report(
        "criterion 4: CV matches brute-force oracle on 1000 series",
        ok,
        f"worst rel err = {worst:.2e}, [80,90,100] -> {anchor:.5f}",
    )


def test_criterion_5_perturbation_determinism_and_counting():
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(100):
        h, w = int(rng.integers(8, 24)), int(rng.integers(8, 24))
        img = Image(rng.uniform(0.05, 0.95, size=(h, w)))
        density = (0.1, 0.15, 0.2)[trial % 3]
        seed = int(rng.integers(0, 2**63))
        a = apply_salt_pepper(img, density, seed)
        b = apply_salt_pepper(img, density, seed)
        if not np.array_equal(a.pixels, b.pixels):
            ok = False
            break
        changed = (a.pixels != img.pixels).any(axis=2).sum()
        if changed != round(density * w * h):
            ok = False
            break
    noisy = apply_gaussian_noise(Image.constant(256, 256, 0.5), 0.1, 99)
    again = apply_gaussian_noise(Image.constant(256, 256, 0.5), 0.1, 99)
    std = noisy.pixels.std()
    ok = ok and np.array_equal(noisy.pixels, again.pixels) and abs(std - 0.1) <= 0.01
    report(
        "criterion 5: determinism and exact salt-pepper counts",
        ok,
        f"gaussian sample std = {std:.4f}",
    )


def test_criterion_6_order_sensitivity():
    size = 32
    img = Image(np.tile(np.linspace(0.0, 1.0, size), (size, 1)))
    sp = PerturbationStep(Kind.SALT_PEPPER, 0.1)
    rot = PerturbationStep(Kind.ROTATION, 30.0)
    a = apply_sequence(img, [sp, rot], 1234)
    b = apply_sequence(img, [rot, sp], 1234)
    n_diff = int((a.pixels != b.pixels).sum())
    report(
        "criterion 6: [SP, ROT] differs from [ROT, SP] under one seed",
        n_diff > 0,
        f"{n_diff} differing pixel values",
    )


HEAVY = 0.2  # heaviest noise intensity in the default catalog


def _heavy(cond) -> bool:
    return any(
        s.intensity == HEAVY if s.kind is not Kind.ROTATION else abs(s.intensity) == 60.0
        for s in cond.steps
    )


def test_criterion_7_end_to_end_pipeline(tmp_path):
    corpus = synthetic_corpus(n_per_class=10, size=16)
    registry = default_registry()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    materialize(corpus, registry, 42, run_a)
    materialize(corpus, registry, 42, run_b)
    entries_a, entries_b = read_manifest(run_a), read_manifest(run_b)
    identical = [e.checksum for e in entries_a] == [e.checksum for e in entries_b]

    series = evaluate(ToyClassifierAdapter(), run_a, classifier_id="toy")
    result = score(series)
    invariants = (
        0.0 <= result.mean_accuracy_percent <= 100.0
        and result.cv_percent >= 0.0
        and -1.0 <= result.asi <= 1.0
        and len(series.entries) == 69
        and math.isclose(
            result.asi,
            (result.mean_accuracy_percent - result.cv_percent)
            / (result.mean_accuracy_percent + result.cv_percent),
            rel_tol=1e-12,
        )
    )
    by_cond = dict(series.entries)
    clean_acc = by_cond[0]
    heavy_accs = [by_cond[c.id] for c in registry.conditions if _heavy(c)]
    ordered = heavy_accs and all(clean_acc >= acc for acc in heavy_accs)
    report(
        "criterion 7: end-to-end pipeline on the 69-condition catalog",
        identical and invariants and ordered,
        f"clean {clean_acc:.1f}%, heavy min {min(heavy_accs):.1f}%, "
        f"mean {result.mean_accuracy_percent:.3f}, cv {result.cv_percent:.3f}, "
        f"asi {result.asi:.3f}",
    )


def test_criterion_8_surface_grid(tmp_path):
    grid = surface_grid((0.0, 100.0), (0.0, 25.0), 21)
    corner_one = grid.values[0, -1] == 1.0
    balance = surface_grid((0.0, 50.0), (0.0, 50.0), 11)
    diagonal_zero = all(
        balance.values[i, i] == 0.0 for i in range(1, 11)
    )
    rows_ok = all(np.all(np.diff(grid.values[i, :]) > 0) for i in range(1, 21))
    cols_ok = all(np.all(np.diff(grid.values[:, j]) < 0) for j in range(1, 21))

    csv_path, json_path = tmp_path / "g.csv", tmp_path / "g.json"
    emit_grid(grid, "csv", csv_path)
    emit_grid(grid, "json", json_path)
    with open(csv_path, newline="") as fh:
        triples = {(float(r["mean"]), float(r["cv"])): float(r["asi"]) for r in csv.DictReader(fh)}
    csv_ok = all(
        triples[(float(grid.mean_axis[j]), float(grid.cv_axis[i]))] == grid.values[i, j]
        for i in range(21)
        for j in range(21)
        if not grid.mask[i, j]
    )
    doc = json.loads(json_path.read_text())
    json_ok = doc["values"] == [
        [None if masked else v for v, masked in zip(row, mask_row)]
        for row, mask_row in zip(grid.values.tolist(), grid.mask.tolist())
    ]
    report(
        "criterion 8: surface corners, monotonicity, lossless emission",
        corner_one and diagonal_zero and rows_ok and cols_ok and csv_ok and json_ok,
    )
