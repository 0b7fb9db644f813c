"""Checks of the program's outputs against computations made here, apart from it.

Each `check_*` function returns a list of problems; an empty list means the
output is right. The reference computations (condition catalog, netpbm
decoding, bilinear rotation, clipped-noise moments, nearest-centroid
classifier, mean/CV/ASI) are written from the method's definition, not
imported from the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

SP_GRID = (0.1, 0.15, 0.2)
GA_GRID = (0.1, 0.15, 0.2)
ROT_GRID = (-60.0, -30.0, 30.0, 60.0)
PAD_GA = (0.1, 0.2)
MANIFEST_HEADER = ["condition_id", "condition_label", "source_filename", "output_path",
                   "true_label", "checksum"]


def conditions() -> list[tuple[int, str, tuple[tuple[str, float], ...]]]:
    """The default 69-condition catalog as (id, label, steps), built from its recipe."""
    sp = [("SP", d) for d in SP_GRID]
    ga = [("GA", s) for s in GA_GRID]
    rot = [("ROT", a) for a in ROT_GRID]
    pad = [("GA", s) for s in PAD_GA]
    recipes = [()] + [(s,) for s in sp + ga + rot]
    for first, second in ((sp, ga), (ga, sp), (sp, rot), (rot, sp), (pad, rot), (rot, pad)):
        recipes += [(a, b) for a in first for b in second]
    out = []
    for cid, steps in enumerate(recipes):
        label = "_".join(f"{kind}{value:g}" for kind, value in steps) or "clean"
        out.append((cid, label, steps))
    return out


CONDITIONS = conditions()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode(pixels: np.ndarray) -> bytes:
    """Binary PGM/PPM of an (h, w, c) uint8 array."""
    h, w, c = pixels.shape
    return b"P%d\n%d %d\n255\n" % (5 if c == 1 else 6, w, h) + pixels.tobytes()


_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")


def decode(data: bytes) -> np.ndarray:
    m = _HEADER.match(data)
    if m is None:
        raise ValueError("not an 8-bit binary PGM/PPM")
    c = 1 if m.group(1) == b"P5" else 3
    w, h = int(m.group(2)), int(m.group(3))
    if len(data) != m.end() + w * h * c:
        raise ValueError("pixel data has the wrong length")
    return np.frombuffer(data, np.uint8, offset=m.end()).reshape(h, w, c)


def rotate_reference(pixels: np.ndarray, degrees: float) -> np.ndarray:
    """Bilinear rotation about the centre, clockwise on screen, 0 outside; floats in [0, 1]."""
    h, w, c = pixels.shape
    padded = np.zeros((h + 2, w + 2, c))
    padded[1:-1, 1:-1] = pixels / 255.0
    t = math.radians(degrees)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # the source point that a clockwise turn by t carries onto each output pixel
    sx = cx + (xx - cx) * math.cos(t) + (yy - cy) * math.sin(t)
    sy = cy - (xx - cx) * math.sin(t) + (yy - cy) * math.cos(t)
    x0, y0 = np.floor(sx).astype(np.int64), np.floor(sy).astype(np.int64)
    ax, ay = (sx - x0)[..., None], (sy - y0)[..., None]

    def at(y, x):  # index -1 and h (or w) land in the zero border, as does all beyond
        return padded[np.clip(y + 1, 0, h + 1), np.clip(x + 1, 0, w + 1)]

    out = ((1 - ay) * ((1 - ax) * at(y0, x0) + ax * at(y0, x0 + 1))
           + ay * ((1 - ax) * at(y0 + 1, x0) + ax * at(y0 + 1, x0 + 1)))
    return np.clip(out, 0.0, 1.0)


def clipped_noise_moments(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """E[r] and E[r^2] of r = clip(x + N(0, sigma^2), 0, 1) - x for x = 0/255 .. 255/255."""
    mean, square = np.zeros(256), np.zeros(256)
    cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    for level in range(256):
        x = level / 255.0
        a, b = -x / sigma, (1.0 - x) / sigma
        inside = cdf(b) - cdf(a)
        z1 = pdf(a) - pdf(b)  # E[Z; a <= Z <= b]
        z2 = inside + a * pdf(a) - b * pdf(b)  # E[Z^2; a <= Z <= b]
        ey = (1.0 - cdf(b)) + x * inside + sigma * z1
        ey2 = (1.0 - cdf(b)) + x * x * inside + 2.0 * x * sigma * z1 + sigma * sigma * z2
        mean[level] = ey - x
        square[level] = ey2 - 2.0 * x * ey + x * x
    return mean, square


def _read_csv(path: Path) -> tuple[list[str] | None, list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else None), rows[1:]


def check_corpus(corpus: Path, clean: list[tuple[str, str, bytes]], seed: int,
                 content: bool) -> tuple[list[str], dict[str, bytes]]:
    """Manifest rows, checksums and run.json; with `content`, also the images themselves.

    `clean` is the clean corpus as (filename, label, file bytes). Returns the
    problems and the corpus files by output path.
    """
    problems = []
    header, rows = _read_csv(corpus / "manifest.csv")
    if header != MANIFEST_HEADER:
        return [f"{corpus}: manifest header {header}"], {}
    expected = [[str(cid), label, name, f"cond_{cid:03d}/{name}", true_label]
                for cid, label, _ in CONDITIONS for name, true_label, _ in clean]
    if [row[:5] for row in rows] != expected:
        return [f"{corpus}: manifest rows differ from the 69-condition catalog"], {}
    files = {}
    for row in rows:
        data = (corpus / row[3]).read_bytes()
        files[row[3]] = data
        if sha256(data) != row[5]:
            problems.append(f"{corpus / row[3]}: sha256 differs from the manifest checksum")
    record = json.loads((corpus / "run.json").read_text(encoding="utf-8"))
    if record.get("seed") != seed or record.get("group_size") != len(clean):
        problems.append(f"{corpus}/run.json: seed or group size is wrong: {record}")
    if content and not problems:
        problems += check_images(files, clean)
    return problems, files


def check_images(files: dict[str, bytes], clean: list[tuple[str, str, bytes]]) -> list[str]:
    """Clean group byte-identical; SP-only, ROT-only and GA-only groups as the method defines."""
    problems = []
    originals = {name: decode(data) for name, _, data in clean}
    for name, _, data in clean:
        if files[f"cond_000/{name}"] != data:
            problems.append(f"cond_000/{name}: not byte-identical to the clean input")
    for cid, label, steps in CONDITIONS:
        if len(steps) != 1:
            continue
        kind, value = steps[0]
        residuals = []
        for name, _, _ in clean:
            where = f"cond_{cid:03d}/{name}"
            src, out = originals[name], decode(files[where])
            if out.shape != src.shape:
                problems.append(f"{where}: shape {out.shape}, clean is {src.shape}")
                continue
            if kind == "SP":
                hit = np.all(out == 0, axis=2) | np.all(out == 255, axis=2)
                n_hit = round(value * src.shape[0] * src.shape[1])
                kept = np.all(out == src, axis=2)
                if hit.sum() != n_hit or not np.all(hit | kept):
                    problems.append(f"{where}: {hit.sum()} pixels at 0 or 255, expected "
                                    f"{n_hit} and the rest unchanged")
            elif kind == "ROT":
                ref = np.rint(rotate_reference(src, value) * 255.0)
                worst = np.abs(out.astype(np.float64) - ref).max()
                if worst > 1.0:
                    problems.append(f"{where}: {worst:.0f} grey levels from the reference rotation")
            else:
                residuals.append((src, out))
        if kind == "GA" and residuals:
            problems += _check_gaussian(label, value, residuals)
    return problems


def _check_gaussian(label: str, sigma: float, pairs) -> list[str]:
    """Residual mean and RMS against the clipped-noise expectation.

    Tolerance: five standard errors of the estimate plus 0.001 on the mean,
    and plus 1% on the RMS; rounding to 8 bits adds 1/(12 * 255^2) of variance.
    """
    exp_mean, exp_square = clipped_noise_moments(sigma)
    src = np.concatenate([s.ravel() for s, _ in pairs])
    out = np.concatenate([o.ravel() for _, o in pairs])
    r = (out.astype(np.float64) - src) / 255.0
    n = r.size
    mean, rms = r.mean(), math.sqrt(float(np.mean(r * r)))
    want_mean = exp_mean[src].mean()
    want_rms = math.sqrt(exp_square[src].mean() + 1.0 / (12 * 255.0 ** 2))
    problems = []
    if abs(mean - want_mean) > 5 * sigma / math.sqrt(n) + 1e-3:
        problems.append(f"{label}: residual mean {mean:.5f}, expected {want_mean:.5f}")
    if abs(rms / want_rms - 1.0) > 5 / math.sqrt(2 * n) + 0.01:
        problems.append(f"{label}: residual RMS {rms:.5f}, expected {want_rms:.5f}")
    return problems


def features(pixels: np.ndarray) -> np.ndarray:
    flat = (pixels.astype(np.float64) / 255.0).reshape(-1, pixels.shape[2])
    return np.concatenate([flat.mean(axis=0), flat.std(axis=0)])


def toy_correct(files: dict[str, bytes], clean: list[tuple[str, str, bytes]]) -> list[int]:
    """Correct answers per condition of a nearest-centroid classifier over per-image
    mean/std, fitted on the clean group; ties go to the smallest label."""
    by_label: dict[str, list[np.ndarray]] = {}
    for name, label, data in clean:
        by_label.setdefault(label, []).append(features(decode(data)))
    labels = sorted(by_label)
    centroids = np.array([np.mean(by_label[label], axis=0) for label in labels])
    correct = []
    for cid, _, _ in CONDITIONS:
        hits = 0
        for name, label, _ in clean:
            dist = np.linalg.norm(features(decode(files[f"cond_{cid:03d}/{name}"])) - centroids,
                                  axis=1)
            hits += labels[int(np.argmin(dist))] == label
        correct.append(hits)
    return correct


def check_accuracy_table(path: Path, classifier: str, correct: list[int], n: int) -> list[str]:
    header, rows = _read_csv(path)
    if header != ["classifier", "condition", "accuracy"]:
        return [f"{path}: header {header}"]
    got = [(row[0], int(row[1]), float(row[2])) for row in rows]
    want = [(classifier, cid, 100.0 * k / n) for (cid, _, _), k in zip(CONDITIONS, correct)]
    if got != want:
        bad = [f"{w[1]}: {g[2]} not {w[2]}" for g, w in zip(got, want) if g != w][:3]
        return [f"{path}: accuracies differ from the expected ones ({len(got)} rows; {bad})"]
    return []


def score(accuracies: list[float]) -> tuple[float, float, float]:
    """Mean, population CV (percent) and ASI = (mean - CV) / (mean + CV)."""
    n = len(accuracies)
    mean = math.fsum(accuracies) / n
    cv = 100.0 * math.sqrt(math.fsum((a - mean) ** 2 for a in accuracies) / n) / mean
    return mean, cv, (mean - cv) / (mean + cv)


def score_strings(accuracies: list[float]) -> list[str]:
    mean, cv, asi = score(accuracies)
    return [f"{cv:.3f}", f"{mean:.3f}", f"{asi:.3f}"]


def check_score_table(path: Path, expected: dict[str, list[float]]) -> list[str]:
    header, rows = _read_csv(path)
    if header != ["classifier", "cv", "mean", "asi"]:
        return [f"{path}: header {header}"]
    want = [[cid] + score_strings(expected[cid]) for cid in sorted(expected)]
    if rows != want:
        bad = [(g, w) for g, w in zip(rows, want) if g != w][:3]
        return [f"{path}: score rows differ from fsum mean, population CV and ASI ({bad})"]
    return []


def check_report(path: Path, expected: dict[str, list[float]]) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines[2:]]  # ids hold no spaces
    want = [[cid] + score_strings(expected[cid]) for cid in sorted(expected)]
    header = f"{'Classifier':<28} {'CV (%)':>8} {'Mean (%)':>9} {'ASI':>7}"
    if lines[:1] != [header] or rows != want:
        return [f"{path}: report rows differ from the score rows"]
    return []


def check_compare(stdout: str, names: tuple[str, str], table: tuple[tuple[float, float], ...],
                  exact_asi: tuple[float, float]) -> list[str]:
    """Deltas of `compare` from the (cv, mean) it read; the verdict against unrounded ASIs.

    Where the two unrounded ASIs differ by more than 0.001 the verdict must
    name the classifier with the higher one; closer than that, any verdict holds.
    """
    (cv_a, mean_a), (cv_b, mean_b) = table
    lines = stdout.splitlines()
    want = [f"cv delta:   {100.0 * (cv_b / cv_a - 1.0):+.3f}%",
            f"mean delta: {100.0 * (mean_b / mean_a - 1.0):+.3f}%"]
    if lines[:2] != want or len(lines) != 3:
        return [f"compare {names[0]} {names[1]}: printed {lines}, expected deltas {want}"]
    verdict = lines[2]
    if abs(exact_asi[0] - exact_asi[1]) > 0.001:
        winner = names[0] if exact_asi[0] > exact_asi[1] else names[1]
        if not verdict.startswith(f"verdict: {winner} preferred"):
            return [f"compare {names[0]} {names[1]}: {verdict!r}, but {winner} has the higher "
                    f"ASI ({exact_asi[0]:.5f} vs {exact_asi[1]:.5f})"]
    elif not verdict.startswith("verdict: "):
        return [f"compare {names[0]} {names[1]}: no verdict line"]
    return []


def check_surface_csv(csv_path: Path, script_path: Path,
                      resolution: int) -> tuple[list[str], dict | None]:
    """Default ranges (mean 0..100, CV 0..25): every cell in [-1, 1], sampled cells equal
    (m - c) / (m + c), the plot script names the CSV. Returns the cells too."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["mean,cv,asi"] or len(lines) != resolution * resolution:
        return [f"{csv_path}: {len(lines)} lines; expected a header and {resolution}^2 - 1 cells"
                ], None
    cells = {}
    for line in lines[1:]:
        m, c, v = (float(x) for x in line.split(","))
        cells[m, c] = v
    problems = []
    values = np.array(list(cells.values()))
    if not (np.all(values >= -1.0) and np.all(values <= 1.0)):
        problems.append(f"{csv_path}: a cell lies outside [-1, 1]")
    keys = list(cells)
    for m, c in keys[:: max(1, len(keys) // 400)] + keys[-1:]:
        if abs(cells[m, c] - (m - c) / (m + c)) > 1e-12:
            problems.append(f"{csv_path}: cell ({m}, {c}) is {cells[m, c]}, not (m - c) / (m + c)")
            break
    if repr(csv_path.name) not in script_path.read_text(encoding="utf-8"):
        problems.append(f"{script_path}: does not name {csv_path.name}")
    return problems, cells


def check_surface_json(json_path: Path, cells: dict, resolution: int) -> list[str]:
    """The JSON grid holds the CSV's cells, null where mean + CV = 0."""
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    means, cvs = doc["mean_axis"], doc["cv_axis"]
    if (len(means), len(cvs)) != (resolution, resolution) or (
            means[0], means[-1], cvs[0], cvs[-1]) != (0.0, 100.0, 0.0, 25.0):
        return [f"{json_path}: axes are not {resolution} points over the default ranges"]
    for i, c in enumerate(cvs):
        for j, m in enumerate(means):
            if doc["values"][i][j] != cells.get((m, c)):
                return [f"{json_path}: cell ({m}, {c}) disagrees with the CSV"]
    return []
