"""Per-condition accuracy measurement.

A classifier attaches through one of three adapters: the built-in toy
nearest-centroid classifier, a line-protocol subprocess, or a precomputed
predictions file. ``evaluate`` walks a materialized corpus and reports
accuracy per condition; ``load_accuracy_table`` ingests published numbers
instead.
"""

from __future__ import annotations

import csv
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AdapterError, ParameterError
from .image import Image, read_netpbm
from .registry import ManifestEntry, read_manifest, verify_manifest

__all__ = [
    "AccuracySeries",
    "ToyClassifierAdapter",
    "SubprocessAdapter",
    "PredictionsFileAdapter",
    "make_adapter",
    "evaluate",
    "load_accuracy_table",
    "save_accuracy_table",
]


@dataclass(frozen=True)
class AccuracySeries:
    classifier_id: str
    entries: tuple[tuple[int, float], ...]  # (condition_id, accuracy %) ascending

    def __post_init__(self):
        entries = tuple((int(c), float(a)) for c, a in self.entries)
        object.__setattr__(self, "entries", entries)
        ids = [c for c, _ in entries]
        if ids != sorted(set(ids)):
            raise ParameterError(
                f"series {self.classifier_id!r}: condition ids must be unique and ascending"
            )
        for c, a in entries:
            if not 0.0 <= a <= 100.0:
                raise ParameterError(
                    f"series {self.classifier_id!r}: accuracy {a} for condition {c} "
                    "outside [0, 100]"
                )

    def accuracies(self) -> list[float]:
        return [a for _, a in self.entries]


def _features(img: Image) -> np.ndarray:
    """Per-channel mean and standard deviation of pixel intensities."""
    flat = img.pixels.reshape(-1, img.channels)
    return np.concatenate([flat.mean(axis=0), flat.std(axis=0)])


class ToyClassifierAdapter:
    """Nearest-centroid classifier over per-image pixel statistics.

    Fit on the clean group of the corpus being evaluated; deterministic, no
    learned randomness. Ties break toward the lexicographically smallest label.
    """

    def __init__(self):
        self._centroids: dict[str, np.ndarray] = {}

    @property
    def fitted(self) -> bool:
        return bool(self._centroids)

    def fit(self, images: list[Image], labels: list[str]) -> None:
        groups: dict[str, list[np.ndarray]] = {}
        for img, label in zip(images, labels):
            groups.setdefault(label, []).append(_features(img))
        self._centroids = {
            label: np.mean(feats, axis=0) for label, feats in groups.items()
        }

    def predict_file(self, path: Path) -> str:
        if not self._centroids:
            raise AdapterError("toy classifier used before fitting")
        feat = _features(read_netpbm(path))
        best = min(
            sorted(self._centroids),
            key=lambda label: float(np.linalg.norm(feat - self._centroids[label])),
        )
        return best

    def close(self) -> None:
        pass


class SubprocessAdapter:
    """Line-protocol adapter: write an absolute image path, read back a label.

    One long-lived process per evaluation run; both sides flush per line.
    """

    def __init__(self, command: str):
        self.command = command
        self._proc = None

    def _ensure(self):
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def predict_file(self, path: Path) -> str:
        proc = self._ensure()
        try:
            proc.stdin.write(str(Path(path).resolve()) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise AdapterError(f"adapter process failed on {path}: {exc}") from exc
        if line == "":
            raise AdapterError(f"adapter process gave no response for {path}")
        return line.rstrip("\n")

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        self._proc = None


class PredictionsFileAdapter:
    """Serves labels from a CSV of precomputed predictions.

    Schema: header ``path,label``; ``path`` is the manifest's output_path
    (relative to the corpus root).
    """

    def __init__(self, table_path: str | Path, corpus_dir: str | Path | None = None):
        # resolved once: every lookup compares a resolved image path against it
        self._root = Path(corpus_dir).resolve() if corpus_dir is not None else None
        self._labels: dict[str, str] = {}
        with open(table_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["path", "label"]:
                raise ParameterError(
                    f"{table_path}: predictions file must have header 'path,label'"
                )
            for row in reader:
                self._labels[row["path"]] = row["label"]

    def predict_file(self, path: Path) -> str:
        path = Path(path)
        key = str(path)
        if self._root is not None:
            try:
                key = str(path.resolve().relative_to(self._root))
            except ValueError:
                pass
        if key not in self._labels:
            raise AdapterError(f"no prediction recorded for {key}")
        return self._labels[key]

    def close(self) -> None:
        pass


def make_adapter(spec: str, corpus_dir: str | Path | None = None):
    """Build an adapter from a CLI spec: toy | subprocess:CMD | file:PATH."""
    if spec == "toy":
        return ToyClassifierAdapter()
    if spec.startswith("subprocess:"):
        return SubprocessAdapter(spec.split(":", 1)[1])
    if spec.startswith("file:"):
        return PredictionsFileAdapter(spec.split(":", 1)[1], corpus_dir=corpus_dir)
    raise ParameterError(f"unknown adapter spec {spec!r}")


def evaluate(adapter, corpus_dir: str | Path, classifier_id: str = "classifier") -> AccuracySeries:
    """Measure per-condition accuracy of an adapter over a materialized corpus.

    Verifies every manifest checksum before any prediction. A ToyClassifier
    adapter that has not been fitted is fitted on the clean group (condition 0)
    using the manifest's true labels. Any non-matching response, including an
    empty one, counts as incorrect.
    """
    corpus_dir = Path(corpus_dir)
    entries = read_manifest(corpus_dir)
    verify_manifest(corpus_dir, entries)

    by_condition: dict[int, list[ManifestEntry]] = {}
    for e in entries:
        by_condition.setdefault(e.condition_id, []).append(e)

    if isinstance(adapter, ToyClassifierAdapter) and not adapter.fitted:
        clean = by_condition.get(0)
        if not clean:
            raise AdapterError("corpus has no clean group (condition 0) to fit on")
        adapter.fit(
            [read_netpbm(corpus_dir / e.output_path) for e in clean],
            [e.true_label for e in clean],
        )

    results = []
    for cond_id in sorted(by_condition):
        group = by_condition[cond_id]
        correct = 0
        for e in group:
            predicted = adapter.predict_file(corpus_dir / e.output_path)
            if predicted == e.true_label:
                correct += 1
        results.append((cond_id, 100.0 * correct / len(group)))
    return AccuracySeries(classifier_id, tuple(results))


ACCURACY_TABLE_HEADER = ["classifier", "condition", "accuracy"]


def load_accuracy_table(text: str) -> list[AccuracySeries]:
    """Parse a ``classifier,condition,accuracy`` CSV into one series per classifier."""
    reader = csv.DictReader(text.splitlines())
    if not text.strip():
        return []
    if reader.fieldnames != ACCURACY_TABLE_HEADER:
        raise ParameterError(
            f"accuracy table must have header {','.join(ACCURACY_TABLE_HEADER)!r}, "
            f"got {reader.fieldnames}"
        )
    per_classifier: dict[str, dict[int, float]] = {}
    for lineno, row in enumerate(reader, start=2):
        clf = row["classifier"]
        try:
            cond = int(row["condition"])
            acc = float(row["accuracy"])
        except (TypeError, ValueError):
            raise ParameterError(f"accuracy table row {lineno}: malformed record {row}") from None
        if not 0.0 <= acc <= 100.0:
            raise ParameterError(
                f"accuracy table row {lineno}: accuracy {acc} outside [0, 100]"
            )
        series = per_classifier.setdefault(clf, {})
        if cond in series:
            raise ParameterError(
                f"accuracy table row {lineno}: duplicate ({clf}, {cond}) pair"
            )
        series[cond] = acc
    return [
        AccuracySeries(clf, tuple(sorted(conds.items())))
        for clf, conds in sorted(per_classifier.items())
    ]


def load_accuracy_table_file(path: str | Path) -> list[AccuracySeries]:
    return load_accuracy_table(Path(path).read_text(encoding="utf-8"))


def save_accuracy_table(series_list: list[AccuracySeries], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_TABLE_HEADER)
        for series in sorted(series_list, key=lambda s: s.classifier_id):
            for cond, acc in series.entries:
                writer.writerow([series.classifier_id, cond, repr(acc)])
