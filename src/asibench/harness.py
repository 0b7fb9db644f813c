"""Per-condition accuracy measurement.

A classifier attaches through one of three adapters: the built-in toy
nearest-centroid classifier, a line-protocol subprocess, or a precomputed
predictions file. ``evaluate`` walks a materialized corpus and reports
accuracy per condition; ``load_accuracy_table`` ingests published numbers
instead.
"""

from __future__ import annotations

import csv
import os
import shlex
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tables
from .errors import AdapterError, ParameterError
# read_netpbm stays importable from here: perfbench/tracing.py wraps it under this module's name
from .image import decode_netpbm, read_netpbm  # noqa: F401
from .registry import ManifestEntry, read_manifest, verified_files, verify_manifest

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


class ToyClassifierAdapter:
    """Nearest-centroid classifier over per-channel pixel mean and standard deviation.

    Fit on the clean group of the corpus being evaluated; deterministic, no
    learned randomness. Ties break toward the lexicographically smallest label.
    """

    def __init__(self):
        self._labels: list[str] = []  # sorted once, at fit
        self._centroids: list[np.ndarray] = []  # one per label, in that order
        self._channels = 0  # of the images fitted on or seen so far
        self._seen: dict[Path, np.ndarray] = {}  # features of the last prepared corpus
        self._scratch = np.empty(0)  # float64 pixels, grown to the largest image

    def fit(self, features: list[np.ndarray], labels: list[str]) -> None:
        """One centroid per label: the mean feature vector of its images."""
        groups: dict[str, list[np.ndarray]] = {}
        for feat, label in zip(features, labels):
            groups.setdefault(label, []).append(feat)
        self._labels = sorted(groups)
        self._centroids = [np.mean(groups[label], axis=0) for label in self._labels]
        self._channels = self._centroids[0].size // 2

    def _features(self, data: bytes, path: Path) -> np.ndarray:
        """Per-channel mean and standard deviation of the decoded pixels / 255.

        The same ufunc steps as ``np.mean`` and ``np.std`` (sum, divide; subtract,
        square, sum, divide, sqrt) over the same float64 layout, so the result is
        bit for bit theirs, computed in one reused buffer instead of per-image
        temporaries.
        """
        pixels = decode_netpbm(data, path)
        h, w, c = pixels.shape
        if self._channels and c != self._channels:
            raise AdapterError(
                f"{path} has {c} channels where the toy classifier has {self._channels}; "
                "it needs one channel count for the whole corpus"
            )
        self._channels = c
        n = h * w
        if self._scratch.size < n * c:
            self._scratch = np.empty(n * c)
        x = self._scratch[: n * c].reshape(n, c)
        np.divide(pixels.reshape(n, c), 255.0, out=x)
        feat = np.empty(2 * c)
        mean, std = feat[:c], feat[c:]
        np.add.reduce(x, axis=0, out=mean)
        np.divide(mean, n, out=mean)
        np.subtract(x, mean, out=x)
        np.multiply(x, x, out=x)
        np.add.reduce(x, axis=0, out=std)
        np.divide(std, n, out=std)
        np.sqrt(std, out=std)
        return feat

    def prepare(self, root: Path, files) -> None:
        """Compute every image's features from its verified bytes; fit on condition 0 if unfitted."""
        if not self._centroids:
            self._channels = 0
        self._seen = {}
        clean, labels = [], []
        for entry, data in files:
            path = root / entry.output_path
            feat = self._seen[path] = self._features(data, path)
            if entry.condition_id == 0:
                clean.append(feat)
                labels.append(entry.true_label)
        if not self._centroids:
            if not clean:
                raise AdapterError("corpus has no clean group (condition 0) to fit on")
            self.fit(clean, labels)

    def predict_file(self, path: Path) -> str:
        if not self._centroids:
            raise AdapterError("toy classifier used before fitting")
        feat = self._seen.get(path)
        if feat is None:
            feat = self._features(Path(path).read_bytes(), path)
        distances = [float(np.linalg.norm(feat - c)) for c in self._centroids]
        return self._labels[distances.index(min(distances))]

    def predict_files(self, paths: list[Path]) -> list[str]:
        return [self.predict_file(p) for p in paths]

    def close(self) -> None:
        pass


# Seconds a subprocess adapter has to exit once its input is closed.
CLOSE_WAIT_S = 10.0


class SubprocessAdapter:
    """Line-protocol adapter: write an absolute image path, read back a label.

    One long-lived process per adapter, started by ``start`` or on first use
    and never restarted; it answers one line per path, in request order,
    flushing each line. ``predict_files`` hands every path to a writer thread
    in one write, which the pipe paces, and each ``predict_file`` call reads
    one answer. When an answer cannot be read, the process is killed at once,
    and so is a process that ``close`` finds was never sent a path.
    """

    def __init__(self, command: str):
        self.command = command
        self._proc = None
        self._sending = False  # a predict_files call is under way
        self._sent = False  # some path was handed to the process

    def start(self) -> None:
        """Start the process now, so that it loads while the caller does other work."""
        self._ensure()

    def _ensure(self):
        if self._proc is None:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        elif self._proc.poll() is not None:
            raise AdapterError(self._exited())
        return self._proc

    def _exited(self) -> str:
        return f"adapter process {self.command!r} exited with status {self._proc.returncode}"

    def predict_file(self, path: Path) -> str:
        if not self._sending:
            return self.predict_files([path])[0]
        try:
            line = self._proc.stdout.readline()
        except UnicodeDecodeError as exc:
            raise AdapterError(
                f"adapter process gave an undecodable answer for {path}: {exc}"
            ) from None
        if line == "":
            reason = self._exited() if self._proc.poll() is not None else "it closed its output"
            raise AdapterError(f"adapter process gave no response for {path}: {reason}")
        return line.rstrip("\n")

    def predict_files(self, paths: list[Path]) -> list[str]:
        """One label per path, in order; the paths are written without waiting for answers."""
        proc = self._ensure()
        lines = [os.path.abspath(p) + "\n" for p in paths]
        for path, line in zip(paths, lines):
            try:
                line.encode(proc.stdin.encoding)
            except UnicodeEncodeError as exc:
                raise AdapterError(f"sending a path failed: {path}: {exc}") from None
        writer = threading.Thread(
            target=self._send, args=(proc.stdin, "".join(lines)), daemon=True
        )
        self._sending = self._sent = True
        writer.start()
        try:
            return [self.predict_file(p) for p in paths]
        except BaseException:
            proc.kill()  # unblocks the writer; the process is never used again
            raise
        finally:
            self._sending = False
            writer.join(CLOSE_WAIT_S)
            if writer.is_alive():  # blocked on a process that stopped reading
                proc.kill()
                writer.join()

    @staticmethod
    def _send(stdin, text: str) -> None:
        try:
            stdin.write(text)
        except OSError:
            pass  # the process stopped reading: predict_file reports why

    def close(self) -> None:
        proc = self._proc
        if proc is None:
            return
        if not self._sent:  # nothing for it to finish: do not wait for it to load
            proc.kill()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # a path still buffered for a process that has exited
        proc.stdout.close()
        # a blocking wait returns as the process exits; wait(timeout=) would poll with
        # sleeps that overshoot the exit, so a timer bounds the wait instead
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CLOSE_WAIT_S, kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
        if timed_out.is_set():
            raise TimeoutError(
                f"adapter process {self.command!r} did not exit within {CLOSE_WAIT_S:g} s "
                "of its input closing; killed it"
            ) from None


class PredictionsFileAdapter:
    """Serves labels from a CSV of precomputed predictions.

    Schema: header ``path,label``; ``path`` is the manifest's output_path
    (relative to the corpus root), once per file.
    """

    def __init__(self, table_path: str | Path):
        self._root: Path | None = None  # the resolved root of the corpus being evaluated
        self._labels: dict[str, str] = {}
        with open(table_path, newline="", encoding="utf-8") as fh:
            for where, row in tables.rows(fh, ["path", "label"], table_path, ParameterError):
                if row["path"] in self._labels:
                    raise ParameterError(f"{where}: repeated path {row['path']!r}")
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

    def prepare(self, root: Path, files) -> None:
        """Keys are relative to the corpus being evaluated."""
        self._root = root

    def predict_files(self, paths: list[Path]) -> list[str]:
        return [self.predict_file(p) for p in paths]

    def close(self) -> None:
        pass


def make_adapter(spec: str):
    """Build an adapter from a CLI spec: toy | subprocess:CMD | file:PATH."""
    if spec == "toy":
        return ToyClassifierAdapter()
    if spec.startswith("subprocess:"):
        return SubprocessAdapter(spec.split(":", 1)[1])
    if spec.startswith("file:"):
        return PredictionsFileAdapter(spec.split(":", 1)[1])
    raise ParameterError(f"unknown adapter spec {spec!r}")


def evaluate(adapter, corpus_dir: str | Path, classifier_id: str = "classifier") -> AccuracySeries:
    """Measure per-condition accuracy of an adapter over a materialized corpus.

    Verifies every manifest checksum before any prediction. An adapter with a
    ``start()`` method has it called once the manifest has been read, before
    the checksums are verified, so that it can load meanwhile; it gets no
    path until every file is verified. An adapter with a
    ``prepare(root, files)`` method gets the resolved corpus root and a stream
    of ``(manifest entry, file bytes)`` pairs in manifest order, each file read
    once and yielded only after its bytes match its checksum; whatever the
    hook leaves unread is verified after it returns. An adapter without one
    has the manifest verified from the paths alone. The adapter then gets one
    ``predict_files`` call with every image path, each the manifest path under
    the resolved corpus root, by condition id and then in manifest order. Any
    non-matching response, including an empty one, counts as incorrect.
    """
    corpus_dir = Path(corpus_dir)
    entries = read_manifest(corpus_dir)
    start = getattr(adapter, "start", None)
    if start is not None:
        start()
    root = corpus_dir.resolve()
    prepare = getattr(adapter, "prepare", None)
    if prepare is None:
        verify_manifest(corpus_dir, entries)
    else:
        files = verified_files(corpus_dir, entries)
        prepare(root, files)
        for _ in files:  # verify whatever the hook left unread
            pass

    by_condition: dict[int, list[ManifestEntry]] = {}
    for e in entries:
        by_condition.setdefault(e.condition_id, []).append(e)
    cond_ids = sorted(by_condition)
    ordered = [e for cond_id in cond_ids for e in by_condition[cond_id]]
    predicted = adapter.predict_files([root / e.output_path for e in ordered])
    correct = dict.fromkeys(cond_ids, 0)
    for e, label in zip(ordered, predicted):
        if label == e.true_label:
            correct[e.condition_id] += 1
    return AccuracySeries(
        classifier_id,
        tuple((c, 100.0 * correct[c] / len(by_condition[c])) for c in cond_ids),
    )


ACCURACY_TABLE_HEADER = ["classifier", "condition", "accuracy"]


def load_accuracy_table(text: str) -> list[AccuracySeries]:
    """Parse a ``classifier,condition,accuracy`` CSV into one series per classifier."""
    if not text.strip():
        return []
    per_classifier: dict[str, dict[int, float]] = {}
    lines = text.splitlines()
    for where, row in tables.rows(lines, ACCURACY_TABLE_HEADER, "accuracy table", ParameterError):
        clf = row["classifier"]
        try:
            cond = int(row["condition"])
            acc = float(row["accuracy"])
        except ValueError:
            raise ParameterError(f"{where}: malformed record {row}") from None
        if not 0.0 <= acc <= 100.0:
            raise ParameterError(f"{where}: accuracy {acc} outside [0, 100]")
        series = per_classifier.setdefault(clf, {})
        if cond in series:
            raise ParameterError(f"{where}: duplicate ({clf}, {cond}) pair")
        series[cond] = acc
    return [
        AccuracySeries(clf, tuple(sorted(conds.items())))
        for clf, conds in sorted(per_classifier.items())
    ]


def load_accuracy_table_file(path: str | Path) -> list[AccuracySeries]:
    try:
        return load_accuracy_table(Path(path).read_text(encoding="utf-8"))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def save_accuracy_table(series_list: list[AccuracySeries], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_TABLE_HEADER)
        for series in sorted(series_list, key=lambda s: s.classifier_id):
            for cond, acc in series.entries:
                writer.writerow([series.classifier_id, cond, repr(acc)])
