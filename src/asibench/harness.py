"""Per-condition accuracy measurement.

A classifier attaches through one of three adapters: the built-in toy
nearest-centroid classifier, a line-protocol subprocess, or a precomputed
predictions file. ``evaluate`` walks a materialized corpus and reports
accuracy per condition as a ``metrics.AccuracySeries``.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import subprocess
import threading
from pathlib import Path

import numpy as np

from . import registry, tables
from .errors import AdapterError, ParameterError
from .image import decode_netpbm
from .metrics import AccuracySeries
from .registry import read_manifest, verified_files

__all__ = [
    "ToyClassifierAdapter",
    "SubprocessAdapter",
    "PredictionsFileAdapter",
    "make_adapter",
    "evaluate",
]

READ_AHEAD_FILES = 8  # verified files that may wait for the toy classifier to decode them


class ToyClassifierAdapter:
    """Nearest-centroid classifier over per-channel pixel mean and standard deviation.

    Each ``predict`` call fits on the clean group (condition 0) of the corpus
    it is given, then labels every image of it; deterministic, no learned
    randomness. Ties break toward the lexicographically smallest label.
    """

    def __init__(self):
        self._labels: list[str] = []  # sorted once, at fit
        self._centroids: list[np.ndarray] = []  # one per label, in that order
        self._channels = 0  # of the images of this corpus seen so far
        self._scratch = np.empty(0)  # float64 pixels, grown to the largest image

    def fit(self, features: list[np.ndarray], labels: list[str]) -> None:
        """One centroid per label: the mean feature vector of its images."""
        groups: dict[str, list[np.ndarray]] = {}
        for feat, label in zip(features, labels):
            groups.setdefault(label, []).append(feat)
        self._labels = sorted(groups)
        self._centroids = [np.mean(groups[label], axis=0) for label in self._labels]

    def _features(self, data: bytes, path: str) -> np.ndarray:
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

    def predict(self, root: str, files) -> list[str]:
        """Fit on this corpus's condition 0, then label every image from its verified bytes."""
        self._channels = 0
        clean, labels = [], []  # the positions of condition 0's files, and their labels

        def passed():
            for i, (entry, data) in enumerate(files):
                if entry.condition_id == 0:
                    clean.append(i)
                    labels.append(entry.true_label)
                yield data, os.path.join(root, entry.output_path)

        # files are read and checked on this thread; one background thread decodes them
        features = registry._behind(self._features, passed(), READ_AHEAD_FILES, "asibench-toy")
        if not clean:
            raise AdapterError("corpus has no clean group (condition 0) to fit on")
        self.fit([features[i] for i in clean], labels)
        return [self.predict_file(feat) for feat in features]

    def predict_file(self, feat: np.ndarray) -> str:
        """The label of the nearest centroid to one image's features."""
        distances = [float(np.linalg.norm(feat - c)) for c in self._centroids]
        return self._labels[distances.index(min(distances))]


# Seconds a subprocess adapter has to exit once it has given its last answer.
CLOSE_WAIT_S = 10.0


class SubprocessAdapter:
    """Line-protocol adapter: write an absolute image path, read back a label.

    One process per ``predict`` call, from start to reap: ``predict`` starts
    it before checking the corpus, so that it loads meanwhile, and sends no
    path until every file has been checked. A writer thread sends the paths
    without waiting for answers, which the pipe paces, then closes the
    process's input and waits for it to exit; ``predict_file`` reads one
    answer per path. So the process may answer line by line, in request
    order, or read every path first and answer at end of input. However
    ``predict`` ends, the process has been killed unless it exited, and its
    pipes closed and its status reaped, before ``predict`` returns or raises.
    """

    def __init__(self, command: str):
        try:
            self._argv = shlex.split(command)
        except ValueError as exc:
            raise ParameterError(f"adapter spec {'subprocess:' + command!r}: {exc}") from None
        if not self._argv:
            raise ParameterError(f"adapter spec {'subprocess:' + command!r} names no command")
        self.command = command
        self._proc = None  # the child of the latest call

    def _ensure(self):
        """Start the child of this call; the benchmark counts spawns by this name."""
        # not line-buffered: the writer thread flushes as it closes the input
        self._proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self._proc

    def predict(self, root: str, files) -> list[str]:
        """Start a process, check every file, then send each one's path under ``root``.

        Every path is checked for a line break and for its encoding before the
        first one is sent; the answers come back in order, one per path.
        """
        proc = self._ensure()  # the process loads while the files are checked
        writer = None
        try:
            entries = [e for e, _ in files]
            for e in entries:
                path = os.path.join(root, e.output_path)
                if "\r" in path or "\n" in path:
                    raise AdapterError(f"sending a path failed: {path!r}: it holds a line break")
                try:
                    path.encode(proc.stdin.encoding)
                except UnicodeEncodeError as exc:
                    raise AdapterError(f"sending a path failed: {path}: {exc}") from None
            writer = threading.Thread(target=self._send, args=(proc, root, entries),
                                      name="asibench-sender", daemon=True)
            writer.start()
            answers = [self.predict_file(os.path.join(root, e.output_path)) for e in entries]
            writer.join(CLOSE_WAIT_S)
            late = writer.is_alive()  # the process neither exits nor reads the rest of its input
        finally:
            proc.kill()  # unblocks the writer; nothing to a process it has reaped
            if writer is not None:
                writer.join()
            proc.stdin.close()
            proc.stdout.close()
            proc.wait()
        if late:
            raise TimeoutError(
                f"adapter process {self.command!r} did not exit within {CLOSE_WAIT_S:g} s "
                "of its last answer; killed it"
            )
        return answers

    @staticmethod
    def _send(proc, root: str, entries) -> None:
        """Write every path, close the process's input, then wait for it to exit."""
        # the pipe is closed even when the process stopped reading: predict_file reports why
        with contextlib.suppress(OSError), proc.stdin:
            for e in entries:
                proc.stdin.write(os.path.join(root, e.output_path) + "\n")
        proc.wait()

    def predict_file(self, path: str) -> str:
        """Read the answer to ``path``, which ``predict`` has already sent.

        ``predict`` calls this once per image, so that a tracer wrapping it
        times each answer.
        """
        try:
            line = self._proc.stdout.readline()
        except UnicodeDecodeError as exc:
            raise AdapterError(
                f"adapter process gave an undecodable answer for {path}: {exc}"
            ) from None
        if line == "":
            with contextlib.suppress(subprocess.TimeoutExpired):
                self._proc.wait(CLOSE_WAIT_S)  # output ends a moment before the exit is reaped
            status = self._proc.poll()
            reason = ("it closed its output" if status is None else
                      f"adapter process {self.command!r} exited with status {status}")
            raise AdapterError(f"adapter process gave no response for {path}: {reason}")
        return line.rstrip("\n")


class PredictionsFileAdapter:
    """Serves labels from a CSV of precomputed predictions.

    Schema: header ``path,label``; ``path`` is the manifest's output_path
    (relative to the corpus root), once per file. Paths are compared
    normalized, so two spellings of one path are a repeated path.
    """

    def __init__(self, table_path: str | Path):
        self._labels: dict[str, str] = {}  # by normalized path
        with open(table_path, newline="", encoding="utf-8") as fh:
            for where, row in tables.rows(fh, ["path", "label"], table_path, ParameterError):
                key = os.path.normpath(row["path"])
                if key in self._labels:
                    raise ParameterError(f"{where}: repeated path {row['path']!r}")
                self._labels[key] = row["label"]

    def predict(self, root: str, files) -> list[str]:
        """Check every file, then look up each entry's manifest path."""
        entries = [e for e, _ in files]
        return [self.predict_file(e.output_path) for e in entries]

    def predict_file(self, path: str) -> str:
        """The label recorded for one manifest path."""
        key = os.path.normpath(path)
        label = self._labels.get(key)
        if label is None:
            raise AdapterError(f"no prediction recorded for {key}")
        return label


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

    The manifest is read from ``root``, the corpus directory as an absolute
    path with its symlinks resolved, and its entries are taken by condition
    id, then in manifest order. In that order, one
    ``adapter.predict(root, files)`` call gets ``root`` and the
    ``verified_files(root, entries)`` stream of ``(manifest entry, file
    bytes)`` pairs, and must give one label per entry. Each corpus file has
    one name, ``os.path.join(root, entry.output_path)``: the string
    verification opened, the path a ``subprocess:`` command is sent, and
    the one an error names; manifest errors name the manifest under
    ``root`` too. Whatever
    the adapter leaves unread is checked after it returns, so no accuracy is
    reported unless every file matched its manifest checksum. Any
    non-matching label, including an empty one, counts as incorrect.
    """
    root = os.path.realpath(corpus_dir)
    entries = sorted(read_manifest(root), key=lambda e: e.condition_id)
    with contextlib.closing(verified_files(root, entries)) as files:
        predicted = adapter.predict(root, files)
        for _ in files:  # verify whatever the adapter left unread
            pass
    if len(predicted) != len(entries):
        raise AdapterError(f"adapter gave {len(predicted)} labels for {len(entries)} images")
    correct: dict[int, int] = {}  # by condition id, ascending as the entries are
    total: dict[int, int] = {}
    for e, label in zip(entries, predicted):
        c = e.condition_id
        correct[c] = correct.get(c, 0) + (label == e.true_label)
        total[c] = total.get(c, 0) + 1
    return AccuracySeries(
        classifier_id, tuple((c, 100.0 * correct[c] / total[c]) for c in total)
    )
