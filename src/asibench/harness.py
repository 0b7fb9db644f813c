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
from .registry import ManifestEntry, read_manifest, verified_files

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

    Fit on the clean group of the corpus being evaluated; deterministic, no
    learned randomness. Ties break toward the lexicographically smallest label.
    """

    def __init__(self):
        self._labels: list[str] = []  # sorted once, at fit
        self._centroids: list[np.ndarray] = []  # one per label, in that order
        self._channels = 0  # of the images fitted on or seen so far
        # features of the last prepared corpus, by normalized path string: a str
        # hashes and joins several times faster than a Path
        self._seen: dict[str, np.ndarray] = {}
        self._scratch = np.empty(0)  # float64 pixels, grown to the largest image

    def fit(self, features: list[np.ndarray], labels: list[str]) -> None:
        """One centroid per label: the mean feature vector of its images."""
        groups: dict[str, list[np.ndarray]] = {}
        for feat, label in zip(features, labels):
            groups.setdefault(label, []).append(feat)
        self._labels = sorted(groups)
        self._centroids = [np.mean(groups[label], axis=0) for label in self._labels]
        self._channels = self._centroids[0].size // 2

    def _features(self, data: bytes, path: str | Path) -> np.ndarray:
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
        root = str(root)
        clean, labels = [], []
        # one background thread reads and checks the next files while these are decoded
        ahead = registry._ahead(files, READ_AHEAD_FILES, "asibench-reader")
        with contextlib.closing(ahead):
            for entry, data in ahead:
                path = os.path.normpath(os.path.join(root, entry.output_path))
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
        feat = self._seen.get(os.path.normpath(os.fspath(path)))
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
        try:
            self._argv = shlex.split(command)
        except ValueError as exc:
            raise ParameterError(f"adapter spec {'subprocess:' + command!r}: {exc}") from None
        if not self._argv:
            raise ParameterError(f"adapter spec {'subprocess:' + command!r} names no command")
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
                self._argv,
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
            if "\r" in line or "\n" in line[:-1]:
                raise AdapterError(f"sending a path failed: {path!r}: it holds a line break")
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
    (relative to the corpus root), once per file. Paths are compared
    normalized, so two spellings of one path are a repeated path.
    """

    def __init__(self, table_path: str | Path):
        self._root: str | None = None  # the resolved root of the corpus being evaluated
        self._labels: dict[str, str] = {}  # by normalized path
        with open(table_path, newline="", encoding="utf-8") as fh:
            for where, row in tables.rows(fh, ["path", "label"], table_path, ParameterError):
                key = os.path.normpath(row["path"])
                if key in self._labels:
                    raise ParameterError(f"{where}: repeated path {row['path']!r}")
                self._labels[key] = row["label"]

    def predict_file(self, path: Path) -> str:
        # string work only: no call to the filesystem per path
        if self._root is None:
            key = os.path.normpath(path)
        else:
            key = os.path.relpath(path, self._root)
        label = self._labels.get(key)
        if label is None:
            raise AdapterError(f"no prediction recorded for {key}")
        return label

    def prepare(self, root: Path, files) -> None:
        """Keys are relative to the corpus being evaluated."""
        self._root = os.fspath(root)

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

    Every file is checked against its manifest checksum, through
    ``verified_files``, before any prediction. An adapter's ``start()``, if it
    has one, is called once the manifest has been read, so that it can load
    during the check; its ``prepare(root, files)``, if any, gets the resolved
    corpus root and that stream of ``(manifest entry, file bytes)`` pairs, and
    whatever it leaves unread is checked after it returns. Then one
    ``predict_files`` call gets every image path, each the manifest path under
    the resolved corpus root, by condition id and then in manifest order, and
    must give one label per path. Any non-matching response, including an
    empty one, counts as incorrect.
    """
    corpus_dir = Path(corpus_dir)
    entries = read_manifest(corpus_dir)
    if hasattr(adapter, "start"):
        adapter.start()
    root = corpus_dir.resolve()
    with contextlib.closing(verified_files(corpus_dir, entries)) as files:
        if hasattr(adapter, "prepare"):
            adapter.prepare(root, files)
        for _ in files:  # verify whatever the hook left unread
            pass

    by_condition: dict[int, list[ManifestEntry]] = {}
    for e in entries:
        by_condition.setdefault(e.condition_id, []).append(e)
    cond_ids = sorted(by_condition)
    ordered = [e for cond_id in cond_ids for e in by_condition[cond_id]]
    predicted = adapter.predict_files([root / e.output_path for e in ordered])
    if len(predicted) != len(ordered):
        raise AdapterError(f"adapter gave {len(predicted)} labels for {len(ordered)} images")
    correct = dict.fromkeys(cond_ids, 0)
    for e, label in zip(ordered, predicted):
        if label == e.true_label:
            correct[e.condition_id] += 1
    return AccuracySeries(
        classifier_id,
        tuple((c, 100.0 * correct[c] / len(by_condition[c])) for c in cond_ids),
    )
