"""Spans around the calls into each module of the program, kept in memory.

Callers bind most functions at import time (`from .image import read_netpbm`),
so each wrapper replaces the name in every module where a caller looks it up.
A span records its name, start, end, the span open when it began (its parent),
the bytes it handled and the CLI command it ran under. A span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import os
import sys
import time
from pathlib import Path


def _decoded_bytes(args, kwargs, image) -> int:
    # the file size of a canonical netpbm file holding this image
    header = b"P%d\n%d %d\n255\n" % (5 if image.channels == 1 else 6, image.width, image.height)
    return len(header) + image.pixels.size


def _file_bytes(args, kwargs, result) -> int:
    return os.stat(args[0]).st_size


def _manifest_bytes(args, kwargs, result) -> int:
    out_dir = args[3] if len(args) > 3 else kwargs["out_dir"]
    return os.stat(Path(out_dir) / "manifest.csv").st_size


def _result_len(args, kwargs, result) -> int:
    return len(result)


# span name, the (module, attribute) names callers look it up by, bytes handled
PATCHES = [
    ("image.read_netpbm",
     [("image", "read_netpbm"), ("harness", "read_netpbm"), ("cli", "read_netpbm")],
     _decoded_bytes),
    ("image.netpbm_bytes", [("image", "netpbm_bytes"), ("registry", "netpbm_bytes")], _result_len),
    ("perturb.rotate", [("perturb", "rotate")], None),
    ("perturb.apply_gaussian_noise", [("perturb", "apply_gaussian_noise")], None),
    ("perturb.apply_salt_pepper", [("perturb", "apply_salt_pepper")], None),
    ("perturb.derive_seed", [("perturb", "derive_seed"), ("registry", "derive_seed")], None),
    ("registry.materialize", [("registry", "materialize")], _manifest_bytes),
    ("registry.sha256_file", [("registry", "sha256_file")], _file_bytes),
    ("registry.read_manifest", [("registry", "read_manifest"), ("harness", "read_manifest")], None),
    ("registry.verify_manifest",
     [("registry", "verify_manifest"), ("harness", "verify_manifest")], None),
    ("harness.evaluate", [("harness", "evaluate")], None),
    ("harness.load_accuracy_table", [("harness", "load_accuracy_table")], None),
    ("harness.predict",
     [("harness.ToyClassifierAdapter", "predict_file"),
      ("harness.SubprocessAdapter", "predict_file"),
      ("harness.PredictionsFileAdapter", "predict_file")], None),
    ("harness.fit", [("harness.ToyClassifierAdapter", "fit")], None),
    ("metrics.score", [("metrics", "score")], None),
    ("metrics.compare", [("metrics", "compare")], None),
    ("surface.surface_grid", [("surface", "surface_grid")], None),
    ("surface.emit_grid", [("surface", "emit_grid")], None),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"asibench.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, nbytes, command]
        self.pass_starts: list[int] = []
        self.spawns = 0
        self.command = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, self.command])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, nbytes: int = 0) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = nbytes
        self._stack.pop()

    def _wrap(self, name: str, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(args, kwargs, result)
                return result
            finally:
                self.close(idx, nbytes)

        return traced

    def install(self) -> None:
        """Replace every name in PATCHES, plus a spawn counter on the subprocess adapter."""
        for name, targets, size in PATCHES:
            wrapped: dict[int, object] = {}
            for owner, attr in targets:
                obj = _resolve(owner)
                fn = getattr(obj, attr, None)
                if fn is None:
                    print(f"perfbench: asibench.{owner} has no {attr}; {name} misses it",
                          file=sys.stderr)
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn, size)
                setattr(obj, attr, wrapped[id(fn)])
        adapter = _resolve("harness.SubprocessAdapter")
        ensure = adapter._ensure

        def counted_ensure(adapter_self):
            before = adapter_self._proc
            proc = ensure(adapter_self)
            if proc is not before:
                self.spawns += 1
            return proc

        adapter._ensure = counted_ensure

    def start_pass(self) -> None:
        self.pass_starts.append(len(self.spans))
        self.spawns = 0

    def pass_summary(self) -> dict:
        """Totals per span name over the current pass: s, calls, bytes and self_s."""
        lo = self.pass_starts[-1]
        spans = self.spans[lo:]
        children = [0.0] * len(spans)
        for name, start, end, parent, nbytes, command in spans:
            if parent >= lo:
                children[parent - lo] += end - start
        totals: dict[str, dict] = {}
        evaluate_read_bytes = 0
        for (name, start, end, parent, nbytes, command), child in zip(spans, children):
            t = totals.setdefault(name, {"s": 0.0, "calls": 0, "bytes": 0, "self_s": 0.0})
            t["s"] += end - start
            t["calls"] += 1
            t["bytes"] += nbytes
            t["self_s"] += end - start - child
            if command == "evaluate" and name in ("image.read_netpbm", "registry.sha256_file"):
                evaluate_read_bytes += nbytes
        return {"spans": totals, "spawns": self.spawns, "evaluate_read_bytes": evaluate_read_bytes}

    def predict_percentiles_us(self) -> tuple[float, float]:
        """Nearest-rank p50 and p99 of every adapter call of the run, in microseconds."""
        durations = sorted(end - start for name, start, end, *_ in self.spans
                           if name == "harness.predict")
        if not durations:
            return 0.0, 0.0
        rank = lambda q: durations[max(0, math.ceil(q * len(durations)) - 1)]
        return rank(0.50) * 1e6, rank(0.99) * 1e6

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = self.pass_starts + [len(self.spans)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["pass", "span", "command", "name", "start_s", "dur_s", "parent", "bytes"])
            for p in range(len(self.pass_starts)):
                for i in range(bounds[p], bounds[p + 1]):
                    name, start, end, parent, nbytes, command = self.spans[i]
                    out.writerow([p, i, command, name, f"{start:.9f}", f"{end - start:.9f}",
                                  parent, nbytes])
