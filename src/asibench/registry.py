"""Benchmark condition catalog and corpus materialization.

A registry is data: an ordered list of conditions, each a recipe of 0-2
perturbation steps. The default is the shipped document
``data/default_registry.txt``: 69 conditions (one clean, ten single-factor,
the rest ordered two-factor pairs). ``materialize`` turns a clean labeled
corpus into one image group per condition, with a manifest of checksums so
runs can be verified byte-for-byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from . import image, perturb, tables
from .errors import ManifestError, ParameterError, RegistryError
from .image import Image, netpbm_bytes
from .perturb import Kind, PerturbationStep, apply_sequence, derive_seed

__all__ = [
    "Condition",
    "ConditionRegistry",
    "ManifestEntry",
    "load_registry",
    "load_registry_file",
    "default_registry",
    "materialize",
    "read_manifest",
    "sha256_file",
    "verified_files",
]


@dataclass(frozen=True)
class Condition:
    id: int
    label: str
    steps: tuple[PerturbationStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.id < 0:
            raise RegistryError(f"condition id must be >= 0, got {self.id}")
        if len(self.steps) > 2:
            raise RegistryError(
                f"condition {self.id} ({self.label!r}): at most 2 steps, got {len(self.steps)}"
            )


@dataclass(frozen=True)
class ConditionRegistry:
    conditions: tuple[Condition, ...]

    def __post_init__(self):
        conds = tuple(self.conditions)
        object.__setattr__(self, "conditions", conds)
        seen = set()
        for c in conds:
            if c.id in seen:
                raise RegistryError(f"duplicate condition id {c.id}")
            seen.add(c.id)
        clean = [c for c in conds if not c.steps]
        if len(clean) != 1 or conds[0].steps or conds[0].id != 0:
            raise RegistryError(
                "registry must have exactly one clean condition, with id 0 at index 0"
            )


def _parse_step(text: str, where: str) -> PerturbationStep:
    parts = text.split()
    if len(parts) != 2:
        raise RegistryError(f"{where}: step must be 'KIND INTENSITY', got {text!r}")
    kind_name, raw = parts
    try:
        kind = Kind(kind_name)
    except ValueError:
        raise RegistryError(f"{where}: unknown perturbation kind {kind_name!r}") from None
    try:
        intensity = float(raw)
    except ValueError:
        raise RegistryError(f"{where}: bad intensity {raw!r}") from None
    try:
        return PerturbationStep(kind, intensity)
    except ParameterError as exc:
        raise RegistryError(f"{where}: {exc}") from None


def load_registry(text: str) -> ConditionRegistry:
    """Parse a registry document.

    One condition per line: ``id | label | step1 | step2`` with ``-`` for an
    absent step and steps written ``SP 0.1``, ``GA 0.15``, ``ROT -30``.
    Blank lines and ``#`` comments are ignored.
    """
    conditions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise RegistryError(f"line {lineno}: expected 4 '|'-separated fields")
        where = f"line {lineno}"
        try:
            cond_id = int(fields[0])
        except ValueError:
            raise RegistryError(f"{where}: bad condition id {fields[0]!r}") from None
        steps = tuple(
            _parse_step(f, where) for f in fields[2:] if f != "-"
        )
        conditions.append(Condition(cond_id, fields[1], steps))
    return ConditionRegistry(tuple(conditions))


def load_registry_file(path: str | Path) -> ConditionRegistry:
    return load_registry(Path(path).read_text(encoding="utf-8"))


def default_registry() -> ConditionRegistry:
    """The shipped 69-condition catalog; the document's ``#`` lines say how it is built."""
    doc = resources.files("asibench.data").joinpath("default_registry.txt")
    return load_registry(doc.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class ManifestEntry:
    condition_id: int
    condition_label: str
    source_filename: str
    output_path: str  # relative to the corpus root
    true_label: str
    checksum: str


MANIFEST_FIELDS = [field.name for field in fields(ManifestEntry)]
MANIFEST_NAME = "manifest.csv"

# a clean image as materialize takes it: decoded, or the path of its netpbm file
CleanImage = Image | str | os.PathLike


def sha256_file(path: str | Path) -> tuple[bytes, str]:
    """The file's bytes and their SHA-256 hex digest, from one open and one read."""
    # unbuffered: a buffered file adds an isatty call and a buffer that readall never uses
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    return data, hashlib.sha256(data).hexdigest()


WRITE_BEHIND_FILES = 32  # computed files that may wait for the calling thread to write them
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_file(path: str, data: bytes) -> None:
    # not open(): a buffered file adds an fstat and an isatty call, and after
    # every system call this thread waits for the interpreter lock again
    fd = os.open(path, _CREATE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _ahead(items: Iterable, size: int, name: str) -> Iterator:
    """Yield ``items`` in order, advanced by one background thread up to ``size`` ahead.

    The thread starts on the first ``next`` and does nothing but advance
    ``items``. The first exception it meets is raised here, at that item's
    position, and ends the stream. The thread checks for a stop before it
    computes each next item; once the stream is exhausted, has failed or is
    closed, it finishes at most the item in hand, and it has ended when this
    generator has.
    """
    # imported here so that importing the CLI does not pay for them
    import queue
    import threading

    it = iter(items)
    ready = queue.Queue(size)  # (item,), then None at the end or the exception met
    stop = threading.Event()

    def advance() -> None:
        while not stop.is_set():
            try:
                ready.put((next(it),))
            except StopIteration:
                ready.put(None)
                return
            except BaseException as exc:  # raised again in the caller, at this item
                ready.put(exc)
                return

    thread = threading.Thread(target=advance, name=name, daemon=True)
    thread.start()
    try:
        while (got := ready.get()) is not None:
            if isinstance(got, BaseException):
                raise got
            yield got[0]
    finally:
        # once stopped, the thread puts at most one more entry, and a drained
        # queue has room for it
        stop.set()
        while not ready.empty():
            ready.get_nowait()
        thread.join()


def _image_files(
    clean: list[tuple[str, str, CleanImage]],
    indices: range,
    conditions: tuple[Condition, ...],
    seed: int,
    out_dir: Path,
    stop=None,
) -> Iterator[tuple[str, bytes, tuple[int, int, ManifestEntry]]]:
    """Compute every condition's file of the clean images at ``indices``, one image at a time.

    Yields (path, bytes, row) for each file, where the row is (registry
    position, image index, manifest row). A clean image given by its path is
    read when its turn comes, so only one is held at a time. A rotation draws
    no randomness, so each image is rotated once per distinct first-step
    angle; each condition then finishes its later steps from that rotation
    with the sub-seed derive_seed(seed, condition_id, image_index), as if it
    ran alone. Once ``stop`` (an event) is set, no further image is begun.
    """
    for idx in indices:
        if stop is not None and stop.is_set():
            return
        name, true_label, img = clean[idx]
        if not isinstance(img, Image):
            # looked up on the module, so that a wrapper of it sees each read
            img = image.read_netpbm(img)
        rotated: dict[float, Image] = {}
        for pos, cond in enumerate(conditions):
            base, rest, skip = img, cond.steps, 0
            if rest and rest[0].kind is Kind.ROTATION:
                angle = rest[0].intensity
                if angle not in rotated:
                    rotated[angle] = perturb.rotate(img, angle)
                base, rest, skip = rotated[angle], rest[1:], 1
            if rest:
                base = apply_sequence(base, rest, derive_seed(seed, cond.id, idx), start=skip)
            data = netpbm_bytes(base)
            output_path = os.path.join(f"cond_{cond.id:03d}", name)
            yield os.path.join(out_dir, output_path), data, (pos, idx, ManifestEntry(
                condition_id=cond.id,
                condition_label=cond.label,
                source_filename=name,
                output_path=output_path,
                true_label=true_label,
                checksum=hashlib.sha256(data).hexdigest(),
            ))


def _write_images(
    clean: list[tuple[str, str, CleanImage]],
    indices: range,
    conditions: tuple[Condition, ...],
    seed: int,
    out_dir: Path,
    stop=None,
) -> list[tuple[int, int, ManifestEntry]]:
    """Write every condition's file of the clean images at ``indices``; return their rows.

    The files are computed by ``_image_files`` on one background thread, up
    to ``WRITE_BEHIND_FILES`` ahead, and written on this one, which calls
    nothing else meanwhile: every kernel call of the stream is on the one
    thread. The first error either thread meets is raised here, and the
    background thread has ended by then. Once ``stop`` is set, no further
    image is begun and the rows so far are returned.
    """
    rows = []
    files = _ahead(_image_files(clean, indices, conditions, seed, out_dir, stop),
                   WRITE_BEHIND_FILES, "asibench-perturb")
    with contextlib.closing(files):
        for path, data, row in files:
            _write_file(path, data)
            rows.append(row)
    return rows


# (clean, conditions, seed, out_dir, workers, failed) in a pool worker
_worker_job: tuple | None = None


def _init_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _worker_write_chunk(k: int) -> list[tuple[int, int, ManifestEntry]]:
    clean, conditions, seed, out_dir, workers, failed = _worker_job
    try:
        return _write_images(clean, range(k, len(clean), workers), conditions, seed, out_dir,
                             failed)
    except BaseException:
        failed.set()  # the other workers stop at their next image
        raise


def _write_chunks_in_pool(clean, conditions, seed, out_dir, workers):
    # imported here so that importing the CLI does not pay for the pool machinery
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork skips re-importing numpy and asibench in each worker (about 0.3 s a
    # call), but may deadlock a child when another thread held a lock at the fork
    forkable = "fork" in multiprocessing.get_all_start_methods()
    method = "fork" if forkable and threading.active_count() == 1 else "spawn"
    context = multiprocessing.get_context(method)
    # every chunk is running from the start, so cancelling futures stops none of them
    failed = context.Event()
    pool = ProcessPoolExecutor(
        workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(clean, conditions, seed, out_dir, workers, failed),
    )
    try:
        return [row for chunk in pool.map(_worker_write_chunk, range(workers)) for row in chunk]
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a perturb worker process died: {exc}") from None
    finally:
        failed.set()  # no effect after success; after an error here, the workers stop early
        pool.shutdown(cancel_futures=True)


def materialize(
    clean: list[tuple[str, str, CleanImage]],
    registry: ConditionRegistry,
    seed: int,
    out_dir: str | Path,
    *,
    jobs: int = 1,
) -> list[ManifestEntry]:
    """Write one image group per condition plus a manifest.

    ``clean`` is a list of (filename, true_label, image), where the image is
    an ``Image`` or the path of a netpbm file, read with ``read_netpbm`` by the
    process that handles it when its turn comes. Group 0 is a byte-identical
    re-encoding of the clean images; every other group applies the
    condition's step sequence with sub-seed derive_seed(seed, condition_id,
    image_index). Output bytes depend only on (clean, registry, seed). A
    filename that repeats or is not a plain file name, or an empty label,
    fails before any write.

    The work goes one clean image at a time: each image is rotated once per
    distinct first-step angle, then every condition is finished from there,
    on a background thread, while the calling thread writes the files
    already finished. ``jobs`` caps the worker processes, and so does the CPU
    count; of W workers, worker k takes the images k, k + W, k + 2W, ..., so
    a worker may have none. With one worker every file is written in this
    process. The first error in a worker stops the others at their next
    image, and the caller gets it. The manifest is in registry order, then
    image order, whatever the scheduling.
    """
    if not clean:
        raise ParameterError("clean corpus is empty")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    seen = set()
    for name, true_label, _ in clean:
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ParameterError(f"clean image name {name!r} is not a plain file name")
        if name in seen:
            raise ParameterError(f"clean image name {name!r} is repeated")
        if not true_label:
            raise ParameterError(f"clean image {name!r} has an empty label")
        seen.add(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    conditions = registry.conditions
    for cond in conditions:
        (out_dir / f"cond_{cond.id:03d}").mkdir(exist_ok=True)
    # not capped by the image count: a run with fewer images than workers still
    # keeps every kernel, and the rotation plans it caches, out of this process
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        rows = _write_images(clean, range(len(clean)), conditions, seed, out_dir)
    else:
        rows = _write_chunks_in_pool(clean, conditions, seed, out_dir, workers)
    rows.sort(key=lambda row: row[:2])
    entries = [entry for _, _, entry in rows]
    with open(out_dir / MANIFEST_NAME, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        for e in entries:
            writer.writerow(vars(e))
    return entries


def read_manifest(corpus_dir: str | Path) -> list[ManifestEntry]:
    path = Path(corpus_dir) / MANIFEST_NAME
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    entries = []
    seen = set()  # normalized output paths: a file listed twice would count twice
    with open(path, newline="", encoding="utf-8") as fh:
        for where, row in tables.rows(fh, MANIFEST_FIELDS, path, ManifestError):
            try:
                row["condition_id"] = int(row["condition_id"])
            except ValueError:
                raise ManifestError(f"{where}: bad condition_id {row['condition_id']!r}") from None
            key = os.path.normpath(row["output_path"])
            if os.path.isabs(key) or key.split(os.sep)[0] == os.pardir:
                raise ManifestError(
                    f"{where}: output_path {row['output_path']!r} is outside the corpus"
                )
            if key in seen:
                raise ManifestError(f"{where}: repeated output_path {row['output_path']!r}")
            if not row["true_label"]:
                raise ManifestError(f"{where}: empty true_label")
            seen.add(key)
            entries.append(ManifestEntry(**row))  # the keys are MANIFEST_FIELDS
    if not entries:
        raise ManifestError(f"{path}: manifest has no rows")
    return entries


# what opening a manifest path raises when no plain file is there
_MISSING = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


def _verified(root: str, entry: ManifestEntry) -> bytes:
    """Check the entry's file against its checksum; return the bytes that were hashed.

    The file goes through ``sha256_file``, looked up on every call so that a
    wrapper of it sees each file. A missing file, a directory, or a path
    under a plain file is a missing corpus file.
    """
    path = os.path.join(root, entry.output_path)
    try:
        data, digest = sha256_file(path)
    except _MISSING:
        raise ManifestError(f"missing corpus file: {path}") from None
    if digest != entry.checksum:
        raise ManifestError(f"checksum mismatch: {path}")
    return data


def verified_files(
    corpus_dir: str | Path, entries: list[ManifestEntry]
) -> Iterator[tuple[ManifestEntry, bytes]]:
    """Yield each entry with its file's bytes, read once and matched to its checksum.

    A generator: each file is read and hashed, in manifest order, on the
    thread that pulls it, and the bytes yielded are the bytes that were
    hashed. The first missing or altered file raises ``ManifestError`` at its
    position, and no later file is read.
    """
    root = str(Path(corpus_dir))
    return ((e, _verified(root, e)) for e in entries)
