"""Benchmark condition catalog and corpus materialization.

A registry is data: an ordered list of conditions, each a recipe of 0-2
perturbation steps. The default is the shipped document
``data/default_registry.txt``: 69 conditions (one clean, ten single-factor,
the rest ordered two-factor pairs). ``materialize`` turns a clean labeled
corpus into one image group per condition, with a manifest of checksums so
runs can be verified byte-for-byte.
"""

from __future__ import annotations

import csv
import hashlib
import os
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import perturb
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


MANIFEST_FIELDS = [
    "condition_id",
    "condition_label",
    "source_filename",
    "output_path",
    "true_label",
    "checksum",
]
MANIFEST_NAME = "manifest.csv"


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


WRITE_BEHIND_FILES = 32  # encoded files that may wait for the writer thread
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


class _WriteBehind:
    """Write files from one background thread while the caller computes the next.

    The thread only opens, writes and closes files; encoding, hashing and every
    other call stay on the caller's thread. The first error the thread meets
    is raised in the caller, by the next ``write`` or on leaving the block, and
    the thread has ended when the block is left, however it is left.
    """

    def __init__(self):
        # imported here so that importing the CLI does not pay for them
        import queue
        import threading

        self._files = queue.Queue(WRITE_BEHIND_FILES)
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._drain, name="asibench-writer", daemon=True)

    def _drain(self) -> None:
        # after an error, keep taking files (unwritten) so that the caller never blocks
        while (item := self._files.get()) is not None:
            if self._error is None:
                try:
                    _write_file(*item)
                except Exception as exc:  # raised again in the caller
                    self._error = exc

    def write(self, path: Path, data: bytes) -> None:
        if self._error is not None:
            raise self._error
        self._files.put((os.fspath(path), data))

    def __enter__(self) -> "_WriteBehind":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._files.put(None)
        self._thread.join()
        if exc_type is None and self._error is not None:
            raise self._error


def _head_rotation(cond: Condition) -> PerturbationStep | None:
    """The rotation ``cond`` begins with, if any: it draws no randomness."""
    if cond.steps and cond.steps[0].kind is Kind.ROTATION:
        return cond.steps[0]
    return None


def _units(conditions: tuple[Condition, ...]) -> list[tuple[Condition, ...]]:
    """Split the conditions into units of work, in the order of each unit's first condition.

    Every condition whose first step is the same rotation joins one unit, which
    rotates each clean image once for all of them; any other condition is a unit
    of its own.
    """
    units: list[list[Condition]] = []
    families: dict[PerturbationStep, list[Condition]] = {}
    for cond in conditions:
        head = _head_rotation(cond)
        if head in families:
            families[head].append(cond)
            continue
        unit = [cond]
        units.append(unit)
        if head is not None:
            families[head] = unit
    return [tuple(unit) for unit in units]


def _write_group(
    clean: list[tuple[str, str, Image]],
    unit: tuple[Condition, ...],
    seed: int,
    out_dir: Path,
) -> list[ManifestEntry]:
    """Write the image groups of one unit of work (see ``_units``); return their manifest rows.

    Each clean image is rotated once when the unit shares a first rotation;
    each condition then finishes its later steps with the sub-seed
    derive_seed(seed, condition_id, image_index), as if it ran alone.
    """
    head = _head_rotation(unit[0])
    skip = 0 if head is None else 1
    groups = [(cond, out_dir / f"cond_{cond.id:03d}") for cond in unit]
    for _, group_dir in groups:
        group_dir.mkdir(exist_ok=True)
    entries = []
    with _WriteBehind() as writer:
        for idx, (name, true_label, img) in enumerate(clean):
            base = img if head is None else perturb.rotate(img, head.intensity)
            for cond, group_dir in groups:
                rest = cond.steps[skip:]
                if rest:
                    sub_seed = derive_seed(seed, cond.id, idx)
                    result = apply_sequence(base, rest, sub_seed, start=skip)
                else:
                    result = base
                data = netpbm_bytes(result)
                out_path = group_dir / name
                writer.write(out_path, data)
                entries.append(
                    ManifestEntry(
                        condition_id=cond.id,
                        condition_label=cond.label,
                        source_filename=name,
                        output_path=str(out_path.relative_to(out_dir)),
                        true_label=true_label,
                        checksum=hashlib.sha256(data).hexdigest(),
                    )
                )
    return entries


_worker_job: tuple | None = None  # (clean, seed, out_dir) inside a pool worker


def _init_worker(clean, seed, out_dir) -> None:
    global _worker_job
    _worker_job = (clean, seed, out_dir)


def _worker_write_group(unit: tuple[Condition, ...]) -> list[ManifestEntry]:
    clean, seed, out_dir = _worker_job
    return _write_group(clean, unit, seed, out_dir)


def _write_groups_in_pool(clean, units, seed, out_dir, workers):
    # imported here so that importing the CLI does not pay for the pool machinery
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork shares the clean corpus with the workers and skips re-importing numpy
    # and asibench in each (about 0.3 s a call), but may deadlock a child when
    # another thread held a lock at the fork
    forkable = "fork" in multiprocessing.get_all_start_methods()
    method = "fork" if forkable and threading.active_count() == 1 else "spawn"
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(clean, seed, out_dir),
    )
    try:
        return list(pool.map(_worker_write_group, units))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a perturb worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def materialize(
    clean: list[tuple[str, str, Image]],
    registry: ConditionRegistry,
    seed: int,
    out_dir: str | Path,
    *,
    jobs: int = 1,
) -> list[ManifestEntry]:
    """Write one image group per condition plus a manifest.

    ``clean`` is a list of (filename, true_label, image). Group 0 is a
    byte-identical re-encoding of the clean images; every other group applies
    the condition's step sequence with sub-seed derive_seed(seed, condition_id,
    image_index). Output bytes depend only on (clean, registry, seed). A
    filename that repeats or is not a plain file name fails before any write.

    ``jobs`` caps the worker processes that write groups in parallel (at most
    one per unit of work and per CPU); 1 writes every group in this process.
    A unit of work is one condition, or all the conditions that begin with the
    same rotation. Each unit writes its files from a background thread. The
    manifest is in registry order whatever the scheduling.
    """
    if not clean:
        raise ParameterError("clean corpus is empty")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    seen = set()
    for name, _, _ in clean:
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ParameterError(f"clean image name {name!r} is not a plain file name")
        if name in seen:
            raise ParameterError(f"clean image name {name!r} is repeated")
        seen.add(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = _units(registry.conditions)
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers == 1:
        groups = [_write_group(clean, unit, seed, out_dir) for unit in units]
    else:
        groups = _write_groups_in_pool(clean, units, seed, out_dir, workers)
    position = {cond.id: i for i, cond in enumerate(registry.conditions)}
    entries = sorted(
        (e for group in groups for e in group), key=lambda e: position[e.condition_id]
    )
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_FIELDS:
            raise ManifestError(f"{path}: unexpected manifest header {reader.fieldnames}")
        for row in reader:
            if len(row) != len(MANIFEST_FIELDS) or None in row.values():
                raise ManifestError(
                    f"{path}: line {reader.line_num}: expected {len(MANIFEST_FIELDS)} fields"
                )
            try:
                row["condition_id"] = int(row["condition_id"])
            except ValueError:
                raise ManifestError(
                    f"{path}: line {reader.line_num}: bad condition_id {row['condition_id']!r}"
                ) from None
            entries.append(ManifestEntry(**row))  # the keys are MANIFEST_FIELDS
    return entries


def _corpus_file(corpus_dir: Path, entry: ManifestEntry) -> Path:
    path = corpus_dir / entry.output_path
    if not path.is_file():
        raise ManifestError(f"missing corpus file: {path}")
    return path


def _check(path: Path, entry: ManifestEntry, digest: str) -> None:
    if digest != entry.checksum:
        raise ManifestError(f"checksum mismatch: {path}")


def verify_manifest(corpus_dir: str | Path, entries: list[ManifestEntry]) -> None:
    """Abort with ManifestError on the first missing or altered file."""
    corpus_dir = Path(corpus_dir)
    for e in entries:
        path = _corpus_file(corpus_dir, e)
        _check(path, e, sha256_file(path))


def verified_files(
    corpus_dir: str | Path, entries: list[ManifestEntry]
) -> Iterator[tuple[ManifestEntry, bytes]]:
    """Yield each entry with its file's bytes, read once and matched to its checksum.

    Fails like ``verify_manifest``, on the first missing or altered file; the
    bytes yielded are the bytes that were hashed.
    """
    corpus_dir = Path(corpus_dir)
    for e in entries:
        path = _corpus_file(corpus_dir, e)
        data = path.read_bytes()
        _check(path, e, hashlib.sha256(data).hexdigest())
        yield e, data
