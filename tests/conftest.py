import contextlib
import glob
import multiprocessing
import multiprocessing.resource_tracker
import os
import threading

import numpy as np
import pytest

from asibench.image import Image, write_netpbm


def gradient_image(size: int = 32) -> Image:
    """Horizontal gradient, useful wherever a nonconstant image is needed."""
    return Image(np.tile(np.linspace(0.0, 1.0, size), (size, 1)))


def synthetic_corpus(n_per_class: int = 10, size: int = 16, seed: int = 1234):
    """Three brightness classes with per-image jitter and mild texture.

    Returns a list of (filename, label, Image) suitable for materialize().
    Classes are separable by mean intensity on clean images but collapse
    under heavy corruption.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for label, base in (("dark", 0.35), ("mid", 0.5), ("bright", 0.65)):
        for i in range(n_per_class):
            jitter = rng.uniform(-0.03, 0.03)
            texture = rng.normal(0.0, 0.04, size=(size, size))
            pixels = np.clip(base + jitter + texture, 0.0, 1.0)
            corpus.append((f"{label}_{i:02d}.pgm", label, Image(pixels)))
    return corpus


def write_clean_corpus(corpus, directory):
    """Lay a synthetic corpus out on disk in the CLI's clean-corpus layout."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["filename,label"]
    for name, label, img in corpus:
        write_netpbm(img, directory / name)
        lines.append(f"{name},{label}")
    (directory / "labels.csv").write_text("\n".join(lines) + "\n")
    return directory


def leave_no_plain_file(path, damage):
    """Take a corpus file away: "deleted", a "directory" in its place, or its
    "group_is_a_file" (the file's directory replaced by an empty plain file)."""
    if damage == "group_is_a_file":
        for entry in path.parent.iterdir():
            entry.unlink()
        path.parent.rmdir()
        path.parent.write_bytes(b"")
        return
    path.unlink()
    if damage == "directory":
        path.mkdir()


def child_pids():
    """This process's children as /proc lists them, zombies included; None where
    /proc has no such list."""
    lists = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not lists:
        return None
    pids = set()
    for name in lists:
        with contextlib.suppress(FileNotFoundError):  # a thread that ended meanwhile
            with open(name) as fh:
                pids.update(int(pid) for pid in fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail a test that leaves a child process running, or ended but not reaped."""
    multiprocessing.resource_tracker.ensure_running()  # it serves the whole session
    before = child_pids()
    yield
    if before is not None:
        left = child_pids() - before
        assert not left, f"child processes still there after the test: {sorted(left)}"


@pytest.fixture(autouse=True)
def no_asibench_thread_outlives_its_test():
    """Fail a test that leaves one of the package's background threads running."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("asibench-")]
    assert not alive, f"threads still running after the test: {alive}"


@pytest.fixture(autouse=True)
def no_worker_process_outlives_its_test():
    """Fail a test that leaves a multiprocessing child (a pool worker) alive."""
    yield
    alive = multiprocessing.active_children()  # also reaps the children that have ended
    assert not alive, f"processes still running after the test: {alive}"


@pytest.fixture(scope="session")
def small_corpus():
    return synthetic_corpus(n_per_class=10, size=16)
