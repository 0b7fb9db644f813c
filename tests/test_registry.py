import collections
import hashlib
import itertools
import multiprocessing
import os
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from asibench.errors import ManifestError, ParameterError, RegistryError
from asibench.image import Image, read_netpbm, write_netpbm, netpbm_bytes
from asibench import image as image_module
from asibench import perturb, registry
from asibench.perturb import Kind, apply_sequence, derive_seed
from asibench.registry import (
    Condition,
    ConditionRegistry,
    default_registry,
    load_registry,
    materialize,
    read_manifest,
    verified_files,
)
from conftest import leave_no_plain_file, synthetic_corpus, write_clean_corpus

# The grids the shipped catalog is documented to enumerate
SP_GRID = (0.1, 0.15, 0.2)
GA_GRID = (0.1, 0.15, 0.2)
ROT_GRID = (-60.0, -30.0, 30.0, 60.0)  # 0 degrees excluded: identity
ROT_PAD_GA = (0.1, 0.2)  # the GA-ROT / ROT-GA padding family


class TestDefaultRegistry:
    def test_has_69_conditions(self):
        assert len(default_registry().conditions) == 69

    def test_clean_condition_first(self):
        reg = default_registry()
        assert reg.conditions[0].id == 0
        assert reg.conditions[0].steps == ()

    def test_ids_unique_and_dense(self):
        reg = default_registry()
        assert [c.id for c in reg.conditions] == list(range(69))

    def test_single_factor_grid(self):
        singles = {
            (c.steps[0].kind, c.steps[0].intensity)
            for c in default_registry().conditions
            if len(c.steps) == 1
        }
        expected = (
            {(Kind.SALT_PEPPER, d) for d in SP_GRID}
            | {(Kind.GAUSSIAN, s) for s in GA_GRID}
            | {(Kind.ROTATION, a) for a in ROT_GRID}
        )
        assert singles == expected

    def test_two_factor_pairs_come_from_documented_grids(self):
        sp, ga, rot = Kind.SALT_PEPPER, Kind.GAUSSIAN, Kind.ROTATION
        allowed = set()
        allowed |= {((sp, d), (ga, s)) for d in SP_GRID for s in GA_GRID}
        allowed |= {((ga, s), (sp, d)) for d in SP_GRID for s in GA_GRID}
        allowed |= {((sp, d), (rot, a)) for d in SP_GRID for a in ROT_GRID}
        allowed |= {((rot, a), (sp, d)) for d in SP_GRID for a in ROT_GRID}
        # documented padding family
        allowed |= {((ga, s), (rot, a)) for s in ROT_PAD_GA for a in ROT_GRID}
        allowed |= {((rot, a), (ga, s)) for s in ROT_PAD_GA for a in ROT_GRID}
        pairs = [
            tuple((s.kind, s.intensity) for s in c.steps)
            for c in default_registry().conditions
            if len(c.steps) == 2
        ]
        assert len(pairs) == len(set(pairs))  # no degenerate duplicates
        for pair in pairs:
            assert pair in allowed

    def test_no_zero_intensity_steps(self):
        for c in default_registry().conditions:
            for s in c.steps:
                assert s.intensity != 0.0

    def test_labels_spell_out_the_steps(self):
        for c in default_registry().conditions:
            expected = "_".join(f"{s.kind.value}{s.intensity:g}" for s in c.steps)
            assert c.label == (expected if c.id else "clean")


class TestRegistryDocument:
    def test_duplicate_id_rejected(self):
        doc = "0 | clean | - | -\n5 | a | SP 0.1 | -\n5 | b | GA 0.1 | -\n"
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(doc)

    def test_out_of_range_intensity_rejected(self):
        doc = "0 | clean | - | -\n1 | bad | SP 1.5 | -\n"
        with pytest.raises(RegistryError, match="line 2"):
            load_registry(doc)

    def test_unknown_kind_rejected(self):
        doc = "0 | clean | - | -\n1 | bad | BLUR 0.5 | -\n"
        with pytest.raises(RegistryError, match="unknown perturbation kind"):
            load_registry(doc)

    def test_missing_clean_condition_rejected(self):
        with pytest.raises(RegistryError, match="clean"):
            load_registry("1 | only | SP 0.1 | -\n")

    @pytest.mark.parametrize("line,message", [
        ("-1 | x | SP 0.1 | -", "line 3: condition id must be >= 0, got -1"),
        ("2 | x | SP | -", "line 3: step must be 'KIND INTENSITY', got 'SP'"),
        ("2 | x | SP x | -", "line 3: bad intensity 'x'"),
        ("2 | x | SP 0.1", "line 3: expected 4 '|'-separated fields"),
        ("one | x | SP 0.1 | -", "line 3: bad condition id 'one'"),
    ])
    def test_a_bad_line_is_named_with_its_number(self, line, message):
        doc = f"0 | clean | - | -\n\n{line}\n"
        with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
            load_registry(doc)

    def test_comments_and_blank_lines_ignored(self):
        doc = "# header\n\n0 | clean | - | -\n1 | sp | SP 0.1 | -\n"
        assert len(load_registry(doc).conditions) == 2


def tiny_registry():
    return load_registry(
        "0 | clean | - | -\n"
        "1 | SP0.2 | SP 0.2 | -\n"
        "2 | SP0.1_ROT30 | SP 0.1 | ROT 30\n"
    )


class TestMaterialize:
    def test_counts_and_manifest(self, tmp_path, small_corpus):
        reg = tiny_registry()
        clean = small_corpus[:10]
        assert materialize(clean, reg, 42, tmp_path) is None
        for cond_id in range(3):
            group = tmp_path / f"cond_{cond_id:03d}"
            assert len(list(group.glob("*.pgm"))) == 10
        entries = read_manifest(tmp_path)
        # registry order, then image order
        assert [(e.condition_id, e.source_filename, e.output_path, e.true_label)
                for e in entries] == [(c.id, name, f"cond_{c.id:03d}/{name}", label)
                                      for c in reg.conditions for name, label, _ in clean]
        assert [e for e, _ in verified_files(tmp_path, entries)] == entries

    def test_clean_group_byte_identical(self, tmp_path, small_corpus):
        clean = small_corpus[:5]
        materialize(clean, tiny_registry(), 0, tmp_path)
        for name, _, img in clean:
            assert (tmp_path / "cond_000" / name).read_bytes() == netpbm_bytes(img)

    def test_deterministic_rerun(self, tmp_path, small_corpus):
        a, b = tmp_path / "a", tmp_path / "b"
        materialize(small_corpus[:6], tiny_registry(), 7, a)
        materialize(small_corpus[:6], tiny_registry(), 7, b)
        e1, e2 = read_manifest(a), read_manifest(b)
        assert [x.checksum for x in e1] == [x.checksum for x in e2]

    def test_seed_changes_output(self, tmp_path, small_corpus):
        a, b = tmp_path / "a", tmp_path / "b"
        materialize(small_corpus[:6], tiny_registry(), 7, a)
        materialize(small_corpus[:6], tiny_registry(), 8, b)
        e1, e2 = read_manifest(a), read_manifest(b)
        assert [x.checksum for x in e1] != [x.checksum for x in e2]

    def test_sp_count_oracle_on_constant_corpus(self, tmp_path):
        clean = [(f"c{i}.pgm", "x", Image.constant(10, 10, 0.5)) for i in range(4)]
        materialize(clean, tiny_registry(), 99, tmp_path)
        for path in (tmp_path / "cond_001").glob("*.pgm"):
            img = read_netpbm(path)
            extreme = ((img.pixels == 0.0) | (img.pixels == 1.0)).sum()
            assert extreme == 20  # round(0.2 * 100)

    def test_jobs_output_byte_identical(self, tmp_path, small_corpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # run the pool on any machine
        a, b = tmp_path / "a", tmp_path / "b"
        materialize(small_corpus[:6], tiny_registry(), 5, a, jobs=1)
        materialize(small_corpus[:6], tiny_registry(), 5, b, jobs=2)
        assert read_manifest(a) == read_manifest(b)
        assert_same_files(a, b)

    def test_jobs_spawn_while_threads_run(self, tmp_path, small_corpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        methods = record_start_methods(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            materialize(small_corpus[:3], tiny_registry(), 5, tmp_path / "b", jobs=2)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert methods == ["spawn"]
        materialize(small_corpus[:3], tiny_registry(), 5, tmp_path / "a", jobs=1)
        assert read_manifest(tmp_path / "b") == read_manifest(tmp_path / "a")

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patch reaches the workers only through fork")
    def test_worker_death_is_child_process_error(self, tmp_path, small_corpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # a forked worker inherits the patch and exits without an answer
        monkeypatch.setattr(registry, "_write_images", lambda *args: os._exit(3))
        with pytest.raises(ChildProcessError, match="worker process died"):
            materialize(small_corpus[:2], tiny_registry(), 0, tmp_path, jobs=2)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, small_corpus, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            materialize(small_corpus[:2], tiny_registry(), 0, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_a_negative_seed_fails_before_any_write(self, tmp_path, small_corpus):
        with pytest.raises(ParameterError, match=re.escape("seed must be >= 0, got -1") + "$"):
            materialize(small_corpus[:2], tiny_registry(), -1, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            materialize([], tiny_registry(), 0, tmp_path)

    def test_an_empty_label_fails_before_any_write(self, tmp_path, small_corpus):
        clean = list(small_corpus[:3])
        name, _, img = clean[2]
        clean[2] = (name, "", img)
        with pytest.raises(ParameterError,
                           match=re.escape(f"clean image {name!r} has an empty label")):
            materialize(clean, tiny_registry(), 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_a_name_holding_nul_fails_before_any_write(self, tmp_path, small_corpus):
        (_, label, img), (_, _, other) = small_corpus[:2]
        clean = [("ok.pgm", label, img), ("x\x00y.pgm", label, other)]
        message = r"clean image name 'x\x00y.pgm' is not a plain file name"
        with pytest.raises(ParameterError, match=re.escape(message)):
            materialize(clean, tiny_registry(), 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_checksum_verification_catches_tampering(self, tmp_path, small_corpus):
        materialize(small_corpus[:4], tiny_registry(), 1, tmp_path)
        entries = read_manifest(tmp_path)
        victim = tmp_path / entries[0].output_path
        victim.write_bytes(victim.read_bytes()[:-1] + b"\x00")
        with pytest.raises(ManifestError, match="checksum"):
            list(verified_files(tmp_path, entries))

    def test_verified_files_yields_the_hashed_bytes_in_order(self, tmp_path, small_corpus):
        materialize(small_corpus[:4], tiny_registry(), 1, tmp_path)
        entries = read_manifest(tmp_path)
        pairs = list(verified_files(tmp_path, entries))
        assert [e for e, _ in pairs] == entries
        assert all(data == (tmp_path / e.output_path).read_bytes() for e, data in pairs)

    @pytest.mark.parametrize("damage,message", [
        (lambda path: path.unlink(), "missing corpus file"),
        (lambda path: path.write_bytes(path.read_bytes() + b"\0"), "checksum mismatch"),
    ])
    def test_verified_files_stops_at_the_first_damaged_file(
        self, tmp_path, small_corpus, damage, message, monkeypatch
    ):
        materialize(small_corpus[:4], tiny_registry(), 1, tmp_path)
        entries = read_manifest(tmp_path)
        victim = tmp_path / entries[5].output_path
        damage(victim)
        read = []
        sha256_file = registry.sha256_file

        def logged(path):
            read.append(path)
            return sha256_file(path)

        monkeypatch.setattr(registry, "sha256_file", logged)
        stream = verified_files(tmp_path, entries)
        assert [e for e, _ in itertools.islice(stream, 5)] == entries[:5]
        with pytest.raises(ManifestError, match=re.escape(f"{message}: {victim}") + "$"):
            next(stream)
        assert list(stream) == []
        assert read == [str(tmp_path / e.output_path) for e in entries[:6]]

    @pytest.mark.parametrize("damage", ["directory", "group_is_a_file"])
    def test_a_path_with_no_plain_file_is_a_missing_corpus_file(
        self, tmp_path, small_corpus, damage
    ):
        materialize(small_corpus[:4], tiny_registry(), 1, tmp_path)
        entries = read_manifest(tmp_path)
        victim = tmp_path / entries[4].output_path  # the first file of cond_001
        leave_no_plain_file(victim, damage)
        expected = re.escape(f"missing corpus file: {victim}") + "$"
        with pytest.raises(ManifestError, match=expected):
            list(verified_files(tmp_path, entries))

    def test_header_only_manifest_rejected(self, tmp_path):
        manifest = tmp_path / registry.MANIFEST_NAME
        manifest.write_text(",".join(registry.MANIFEST_FIELDS) + "\n")
        with pytest.raises(ManifestError, match=re.escape(f"{manifest}: manifest has no rows")):
            read_manifest(tmp_path)

    @pytest.mark.parametrize("row,message", [
        ("2,SP0.2,a.pgm", "expected 6 fields"),
        ("2,SP0.2,a.pgm,cond_002/a.pgm,dark,00,extra", "expected 6 fields"),
        ("two,SP0.2,a.pgm,cond_002/a.pgm,dark,00", "bad condition_id 'two'"),
        ("0,clean,dark_00.pgm,cond_000/dark_00.pgm,dark,00",
         "repeated output_path 'cond_000/dark_00.pgm'"),
        ("0,clean,dark_00.pgm,cond_000/./dark_00.pgm,dark,00",
         "repeated output_path 'cond_000/./dark_00.pgm'"),
        ("0,clean,dark_00.pgm,/abs/secret.bin,dark,00",
         "output_path '/abs/secret.bin' is outside the corpus"),
        ("0,clean,dark_00.pgm,../secret.bin,dark,00",
         "output_path '../secret.bin' is outside the corpus"),
        ("0,clean,dark_00.pgm,cond_000/../../secret.bin,dark,00",
         "output_path 'cond_000/../../secret.bin' is outside the corpus"),
        ("2,SP0.2,a.pgm,cond_002/a.pgm,,00", "empty true_label"),
    ])
    def test_malformed_manifest_row_names_the_line(self, tmp_path, small_corpus, row, message):
        materialize(small_corpus[:2], tiny_registry(), 1, tmp_path)
        manifest = tmp_path / registry.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:-1] + [row]) + "\n")
        with pytest.raises(ManifestError, match=re.escape(f"{manifest}: line 7: {message}")):
            read_manifest(tmp_path)


# rotation-first conditions interleaved with others, ids out of order
INTERLEAVED = (
    "0 | clean | - | -\n"
    "4 | ROT30 | ROT 30 | -\n"
    "1 | SP0.1 | SP 0.1 | -\n"
    "9 | ROT30_SP0.1 | ROT 30 | SP 0.1\n"
    "2 | ROT-30_GA0.1 | ROT -30 | GA 0.1\n"
    "7 | ROT30_GA0.1 | ROT 30 | GA 0.1\n"
    "3 | SP0.1_ROT30 | SP 0.1 | ROT 30\n"
)


def _thread_count_kept(call):
    """Run call(), which must raise; check it leaves no thread behind; return the exception."""
    before = threading.active_count()
    with pytest.raises(BaseException) as info:
        call()
    assert threading.active_count() == before
    return info.value


class TestUnitsOfWork:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_file_is_its_direct_computation(self, tmp_path, small_corpus, monkeypatch,
                                                  jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        reg = load_registry(INTERLEAVED)
        clean = small_corpus[:5]  # 35 files: more than the writer's queue holds
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the caller and the writer often
        try:
            materialize(clean, reg, 31, tmp_path, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        entries = read_manifest(tmp_path)
        assert [e.condition_id for e in entries] == [
            c.id for c in reg.conditions for _ in clean
        ]
        assert [e.source_filename for e in entries] == [name for name, _, _ in clean] * 7
        for e in entries:
            cond = next(c for c in reg.conditions if c.id == e.condition_id)
            idx = [name for name, _, _ in clean].index(e.source_filename)
            expected = netpbm_bytes(
                apply_sequence(clean[idx][2], cond.steps, derive_seed(31, cond.id, idx))
            )
            assert (tmp_path / e.output_path).read_bytes() == expected, e

    def test_files_are_computed_here_and_written_on_one_background_thread(
        self, tmp_path, small_corpus, monkeypatch
    ):
        threads = {}
        for owner, name in [(perturb, "rotate"), (perturb, "apply_gaussian_noise"),
                            (registry, "netpbm_bytes"), (registry, "_write_file")]:
            threads[name] = set()

            def recorded(*args, fn=getattr(owner, name), name=name):
                threads[name].add(threading.current_thread().name)
                return fn(*args)

            monkeypatch.setattr(owner, name, recorded)
        materialize(small_corpus[:5], load_registry(INTERLEAVED), 31, tmp_path)
        here = threading.current_thread().name
        assert threads == {"rotate": {here}, "apply_gaussian_noise": {here},
                           "netpbm_bytes": {here}, "_write_file": {"asibench-writer"}}

    def test_each_clean_image_is_rotated_once_per_angle(self, tmp_path, small_corpus,
                                                        monkeypatch):
        calls = collections.Counter()
        real_rotate = perturb.rotate

        def counting_rotate(img, degrees):
            calls[img.pixels.tobytes(), degrees] += 1
            return real_rotate(img, degrees)

        monkeypatch.setattr(perturb, "rotate", counting_rotate)
        clean = small_corpus[:4]
        materialize(clean, load_registry(INTERLEAVED), 31, tmp_path)
        # ROT 30 and ROT -30 of each clean image, and SP 0.1 | ROT 30's own rotation
        assert sum(calls.values()) == 3 * len(clean)
        assert set(calls.values()) == {1}
        for _, _, img in clean:
            assert calls[img.pixels.tobytes(), 30.0] == 1
            assert calls[img.pixels.tobytes(), -30.0] == 1

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patch reaches the workers only through fork")
    def test_fewer_images_than_workers_runs_no_kernel_here(self, tmp_path, small_corpus,
                                                           monkeypatch):
        # a kernel run here would keep its rotation plans in this process's memory
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "kernel_pids"
        for name in ("rotate", "apply_salt_pepper", "apply_gaussian_noise"):
            def logged(*args, kernel=getattr(perturb, name)):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return kernel(*args)

            monkeypatch.setattr(perturb, name, logged)
        materialize(small_corpus[:1], load_registry(INTERLEAVED), 31, tmp_path / "out", jobs=2)
        pids = set(log.read_text().split())
        assert pids and str(os.getpid()) not in pids

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_write_error_reaches_the_caller(self, tmp_path, small_corpus, monkeypatch, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        clean = small_corpus[:4]
        blocker = tmp_path / "cond_009" / clean[2][0]
        blocker.mkdir(parents=True)
        exc = _thread_count_kept(
            lambda: materialize(clean, load_registry(INTERLEAVED), 31, tmp_path, jobs=jobs)
        )
        assert isinstance(exc, IsADirectoryError)
        assert exc.filename == str(blocker)
        assert not (tmp_path / registry.MANIFEST_NAME).exists()

    def test_work_after_a_write_failure_is_bounded(self, tmp_path, monkeypatch):
        k = 5
        fault = OSError(f"write fault on file {k}")
        writes = itertools.count(1)
        real_write, real_encode = registry._write_file, registry.netpbm_bytes
        encoded = []

        def failing_write(path, data):
            if next(writes) == k:
                raise fault
            real_write(path, data)

        def counting_encode(img):
            encoded.append(img)
            return real_encode(img)

        monkeypatch.setattr(registry, "_write_file", failing_write)
        monkeypatch.setattr(registry, "netpbm_bytes", counting_encode)
        clean = synthetic_corpus(n_per_class=1, size=8)
        reg = default_registry()
        exc = _thread_count_kept(lambda: materialize(clean, reg, 0, tmp_path / "out"))
        assert exc is fault
        # the files taken, a full queue, and the one in hand when the stop came
        assert len(encoded) <= k + registry.WRITE_BEHIND_FILES + 1
        assert len(clean) * len(reg.conditions) > 2 * (k + registry.WRITE_BEHIND_FILES + 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kernel_error_propagates_unchanged(self, tmp_path, small_corpus, monkeypatch, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if jobs == 2 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patch reaches the workers only through fork")
        fault = ArithmeticError("kernel fault on the third call")
        real_sp = perturb.apply_salt_pepper
        sp_calls = itertools.count(1)

        def failing_sp(img, density, seed):
            if next(sp_calls) == 3:
                raise fault
            return real_sp(img, density, seed)

        monkeypatch.setattr(perturb, "apply_salt_pepper", failing_sp)
        exc = _thread_count_kept(
            lambda: materialize(small_corpus[:4], load_registry(INTERLEAVED), 31, tmp_path,
                                jobs=jobs)
        )
        if jobs == 1:
            assert exc is fault
        else:  # a copy sent back from the worker
            assert type(exc) is ArithmeticError and exc.args == fault.args

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patch reaches the workers only through fork")
    def test_the_first_error_stops_the_other_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        clean = synthetic_corpus(n_per_class=14, size=64)[:40]
        first = clean[0][2]
        real_sp = perturb.apply_salt_pepper

        def failing_sp(img, density, seed):
            if img == first:
                raise ArithmeticError("kernel fault on clean image 0")
            return real_sp(img, density, seed)

        monkeypatch.setattr(perturb, "apply_salt_pepper", failing_sp)
        reg, out = default_registry(), tmp_path / "out"
        exc = _thread_count_kept(lambda: materialize(clean, reg, 0, out, jobs=2))
        assert type(exc) is ArithmeticError and exc.args == ("kernel fault on clean image 0",)
        # the other worker stops at its next clean image instead of finishing its 20
        written = sum(1 for _ in out.rglob("*.pgm"))
        assert written < 3 * len(reg.conditions), f"{written} files written"


def assert_same_files(a, b):
    """The two trees hold the same files, byte for byte."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def record_start_methods(monkeypatch) -> list:
    """Record the start method of every pool context that materialize asks for."""
    methods = []
    get_context = multiprocessing.get_context

    def recording_get_context(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
    return methods


class TestCleanImagesByPath:
    """materialize reads a clean image given by its path when that image's turn comes."""

    @pytest.fixture
    def clean(self, tmp_path, small_corpus):
        """The same five clean images, by path and decoded from those paths."""
        clean_dir = write_clean_corpus(small_corpus[:5], tmp_path / "clean")
        paths = [(name, label, str(clean_dir / name)) for name, label, _ in small_corpus[:5]]
        return paths, [(name, label, read_netpbm(path)) for name, label, path in paths]

    @pytest.mark.parametrize("method", ["in-process", "fork", "spawn"])
    def test_paths_write_what_their_decoded_images_write(self, tmp_path, clean, monkeypatch,
                                                         method):
        if method == "fork" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        paths, images = clean
        reg = load_registry(INTERLEAVED)
        materialize(images, reg, 31, tmp_path / "from_images")
        methods = record_start_methods(monkeypatch)
        release = threading.Event()
        # a second running thread makes the pool spawn its workers
        other = threading.Thread(target=release.wait, args=(60,))
        if method == "spawn":
            other.start()
        try:
            jobs = 1 if method == "in-process" else 2
            materialize(paths, reg, 31, tmp_path / "from_paths", jobs=jobs)
        finally:
            release.set()
            if method == "spawn":
                other.join(timeout=60)
        assert not other.is_alive()
        assert methods == ([] if method == "in-process" else [method])
        assert read_manifest(tmp_path / "from_paths") == read_manifest(tmp_path / "from_images")
        assert_same_files(tmp_path / "from_images", tmp_path / "from_paths")

    def test_each_path_is_read_when_its_turn_comes(self, tmp_path, clean, monkeypatch):
        paths, _ = clean
        events = []
        real_read, real_rotate = image_module.read_netpbm, perturb.rotate

        def logged_read(path):
            events.append(("read", path))
            return real_read(path)

        def logged_rotate(img, degrees):
            events.append("rotate")
            return real_rotate(img, degrees)

        monkeypatch.setattr(image_module, "read_netpbm", logged_read)
        monkeypatch.setattr(perturb, "rotate", logged_rotate)
        materialize(paths, load_registry(INTERLEAVED), 31, tmp_path / "out")
        # ROT 30 and ROT -30 of the clean image, and SP 0.1 | ROT 30's own rotation
        assert events == [event for _, _, path in paths
                          for event in [("read", path)] + ["rotate"] * 3]


class TestBadCleanFile:
    """A clean image given by a path that is no plain netpbm file fails before any write."""

    DAMAGE = {
        "deleted": ("clean image not found: {path}",
                    lambda path: leave_no_plain_file(path, "deleted")),
        "directory": ("clean image not found: {path}",
                      lambda path: leave_no_plain_file(path, "directory")),
        "truncated": ("{path}: truncated pixel data",
                      lambda path: path.write_bytes(path.read_bytes()[:-1])),
        "not_netpbm": ("{path}: unsupported netpbm magic b'not'",
                       lambda path: path.write_bytes(b"not netpbm\n")),
    }

    @pytest.fixture
    def paths(self, tmp_path, small_corpus):
        clean_dir = write_clean_corpus(small_corpus[:5], tmp_path / "clean")
        return [(name, label, str(clean_dir / name)) for name, label, _ in small_corpus[:5]]

    def damaged(self, paths, damage):
        """Damage the last clean file; return the message that names it."""
        message, damage_file = self.DAMAGE[damage]
        path = paths[-1][2]
        damage_file(Path(path))
        return message.format(path=path)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_nothing_is_created(self, tmp_path, paths, monkeypatch, damage, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        message = self.damaged(paths, damage)
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            materialize(paths, tiny_registry(), 0, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_an_older_corpus_is_left_as_it_was(self, tmp_path, paths):
        out = tmp_path / "out"
        materialize(paths, tiny_registry(), 1, out)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        message = self.damaged(paths, "truncated")
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            materialize(paths, tiny_registry(), 2, out)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


class Fault(Exception):
    pass


class TestBehind:
    """_behind(fn, items, size, name): items advance here, fn runs on one thread behind them."""

    SIZE = 4

    @staticmethod
    def items(n, fault_at=None, fault=None):
        for i in range(n):
            if i == fault_at:
                raise fault
            yield i, bytes([i]) * 64

    @staticmethod
    def fn(fault_at=None, fault=None):
        def work(i, data):
            if i == fault_at:
                raise fault
            return hashlib.sha256(data).hexdigest()

        return work

    @staticmethod
    def outcome(call):
        try:
            return call(), None
        except BaseException as exc:
            return None, exc

    # the position of fn's fault and of items' fault; with both, fn's comes first in the
    # stream, but items may reach its own before fn reaches its
    FAULTS = {"neither": (None, None), "fn": (8, None), "items": (None, 12),
              "both": (8, 10), "interrupt": (None, 12)}

    @pytest.mark.parametrize("faulty", list(FAULTS))
    def test_equals_a_sequential_loop_under_constant_switching(self, faulty):
        fn_at, items_at = self.FAULTS[faulty]
        fn_fault = Fault("fn fault")
        items_fault = KeyboardInterrupt() if faulty == "interrupt" else Fault("items fault")

        def run(loop):
            return self.outcome(lambda: loop(self.fn(fn_at, fn_fault),
                                             self.items(24, items_at, items_fault)))

        expected = run(lambda fn, items: [fn(*item) for item in items])
        assert expected[1] is {"neither": None, "fn": fn_fault, "items": items_fault,
                               "both": fn_fault, "interrupt": items_fault}[faulty]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the caller and the thread often
        try:
            for _ in range(5):
                got = run(lambda fn, items: registry._behind(fn, items, self.SIZE,
                                                             "asibench-test"))
                assert got == expected
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)

    def test_fn_s_error_wins_over_a_later_one_that_items_met_first(self):
        fn_fault, items_fault = Fault("fn fault"), Fault("items fault")
        items_failed = threading.Event()

        def items():
            yield from self.items(2)
            items_failed.set()
            raise items_fault

        def fn(i, data):
            if i == 1:  # fails only after items has
                assert items_failed.wait(30)
                raise fn_fault
            return i

        before = threading.active_count()
        _, exc = self.outcome(lambda: registry._behind(fn, items(), self.SIZE, "asibench-test"))
        assert exc is fn_fault
        assert threading.active_count() == before

    def test_items_run_at_most_size_ahead_of_fn(self):
        advanced = []

        def items():
            for i in range(4 * self.SIZE):
                advanced.append(i)
                yield (i,)

        seen = []

        def fn(i):
            if i == 0:
                # the item taken, a full queue, and one more waiting for room
                full = self.SIZE + 2
                deadline = time.monotonic() + 30
                while len(advanced) < full and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.01)  # time enough to advance further, were the queue unbounded
                seen.append(len(advanced))
                seen.append(threading.current_thread().name)
            return -i

        before = threading.active_count()
        assert registry._behind(fn, items(), self.SIZE, "asibench-test") == [
            -i for i in range(4 * self.SIZE)
        ]
        assert seen == [self.SIZE + 2, "asibench-test"]
        assert threading.active_count() == before


def test_condition_step_limit():
    from asibench.perturb import PerturbationStep

    steps = tuple(PerturbationStep(Kind.GAUSSIAN, 0.1) for _ in range(3))
    with pytest.raises(RegistryError):
        Condition(1, "too-many", steps)
