import gc
import inspect
import itertools
import json
import math
import os
import shlex
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from asibench import cli, harness, metrics, registry, surface
from asibench.cli import main
from asibench.image import Image
from asibench.registry import read_manifest
from conftest import leave_no_plain_file, synthetic_corpus, write_clean_corpus


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def clean_dir(tmp_path):
    return write_clean_corpus(synthetic_corpus(n_per_class=2, size=12), tmp_path / "clean")


TINY_REGISTRY = (
    "0 | clean | - | -\n"
    "1 | SP0.2 | SP 0.2 | -\n"
    "2 | GA0.1_ROT30 | GA 0.1 | ROT 30\n"
)


def series_with(mean, cv_percent, n=69):
    """Build n accuracies whose mean and population CV hit the targets."""
    std = cv_percent * mean / 100.0
    d = std * math.sqrt(n / (n - 1))
    half = (n - 1) // 2
    return [mean] + [mean + d] * half + [mean - d] * half


class TestPerturb:
    def test_happy_path_default_registry(self, runner, clean_dir, tmp_path):
        out = tmp_path / "corpus"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--seed", "42", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        groups = sorted(p.name for p in out.glob("cond_*"))
        assert len(groups) == 69
        assert len(read_manifest(out)) == 69 * 6
        assert (out / "run.json").is_file()

    def test_missing_labels_file(self, runner, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert result.output == f"error: labels file not found: {clean / 'labels.csv'}\n"
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_path(self, runner, tmp_path):
        missing = tmp_path / "nope"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(missing), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert str(missing) in result.output

    def test_deterministic_checksums(self, runner, clean_dir, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(TINY_REGISTRY)
        args = lambda out: [
            "perturb", "--corpus", str(clean_dir), "--registry", str(reg),
            "--seed", "7", "--out", str(out),
        ]
        assert runner.invoke(main, args(tmp_path / "a")).exit_code == 0
        assert runner.invoke(main, args(tmp_path / "b")).exit_code == 0
        sums_a = [e.checksum for e in read_manifest(tmp_path / "a")]
        sums_b = [e.checksum for e in read_manifest(tmp_path / "b")]
        assert sums_a == sums_b

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_validation_error(self, runner, clean_dir, tmp_path, jobs):
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(tmp_path / "o"), "--jobs", jobs,
        ])
        assert result.exit_code == 1
        assert "error: jobs must be >= 1" in result.output

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_group_write_failure_is_io_error(self, runner, clean_dir, tmp_path, jobs,
                                             monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # run the pool on any machine
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "cond_005").write_text("not a directory")
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(out), "--jobs", jobs,
        ])
        assert result.exit_code == 2
        assert "error:" in result.output and "cond_005" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_image_write_failure_is_io_error(self, runner, clean_dir, tmp_path, jobs,
                                             monkeypatch):
        # the file is written from the writer thread, not from the calling one
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "corpus"
        blocker = out / "cond_050" / "mid_01.pgm"
        blocker.mkdir(parents=True)
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(out), "--jobs", jobs,
        ])
        assert result.exit_code == 2
        assert f"error: [Errno 21] Is a directory: '{blocker}'" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("row,message", [
        ("mid_00.pgm", "expected 2 fields"),  # no label field, as any table's missing field
        ("mid_00.pgm,", "missing label"),
    ])
    def test_row_without_label_is_validation_error(self, runner, clean_dir, tmp_path, row,
                                                   message):
        labels = clean_dir / "labels.csv"
        rows = labels.read_text().splitlines()
        rows[3] = row
        labels.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(out),
        ])
        assert result.exit_code == 1
        assert f"error: {labels}: line 4: {message}" in result.output
        assert not out.exists()

    def test_row_with_extra_field_is_validation_error(self, runner, clean_dir, tmp_path):
        labels = clean_dir / "labels.csv"
        rows = labels.read_text().splitlines()
        rows[3] = rows[3] + ",EXTRA"
        labels.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(out),
        ])
        assert result.exit_code == 1
        assert f"error: {labels}: line 4: expected 2 fields" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--group-size", "0", "group size must be >= 1, got 0"),
        ("--group-size", "-1", "group size must be >= 1, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_an_option_out_of_range_is_validation_error(self, runner, clean_dir, tmp_path,
                                                        option, value, message):
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--out", str(out), option, value,
        ])
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"
        assert not out.exists()

    def test_group_size_takes_the_first_rows_of_labels(self, runner, clean_dir, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(TINY_REGISTRY)
        out = tmp_path / "corpus"
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--registry", str(reg),
            "--out", str(out), "--group-size", "2",
        ])
        assert result.exit_code == 0, result.output
        first_two = [line.split(",")[0] for line in
                     (clean_dir / "labels.csv").read_text().splitlines()[1:3]]
        for cond_id in range(3):
            assert sorted(p.name for p in (out / f"cond_{cond_id:03d}").iterdir()) == first_two
        assert json.loads((out / "run.json").read_text())["group_size"] == 2

    def test_run_record_names_the_numpy_that_made_the_draws(self, runner, clean_dir, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(TINY_REGISTRY)
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["perturb", "--corpus", str(clean_dir), "--registry",
                                      str(reg), "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        record = json.loads((out / "run.json").read_text())
        assert record["numpy"] == np.__version__
        assert record["seed"] == 3

    def test_bad_registry_is_validation_error(self, runner, clean_dir, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text("0 | clean | - | -\n1 | bad | SP 9 | -\n")
        result = runner.invoke(main, [
            "perturb", "--corpus", str(clean_dir), "--registry", str(reg),
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1

    def test_absolute_name_overwrites_nothing_and_creates_nothing(
        self, runner, clean_dir, tmp_path
    ):
        victim = tmp_path / "victim.pgm"
        victim.write_bytes((clean_dir / "bright_00.pgm").read_bytes())
        before = victim.read_bytes()
        labels = clean_dir / "labels.csv"
        labels.write_text(labels.read_text() + f"{victim},bright\n")
        out = tmp_path / "o"
        result = runner.invoke(main, ["perturb", "--corpus", str(clean_dir), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: clean image name {str(victim)!r} is not a plain file name" in result.output
        assert victim.read_bytes() == before
        assert not out.exists()

    @pytest.mark.parametrize("name,reason", [
        ("../bright_00.pgm", "is not a plain file name"),
        ("../missing.pgm", "is not a plain file name"),
        ("../not_an_image.pgm", "is not a plain file name"),
        ("bright_00.pgm", "is repeated"),
        # a line break would split the name's line in a subprocess adapter's request
        ("a\nb.pgm", "is not a plain file name"),
        ("a\rb.pgm", "is not a plain file name"),
    ])
    def test_name_outside_the_group_or_repeated_is_validation_error(
        self, runner, clean_dir, tmp_path, name, reason
    ):
        # the name rule comes before any listed file is opened, whatever lies outside
        (tmp_path / "bright_00.pgm").write_bytes((clean_dir / "bright_00.pgm").read_bytes())
        (tmp_path / "not_an_image.pgm").write_bytes(b"not netpbm\n")
        if os.path.basename(name) == name:  # its file is there, so only the rule refuses it
            (clean_dir / name).write_bytes((clean_dir / "bright_00.pgm").read_bytes())
        labels = clean_dir / "labels.csv"
        labels.write_text(labels.read_text() + f'"{name}",bright\n', newline="")
        out = tmp_path / "o"
        result = runner.invoke(main, ["perturb", "--corpus", str(clean_dir), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: clean image name {name!r} {reason}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("damage,message", [
        (lambda path: path.write_bytes(path.read_bytes()[:-1]), "{path}: truncated pixel data"),
        (lambda path: path.unlink(), "clean image not found: {path}"),
    ])
    def test_a_bad_clean_image_fails_before_any_write(self, runner, clean_dir, tmp_path, damage,
                                                      message):
        victim = clean_dir / "bright_01.pgm"  # the last row of labels.csv
        damage(victim)
        out = tmp_path / "o"
        result = runner.invoke(main, ["perturb", "--corpus", str(clean_dir), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: {message.format(path=victim)}" in result.output
        assert not out.exists()


class TestPerturbMemory:
    def test_peak_does_not_grow_with_the_clean_corpus(self, tmp_path, monkeypatch):
        """perturb's traced peak, through the CLI's corpus reader, grows < 4 KiB per clean image."""
        # each peak holds the encoded files waiting to be written; with one queued at
        # most, thread timing moves either peak by a file or two, not by dozens
        monkeypatch.setattr(registry, "WRITE_BEHIND_FILES", 1)
        corpus = synthetic_corpus(n_per_class=6, size=128)
        reg = registry.default_registry()
        clean_dirs = {n: write_clean_corpus(corpus[:n], tmp_path / f"clean_{n}") for n in (4, 16)}

        def peak(n):
            tracemalloc.start()
            try:
                clean = cli._read_clean_corpus(clean_dirs[n], None)
                registry.materialize(clean, reg, 0, tmp_path / f"out_{n}", jobs=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # the rotation plans are then cached for every measured run
        growths = [(peak(16) - peak(4)) / 12 for _ in range(3)]
        # 69 files per clean image, so about 89 B per file. Their 32-byte digests take
        # 2.2 KiB; the files in flight at each peak spread one repeat's figure over
        # 1.2-3.9 KiB, and the smallest of three over 1.2-2.7 KiB. A manifest row kept
        # per file measured 21.7-26.5 KiB
        shown = ", ".join(f"{g / 1024:.1f}" for g in growths)
        assert min(growths) < 4 * 1024, f"{shown} KiB more per clean image"


def spy_on_spawns(monkeypatch):
    """Record every process the subprocess adapter starts."""
    spawned = []
    popen = harness.subprocess.Popen

    def recorded(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(harness.subprocess, "Popen", recorded)
    return spawned


@pytest.fixture()
def materialized(runner, clean_dir, tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text(TINY_REGISTRY)
    out = tmp_path / "corpus"
    result = runner.invoke(main, [
        "perturb", "--corpus", str(clean_dir), "--registry", str(reg),
        "--seed", "3", "--out", str(out),
    ])
    assert result.exit_code == 0
    return out


class TestEvaluateAndScore:
    def test_toy_pipeline(self, runner, materialized, tmp_path):
        table = tmp_path / "acc.csv"
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized), "--adapter", "toy",
            "--classifier-id", "toy", "--out", str(table),
        ])
        assert result.exit_code == 0, result.output
        scores = tmp_path / "scores.csv"
        result = runner.invoke(main, ["score", "--table", str(table), "--out", str(scores)])
        assert result.exit_code == 0
        lines = scores.read_text().splitlines()
        assert lines[0] == "classifier,cv,mean,asi"
        clf, cv, mean, asi_val = lines[1].split(",")
        assert clf == "toy"
        assert 0.0 <= float(cv)
        assert 0.0 <= float(mean) <= 100.0
        assert -1.0 <= float(asi_val) <= 1.0

    def _evaluate_with_child(self, runner, materialized, tmp_path, source):
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent(source))
        return runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", "subprocess:" + shlex.join([sys.executable, str(script)]),
            "--out", str(tmp_path / "acc.csv"),
        ])

    def test_subprocess_child_that_dies_mid_run(self, runner, materialized, tmp_path):
        result = self._evaluate_with_child(runner, materialized, tmp_path, """\
            import sys
            sys.stdin.readline()
            print("dark", flush=True)
            sys.exit(3)
        """)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: adapter process" in result.output
        assert not (tmp_path / "acc.csv").exists()

    def test_subprocess_child_with_an_undecodable_answer(self, runner, materialized, tmp_path):
        result = self._evaluate_with_child(runner, materialized, tmp_path, """\
            import sys
            sys.stdin.readline()
            sys.stdout.buffer.write(b"\\xff\\n")
            sys.stdout.flush()
            for line in sys.stdin:
                print("dark", flush=True)
        """)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: adapter process gave an undecodable answer for " in result.output
        assert not (tmp_path / "acc.csv").exists()

    def test_subprocess_child_that_outlives_its_last_answer(self, runner, materialized,
                                                             tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        result = self._evaluate_with_child(runner, materialized, tmp_path, """\
            import sys, time
            for line in sys.stdin:
                print("dark", flush=True)
            time.sleep(60)
        """)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: adapter process" in result.output
        assert "did not exit" in result.output

    def test_a_child_that_reads_every_path_first_scores_as_a_line_by_line_child(
        self, runner, materialized, tmp_path
    ):
        tables = []
        for source in ("""\
            import sys
            for line in sys.stdin:
                print(line.rsplit("/", 1)[-1].split("_")[0], flush=True)
        """, """\
            import signal, sys
            signal.alarm(30)  # ends the child, and so the run, should its input never end
            for line in sys.stdin.read().splitlines():
                print(line.rsplit("/", 1)[-1].split("_")[0])
        """):
            result = self._evaluate_with_child(runner, materialized, tmp_path, source)
            assert result.exit_code == 0, result.output
            tables.append((tmp_path / "acc.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_toy_on_a_corpus_without_a_clean_group_is_validation_error(
        self, runner, materialized, tmp_path
    ):
        manifest = materialized / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(
            [lines[0]] + [line for line in lines[1:] if not line.startswith("0,")]
        ) + "\n")
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized), "--adapter", "toy",
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert result.output == "error: corpus has no clean group (condition 0) to fit on\n"
        assert not (tmp_path / "acc.csv").exists()

    def test_toy_on_mixed_channel_counts_is_validation_error(self, runner, tmp_path):
        corpus = synthetic_corpus(n_per_class=2, size=12)
        corpus.append(("rgb_00.ppm", "mid", Image(np.full((12, 12, 3), 0.5))))
        clean = write_clean_corpus(corpus, tmp_path / "clean")
        reg = tmp_path / "reg.txt"
        reg.write_text(TINY_REGISTRY)
        out = tmp_path / "corpus"
        assert runner.invoke(main, [
            "perturb", "--corpus", str(clean), "--registry", str(reg), "--out", str(out),
        ]).exit_code == 0
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(out), "--adapter", "toy",
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "rgb_00.ppm has 3 channels where the toy classifier has 1" in result.output
        assert not (tmp_path / "acc.csv").exists()

    @staticmethod
    def _adapter_spec(kind, entries, tmp_path, received):
        """An adapter of each kind that would answer every entry; a child logs what it gets."""
        if kind == "file":
            pred = tmp_path / "pred.csv"
            pred.write_text("path,label\n" + "".join(
                f"{e.output_path},{e.true_label}\n" for e in entries
            ))
            return f"file:{pred}"
        if kind == "subprocess":
            script = tmp_path / "child.py"
            script.write_text(textwrap.dedent(f"""\
                import sys
                with open({str(received)!r}, "a") as log:
                    for line in sys.stdin:
                        log.write(line)
                        print("x", flush=True)
            """))
            return "subprocess:" + shlex.join([sys.executable, str(script)])
        return kind

    @pytest.mark.parametrize("command,message", [
        ("", "adapter spec 'subprocess:' names no command"),
        ("'abc", "adapter spec \"subprocess:'abc\": No closing quotation"),
    ])
    def test_a_bad_subprocess_command_exits_1_before_the_manifest_is_read(
        self, runner, tmp_path, command, message
    ):
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(tmp_path / "absent"), "--adapter", f"subprocess:{command}",
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize("adapter", ["toy", "file", "subprocess"])
    def test_corrupted_last_file_exits_1_before_any_prediction(
        self, runner, materialized, tmp_path, adapter
    ):
        entries = read_manifest(materialized)
        victim = materialized.resolve() / entries[-1].output_path
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        received = tmp_path / "received.txt"
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec(adapter, entries, tmp_path, received),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert f"error: checksum mismatch: {victim}" in result.output
        assert not (tmp_path / "acc.csv").exists()
        assert not received.exists() or received.read_text() == ""

    @pytest.mark.parametrize("adapter", ["toy", "file", "subprocess"])
    def test_truncated_manifest_row_exits_1(self, runner, materialized, tmp_path, adapter):
        entries = read_manifest(materialized)
        manifest = materialized / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:3])
        manifest.write_text("\n".join(lines) + "\n")
        received = tmp_path / "received.txt"
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec(adapter, entries, tmp_path, received),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {manifest}: line {len(lines)}: expected 6 fields" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "acc.csv").exists()
        assert not received.exists() or received.read_text() == ""

    def test_repeated_manifest_row_exits_1(self, runner, materialized, tmp_path):
        # counted twice, the copy of a dark row would raise an always-dark
        # classifier's accuracy on its condition from 2/6 to 3/7
        manifest = materialized / "manifest.csv"
        lines = manifest.read_text().splitlines()
        copy = next(line for line in lines if line.startswith("2,") and ",dark," in line)
        manifest.write_text("\n".join(lines + [copy]) + "\n")
        result = self._evaluate_with_child(runner, materialized, tmp_path, """\
            import sys
            for line in sys.stdin:
                print("dark", flush=True)
        """)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        path = copy.split(",")[3]
        assert (f"error: {manifest}: line {len(lines) + 1}: repeated output_path {path!r}"
                in result.output)
        assert "Traceback" not in result.output
        assert not (tmp_path / "acc.csv").exists()

    @pytest.mark.parametrize("adapter", ["toy", "file", "subprocess"])
    def test_header_only_manifest_exits_1_and_starts_nothing(
        self, runner, materialized, tmp_path, adapter, monkeypatch
    ):
        entries = read_manifest(materialized)
        manifest = materialized / "manifest.csv"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        spawned = spy_on_spawns(monkeypatch)
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec(adapter, entries, tmp_path, tmp_path / "log.txt"),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {manifest}: manifest has no rows" in result.output
        assert not (tmp_path / "acc.csv").exists()
        assert spawned == []

    @pytest.mark.parametrize("adapter", ["toy", "file", "subprocess"])
    @pytest.mark.parametrize("damage", ["deleted", "directory", "group_is_a_file"])
    def test_a_path_with_no_plain_file_exits_1_naming_it(
        self, runner, materialized, tmp_path, adapter, damage
    ):
        entries = read_manifest(materialized)
        # the first file of the last group, so that every earlier file verifies
        victim = materialized.resolve() / next(
            e.output_path for e in entries if e.condition_id == entries[-1].condition_id
        )
        leave_no_plain_file(victim, damage)
        received = tmp_path / "received.txt"
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec(adapter, entries, tmp_path, received),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: missing corpus file: {victim}\n"
        assert not (tmp_path / "acc.csv").exists()
        assert not received.exists() or received.read_text() == ""

    @pytest.mark.parametrize("damage", ["empty_label", "deleted"])
    def test_a_relative_corpus_is_named_by_its_absolute_root(
        self, runner, materialized, monkeypatch, damage
    ):
        # from the corpus's parent directory, as a user types a relative --corpus
        monkeypatch.chdir(materialized.parent)
        root = os.path.realpath(materialized)
        entries = read_manifest(materialized)
        if damage == "empty_label":
            manifest = materialized / "manifest.csv"
            lines = manifest.read_text().splitlines()
            cells = lines[1].split(",")
            cells[4] = ""
            lines[1] = ",".join(cells)
            manifest.write_text("\n".join(lines) + "\n")
            named = os.path.join(root, "manifest.csv")
            message = f"{named}: line 2: empty true_label"
        else:
            named = os.path.join(root, entries[-1].output_path)
            os.unlink(named)
            message = f"missing corpus file: {named}"
        result = runner.invoke(main, [
            "evaluate", "--corpus", materialized.name, "--adapter", "toy", "--out", "acc.csv",
        ])
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"
        assert not (materialized.parent / "acc.csv").exists()

    def test_a_child_still_loading_is_killed_when_verification_fails(
        self, runner, materialized, tmp_path
    ):
        entries = read_manifest(materialized)
        victim = materialized.resolve() / entries[-1].output_path
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        begun = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            result = self._evaluate_with_child(runner, materialized, tmp_path, """\
                import sys, time
                time.sleep(30)
                for line in sys.stdin:
                    print("x", flush=True)
            """)
            gc.collect()  # a Popen left running warns when it is collected
        assert time.monotonic() - begun < 3
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: checksum mismatch: {victim}\n"
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_the_child_starts_before_verification_and_gets_paths_after_it(
        self, runner, materialized, tmp_path, monkeypatch
    ):
        entries = read_manifest(materialized)
        received = tmp_path / "received.txt"
        spawned = spy_on_spawns(monkeypatch)
        verified_files = harness.verified_files
        verified = []

        def checked_order(corpus_dir, manifest_entries):
            # runs from the first file pulled to the last
            assert len(spawned) == 1 and spawned[0].poll() is None  # started, still running
            yield from verified_files(corpus_dir, manifest_entries)
            assert not received.exists() or received.read_text() == ""
            verified.append(True)

        monkeypatch.setattr(harness, "verified_files", checked_order)
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec("subprocess", entries, tmp_path, received),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert verified == [True]
        assert len(spawned) == 1
        assert len(received.read_text().splitlines()) == len(entries)

    @pytest.mark.parametrize("adapter", ["toy", "file", "subprocess"])
    def test_every_adapter_hashes_each_file_through_sha256_file(
        self, runner, materialized, tmp_path, adapter, monkeypatch
    ):
        # the benchmark's tracer counts the files evaluate reads by wrapping this name;
        # an adapter's predict is handed the bytes that were hashed, so no file is read twice
        entries = read_manifest(materialized)
        hashed = []
        sha256_file = registry.sha256_file

        def counted(path, *args, **kwargs):
            hashed.append(Path(path))
            return sha256_file(path, *args, **kwargs)

        monkeypatch.setattr(registry, "sha256_file", counted)
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized),
            "--adapter", self._adapter_spec(adapter, entries, tmp_path, tmp_path / "log.txt"),
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert hashed == [materialized.resolve() / e.output_path for e in entries]

    @pytest.mark.parametrize("message", ["repeated path", "expected 2 fields"])
    def test_bad_predictions_file_row_exits_1(self, runner, materialized, tmp_path, message):
        entries = read_manifest(materialized)
        lines = ["path,label"] + [f"{e.output_path},{e.true_label}" for e in entries]
        if message == "repeated path":  # the last path again, with another label
            lines.append(f"{entries[-1].output_path},other")
            line = len(lines)
        else:  # the first path without a label
            lines[1] = entries[0].output_path
            line = 2
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "evaluate", "--corpus", str(materialized), "--adapter", f"file:{pred}",
            "--out", str(tmp_path / "acc.csv"),
        ])
        assert result.exit_code == 1
        assert f"error: {pred}: line {line}: {message}" in result.output
        assert not (tmp_path / "acc.csv").exists()

    def test_score_perfect_classifier(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        rows = ["classifier,condition,accuracy"] + [f"perfect,{c},100.0" for c in range(69)]
        table.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["score", "--table", str(table)])
        assert result.exit_code == 0
        assert "perfect,0.000,100.000,1.000" in result.output

    def test_score_output_sorted_by_classifier(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        table.write_text(
            "classifier,condition,accuracy\nzeta,0,90\nzeta,1,80\nalpha,0,70\nalpha,1,90\n"
        )
        result = runner.invoke(main, ["score", "--table", str(table)])
        body = result.output.splitlines()[1:]
        assert [line.split(",")[0] for line in body] == ["alpha", "zeta"]

    def test_score_reproduces_published_row(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        rows = ["classifier,condition,accuracy"]
        for c, acc in enumerate(series_with(85.250, 2.276)):
            rows.append(f"R1,{c},{acc!r}")
        table.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["score", "--table", str(table)])
        assert result.exit_code == 0
        assert "R1,2.276,85.250,0.948" in result.output

    def test_score_malformed_table(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        table.write_text("classifier,condition,accuracy\nm,0,104.2\n")
        assert runner.invoke(main, ["score", "--table", str(table)]).exit_code == 1

    @pytest.mark.parametrize("row", ["a,0", "a,0,100.0,junk"])
    def test_score_row_with_a_missing_or_extra_field(self, runner, tmp_path, row):
        table = tmp_path / "acc.csv"
        table.write_text(f"classifier,condition,accuracy\na,1,90.0\n{row}\n")
        result = runner.invoke(main, ["score", "--table", str(table)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {table}: accuracy table: line 3: expected 3 fields" in result.output

    def test_score_row_with_a_condition_that_is_not_an_integer(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        table.write_text("classifier,condition,accuracy\na,one,90.0\n")
        result = runner.invoke(main, ["score", "--table", str(table)])
        assert result.exit_code == 1
        assert result.output == (
            f"error: {table}: accuracy table: line 2: malformed record "
            "{'classifier': 'a', 'condition': 'one', 'accuracy': '90.0'}\n"
        )

    def test_score_warns_once_per_series_of_fractions(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        table.write_text("classifier,condition,accuracy\n"
                         "frac,0,0.9\nfrac,1,1.0\npct,0,90.0\npct,1,100.0\n")
        result = runner.invoke(main, ["score", "--table", str(table)])
        assert result.exit_code == 0
        assert result.stderr == ("warning: classifier 'frac': every accuracy is <= 1, "
                                 "but accuracies are percent (0-100), not fractions\n")
        # the score rows are what the numbers give, as without the warning
        assert result.stdout == ("classifier,cv,mean,asi\n"
                                 "frac,5.263,0.950,-0.694\npct,5.263,95.000,0.895\n")


    def test_score_refuses_a_classifier_with_zero_mean(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        table.write_text("classifier,condition,accuracy\n"
                         "g,0,90.0\ng,1,80.0\nz,0,0.0\nz,1,0.0\n")
        out = tmp_path / "scores.csv"
        for extra in ([], ["--out", str(out)]):
            result = runner.invoke(main, ["score", "--table", str(table), *extra])
            assert result.exit_code == 1
            assert result.stdout == ""
            # no fractions warning: the series is all zeros, not fractions
            assert result.stderr == (f"error: {table}: classifier 'z': CV is undefined for "
                                     "zero mean (every accuracy is 0)\n")
        assert not out.exists()


class TestCompare:
    def test_published_rows(self, runner):
        result = runner.invoke(main, ["compare", "--reference", "R4", "R8"])
        assert result.exit_code == 0, result.output
        assert "+17.444%" in result.output  # exact 100*(1.737/1.479 - 1)
        assert "-1.158%" in result.output
        assert "R4 preferred" in result.output
        assert "0.968" in result.output and "0.962" in result.output

    def test_identical_rows_tie(self, runner, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("classifier,cv,mean,asi\na,2.000,90.000,0.957\nb,2.000,90.000,0.957\n")
        result = runner.invoke(main, ["compare", "--scores", str(scores), "a", "b"])
        assert result.exit_code == 0
        assert "+0.000%" in result.output
        assert "tie" in result.output

    @pytest.mark.parametrize("sources", [["--reference", "--scores", "s.csv"], []])
    def test_both_or_neither_score_source_is_validation_error(self, runner, tmp_path, sources):
        (tmp_path / "s.csv").write_text("classifier,cv,mean,asi\nR4,2.000,90.000,0.957\n")
        sources = [str(tmp_path / a) if a == "s.csv" else a for a in sources]
        result = runner.invoke(main, ["compare", *sources, "R4", "R8"])
        assert result.exit_code == 1
        assert result.output == "error: give exactly one of --scores PATH or --reference\n"

    def test_unknown_id(self, runner):
        result = runner.invoke(main, ["compare", "--reference", "R4", "R99"])
        assert result.exit_code == 1
        assert "R99" in result.output

    def test_score_then_compare_round_trip(self, runner, tmp_path):
        table = tmp_path / "acc.csv"
        rows = ["classifier,condition,accuracy"]
        for c, acc in enumerate(series_with(89.702, 1.479)):
            rows.append(f"R4,{c},{acc!r}")
        for c, acc in enumerate(series_with(88.663, 1.737)):
            rows.append(f"R8,{c},{acc!r}")
        table.write_text("\n".join(rows) + "\n")
        scores = tmp_path / "s.csv"
        assert runner.invoke(main, ["score", "--table", str(table), "--out", str(scores)]).exit_code == 0
        result = runner.invoke(main, ["compare", "--scores", str(scores), "R4", "R8"])
        assert result.exit_code == 0
        assert "+17.44" in result.output  # re-ingested rounding: 3 d.p. inputs
        assert "R4 preferred" in result.output

    def test_ids_that_need_quoting_round_trip_through_score_report_and_compare(
        self, runner, tmp_path
    ):
        ids = ["toy,v2", 'say "hi"', "two\nlines", "back\rhere", "plain"]
        table = tmp_path / "acc.csv"
        metrics.save_accuracy_table([
            metrics.AccuracySeries(cid, tuple(enumerate(series_with(80.0 + i, 1.0 + i))))
            for i, cid in enumerate(ids)
        ], table)
        scores = tmp_path / "s.csv"
        result = runner.invoke(main, ["score", "--table", str(table), "--out", str(scores)])
        assert result.exit_code == 0, result.output
        assert sorted(cli._read_score_table(scores)) == sorted(ids)
        # an id that needs no quoting is written as it is
        assert any(line.startswith("plain,") for line in scores.read_text().splitlines())
        # each id prints on one line, a line break in it escaped, every other id as it is
        shown = dict(zip(ids, ["toy,v2", 'say "hi"', r"two\nlines", r"back\rhere", "plain"]))
        result = runner.invoke(main, ["report", "--scores", str(scores)])
        assert result.exit_code == 0, result.output
        rows = result.output.splitlines()[2:]
        assert sorted(row[:28].rstrip() for row in rows) == sorted(shown.values())
        read = cli._read_score_table(scores)
        for a, b in itertools.combinations(ids, 2):
            result = runner.invoke(main, ["compare", "--scores", str(scores), a, b])
            assert result.exit_code == 0, result.output
            win, lose = sorted((a, b), key=lambda cid: read[cid].asi, reverse=True)
            assert result.output.splitlines()[2:] == [
                f"verdict: {shown[win]} preferred (ASI {read[win].asi:.3f} > {read[lose].asi:.3f})"
            ]


class TestScoreTableErrors:
    @pytest.mark.parametrize("command", [["compare", "a", "b", "--scores"], ["report", "--scores"]])
    @pytest.mark.parametrize("body,message", [
        ("a,2.000,90.000,0.957\nb,2.000,90.000,0.957\na,1.000,95.000,0.979\n",
         "line 4: repeated classifier id 'a'"),
        ("a,2.000,90.000,0.957\nb,two,90.000,0.957\n",
         "line 3: cv, mean and asi must be numbers"),
        ("a,2.000,90.000,0.957\nb,2.000\n", "line 3: expected 4 fields"),
        ("a,1.0,90.0,0.978,junk\n", "line 2: expected 4 fields"),
        ("a,nan,90.000,0.957\n", "line 2: cv, mean and asi must be finite"),
        ("a,2.000,90.000,0.957\nb,2.000,inf,0.957\n", "line 3: cv, mean and asi must be finite"),
        ("a,2.000,90.000,-inf\n", "line 2: cv, mean and asi must be finite"),
    ])
    def test_bad_row_is_validation_error(self, runner, tmp_path, command, body, message):
        scores = tmp_path / "s.csv"
        scores.write_text("classifier,cv,mean,asi\n" + body)
        result = runner.invoke(main, command + [str(scores)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {scores}: {message}" in result.output


class TestVerdictRule:
    """Both compare paths order by the 3-dp asi cells, so equal cells are a tie."""

    @staticmethod
    def _write(path, scores):
        with open(path, "w", encoding="utf-8") as fh:
            cli._write_score_table(scores, fh)

    def test_every_reference_pair_gets_one_verdict(self, tmp_path):
        fixture = cli._fixture_scores()
        self._write(tmp_path / "s.csv", fixture.values())
        table = cli._read_score_table(tmp_path / "s.csv")
        pairs = list(itertools.combinations(sorted(fixture), 2))
        assert len(pairs) == 2775
        ties = 0
        for a, b in pairs:
            ordering = metrics.compare(fixture[a], fixture[b]).asi_ordering
            assert metrics.compare(table[a], table[b]).asi_ordering == ordering, (a, b)
            ties += ordering == "tie"
        assert ties  # pairs such as R1 and R49, whose unrounded ASIs differ

    def test_r1_r49_is_a_tie_on_both_paths(self, runner, tmp_path):
        fixture, path = cli._fixture_scores(), tmp_path / "s.csv"
        self._write(path, [fixture["R1"], fixture["R49"]])
        for source in (["--reference"], ["--scores", str(path)]):
            result = runner.invoke(main, ["compare", *source, "R1", "R49"])
            assert result.exit_code == 0, result.output
            assert result.output.splitlines()[-1] == "verdict: tie (both ASI 0.948)"


class TestSurfaceCommand:
    @pytest.mark.parametrize("param,default", [
        ("mean_range", "DEFAULT_MEAN_RANGE"),
        ("cv_range", "DEFAULT_CV_RANGE"),
        ("resolution", "DEFAULT_RESOLUTION"),
    ])
    def test_option_defaults_are_the_surface_defaults(self, param, default):
        # one source: the options and surface_grid's parameters share the module's constants
        expected = getattr(surface, default)
        option = next(p for p in cli.cmd_surface.params if p.name == param)
        assert option.default is expected
        assert inspect.signature(surface.surface_grid).parameters[param].default is expected

    def test_corner_rows(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "surface", "--out", str(out), "--resolution", "11",
            "--mean-range", "0", "100", "--cv-range", "0", "10",
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert "100.0,0.0,1.0" in lines
        assert "0.0,10.0,-1.0" in lines

    def test_json_and_plot_script(self, runner, tmp_path):
        out = tmp_path / "grid.json"
        assert runner.invoke(main, [
            "surface", "--out", str(out), "--format", "json", "--resolution", "5",
        ]).exit_code == 0
        csv_out = tmp_path / "grid.csv"
        script = tmp_path / "plot.py"
        assert runner.invoke(main, [
            "surface", "--out", str(csv_out), "--resolution", "5",
            "--plot-script", str(script),
        ]).exit_code == 0
        assert script.is_file()


    @pytest.mark.parametrize("option", ["--mean-range", "--cv-range"])
    @pytest.mark.parametrize("bounds", [("nan", "5"), ("0", "inf")])
    def test_non_finite_range_exits_1_and_writes_nothing(self, runner, tmp_path, option,
                                                          bounds):
        out = tmp_path / "grid.json"
        result = runner.invoke(main, ["surface", "--out", str(out), "--format", "json",
                                      option, *bounds])
        assert result.exit_code == 1
        name = option[2:].split("-")[0]
        assert f"error: {name} range bounds must be finite" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_ranges_exit_1_and_write_nothing(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["surface", "--out", str(out),
                                      "--mean-range", "0", "1.5e308", "--cv-range", "0", "0.5e308"])
        assert result.exit_code == 1
        assert "error: mean + cv overflows at the upper bounds" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 670. GiB for an array with shape (300000, 300000)",
         "Unable to allocate 670. GiB for an array with shape (300000, 300000)"),
        ("", "out of memory"),
    ])
    def test_a_grid_too_large_to_allocate_exits_1(
        self, runner, tmp_path, monkeypatch, message, shown
    ):
        # a real request could succeed where memory is overcommitted, then get the run killed
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(surface, "surface_grid", too_large)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["surface", "--out", str(out), "--resolution", "300000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: {shown}\n"
        assert list(tmp_path.iterdir()) == []

    def test_plot_script_with_json_writes_nothing(self, runner, tmp_path):
        out, script = tmp_path / "grid.json", tmp_path / "plot.py"
        result = runner.invoke(main, [
            "surface", "--out", str(out), "--format", "json", "--plot-script", str(script),
        ])
        assert result.exit_code == 1
        assert "error: --plot-script requires --format csv" in result.output
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def test_renders_table(self, runner, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("classifier,cv,mean,asi\ntoy,2.276,85.250,0.948\n")
        result = runner.invoke(main, ["report", "--scores", str(scores)])
        assert result.exit_code == 0
        assert "toy" in result.output
        assert "85.250" in result.output
        assert "0.948" in result.output

    def test_out_holds_the_printed_report(self, runner, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("classifier,cv,mean,asi\ntoy,2.276,85.250,0.948\nr,1.0,90.0,0.97\n")
        printed = runner.invoke(main, ["report", "--scores", str(scores)])
        assert printed.exit_code == 0
        out = tmp_path / "report.txt"
        result = runner.invoke(main, ["report", "--scores", str(scores), "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote report to {out}\n"
        assert out.read_bytes() == printed.output.encode()
