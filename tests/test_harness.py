import builtins
import csv
import io
import os
import re
import shlex
import shutil
import sys
import textwrap
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from asibench import harness, registry
from asibench.errors import AdapterError, ManifestError, ParameterError
from asibench.image import Image, netpbm_bytes
from asibench.harness import (
    PredictionsFileAdapter,
    SubprocessAdapter,
    ToyClassifierAdapter,
    evaluate,
    make_adapter,
)
from asibench.metrics import save_accuracy_table
from asibench.registry import (
    MANIFEST_NAME,
    ManifestEntry,
    default_registry,
    load_registry,
    materialize,
    read_manifest,
)
from conftest import synthetic_corpus
from test_registry import tiny_registry


class FixedAdapter:
    """Returns labels from a prebuilt manifest output_path -> label mapping."""

    def __init__(self, labels):
        self.labels = labels

    def predict(self, root, files):
        return [self.labels[e.output_path] for e, _ in files]

    def close(self):
        pass


@pytest.fixture()
def corpus(tmp_path, small_corpus):
    materialize(small_corpus, tiny_registry(), 5, tmp_path)
    return tmp_path


class TestEvaluate:
    def test_oracle_adapter_scores_100(self, corpus):
        truth = {e.output_path: e.true_label for e in read_manifest(corpus)}
        series = evaluate(FixedAdapter(truth), corpus, classifier_id="oracle")
        assert all(acc == 100.0 for acc in series.accuracies())
        assert len(series.entries) == 3

    def test_adversary_adapter_scores_0(self, corpus):
        wrong = {e.output_path: "not-" + e.true_label for e in read_manifest(corpus)}
        series = evaluate(FixedAdapter(wrong), corpus)
        assert all(acc == 0.0 for acc in series.accuracies())

    def test_accuracy_granularity(self, corpus):
        # each group has 30 images: accuracies are multiples of 100/30
        entries = read_manifest(corpus)
        labels = {e.output_path: e.true_label for e in entries}
        # flip a few answers
        for key in sorted(labels)[::7]:
            labels[key] = "wrong"
        series = evaluate(FixedAdapter(labels), corpus)
        for acc in series.accuracies():
            assert abs(acc / (100.0 / 30) - round(acc / (100.0 / 30))) < 1e-9

    def test_toy_classifier_end_to_end(self, corpus):
        series = evaluate(ToyClassifierAdapter(), corpus, classifier_id="toy")
        by_cond = dict(series.entries)
        # nearest-centroid memorizes the separable clean classes
        assert by_cond[0] == 100.0
        # heaviest corruption (SP 0.2 then nothing; condition 1) hurts or ties
        assert by_cond[0] >= by_cond[1]
        assert by_cond[0] >= by_cond[2]

    def test_empty_response_counts_as_wrong(self, corpus):
        entries = read_manifest(corpus)
        labels = {e.output_path: "" for e in entries}
        series = evaluate(FixedAdapter(labels), corpus)
        assert all(acc == 0.0 for acc in series.accuracies())

    @pytest.mark.parametrize("extra", [-90, -1, 1])
    def test_a_label_count_other_than_the_path_count_is_an_adapter_error(self, corpus, extra):
        class Miscounting(FixedAdapter):
            def predict(self, root, files):
                return ["dark"] * (len(list(files)) + extra)

        assert len(read_manifest(corpus)) == 90
        with pytest.raises(AdapterError,
                           match=f"^adapter gave {90 + extra} labels for 90 images$"):
            evaluate(Miscounting({}), corpus)

    def test_an_empty_true_label_is_refused_before_any_prediction(self, corpus):
        manifest = corpus / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace(",dark,", ",,")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=re.escape(f"{manifest}: line 2: empty true_label")):
            evaluate(FixedAdapter({}), corpus)

    def test_a_predict_that_raises_midway_leaves_no_reader_behind(self, corpus):
        class FailingPredict(FixedAdapter):
            def predict(self, root, files):
                next(files)
                next(files)
                raise RuntimeError("predict failed midway")

        before = threading.active_count()
        # the traceback held here keeps evaluate's frame, and the stream in it, alive
        with pytest.raises(RuntimeError) as failure:
            evaluate(FailingPredict({}), corpus)
        assert threading.active_count() == before
        assert str(failure.value) == "predict failed midway"


def corrupt_last_entry(corpus):
    """Flip one pixel bit of the last file in the manifest."""
    victim = corpus / read_manifest(corpus)[-1].output_path
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01
    victim.write_bytes(bytes(data))


class TestToyClassifierAdapter:
    @staticmethod
    def reference(u8):
        """The features as the float64 image gives them: u8 / 255.0, then mean and std."""
        flat = (u8.astype(np.float64) / 255.0).reshape(-1, u8.shape[2])
        return np.concatenate([flat.mean(axis=0), flat.std(axis=0)])

    @pytest.mark.parametrize("channels", [1, 3])
    def test_features_equal_the_float64_reference(self, channels):
        rng = np.random.default_rng(channels)
        adapter = ToyClassifierAdapter()
        # small and large shapes in turn, so the reused buffer holds a bigger
        # image's leftovers whenever a smaller one is computed in it
        shapes = [(224, 224), (1, 1), (37, 52), (1, 9), (224, 224), (37, 52), (1, 1)]
        for i, (h, w) in enumerate(shapes):
            u8 = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
            if i % 2:
                u8 = np.clip(rng.normal(128, 20, size=u8.shape), 0, 255).astype(np.uint8)
            data = netpbm_bytes(Image(u8 / 255.0))
            feat = adapter._features(data, Path(f"img_{i}"))
            assert np.array_equal(feat, self.reference(u8)), (h, w, channels)

    def test_each_corpus_file_is_opened_once(self, corpus, monkeypatch):
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int):
                opened[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        evaluate(ToyClassifierAdapter(), corpus)
        files = {(corpus / e.output_path).resolve() for e in read_manifest(corpus)}
        assert {f: opened[f] for f in files} == dict.fromkeys(files, 1)

    def test_a_second_spelling_of_a_path_is_answered_from_its_verified_bytes(
        self, corpus, monkeypatch
    ):
        expected = evaluate(ToyClassifierAdapter(), corpus)
        manifest = corpus / "manifest.csv"
        manifest.write_text(
            manifest.read_text().replace("cond_000/dark_00.pgm", "cond_000/./dark_00.pgm")
        )
        assert "cond_000/./dark_00.pgm" in [e.output_path for e in read_manifest(corpus)]
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int):
                opened[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        assert evaluate(ToyClassifierAdapter(), corpus) == expected
        assert opened[(corpus / "cond_000" / "dark_00.pgm").resolve()] == 1

    def test_a_second_corpus_is_scored_as_a_fresh_adapter_scores_it(self, tmp_path, small_corpus):
        # inverted, dark and bright swap places: centroids kept from the first corpus misplace them
        inverted = [(name, label, Image(1.0 - img.pixels)) for name, label, img in small_corpus]
        materialize(small_corpus, tiny_registry(), 5, tmp_path / "a")
        materialize(inverted, tiny_registry(), 5, tmp_path / "b")
        adapter = ToyClassifierAdapter()
        evaluate(adapter, tmp_path / "a")
        assert evaluate(adapter, tmp_path / "b") == evaluate(ToyClassifierAdapter(), tmp_path / "b")

    def test_files_are_read_here_and_decoded_on_one_background_thread(self, corpus,
                                                                       monkeypatch):
        threads = {"sha256_file": set(), "_features": set()}
        real_sha256_file, real_features = registry.sha256_file, ToyClassifierAdapter._features

        def sha256_file(path):
            threads["sha256_file"].add(threading.current_thread().name)
            return real_sha256_file(path)

        def features(self, data, path):
            threads["_features"].add(threading.current_thread().name)
            return real_features(self, data, path)

        monkeypatch.setattr(registry, "sha256_file", sha256_file)
        monkeypatch.setattr(ToyClassifierAdapter, "_features", features)
        evaluate(ToyClassifierAdapter(), corpus)
        assert threads == {"sha256_file": {threading.current_thread().name},
                           "_features": {"asibench-toy"}}

    def test_mixed_channel_counts_name_the_file(self, tmp_path, small_corpus):
        rgb = Image(np.full((16, 16, 3), 0.5))
        materialize(small_corpus[:3] + [("rgb.ppm", "mid", rgb)], tiny_registry(), 5, tmp_path)
        with pytest.raises(AdapterError, match=r"cond_000/rgb\.ppm has 3 channels.* 1\b"):
            evaluate(ToyClassifierAdapter(), tmp_path)


class TestChecksumsBeforePredictions:
    def test_toy(self, corpus):
        corrupt_last_entry(corpus)
        with pytest.raises(ManifestError, match="checksum mismatch"):
            evaluate(ToyClassifierAdapter(), corpus)

    def test_predictions_file(self, tmp_path, corpus):
        pred = tmp_path / "pred.csv"
        pred.write_text("path,label\n" + "".join(
            f"{e.output_path},{e.true_label}\n" for e in read_manifest(corpus)
        ))
        corrupt_last_entry(corpus)
        with pytest.raises(ManifestError, match="checksum mismatch"):
            evaluate(PredictionsFileAdapter(pred), corpus)

    def test_subprocess_child_gets_no_path(self, tmp_path, corpus):
        received = tmp_path / "received.bin"
        adapter = child_adapter(tmp_path, f"""\
            import sys
            with open({str(received)!r}, "ab") as log:
                for line in sys.stdin.buffer:
                    log.write(line)
                    print("x", flush=True)
        """)
        corrupt_last_entry(corpus)
        try:
            with pytest.raises(ManifestError, match="checksum mismatch"):
                evaluate(adapter, corpus)
        finally:
            adapter.close()
        assert not received.exists() or received.read_bytes() == b""


def child_adapter(tmp_path, source, *args):
    """A SubprocessAdapter running the given Python source as its child."""
    script = tmp_path / "child.py"
    script.write_text(textwrap.dedent(source))
    return SubprocessAdapter(shlex.join([sys.executable, str(script), *map(str, args)]))


ECHO = """\
    import sys
    for line in sys.stdin:
        sys.stdout.write(line)
        sys.stdout.flush()
"""


def stream(names):
    """A predict stream as verified_files yields it: (manifest entry, bytes) per output path."""
    return ((ManifestEntry(0, "clean", name, name, "x", ""), b"") for name in names)


def predict_within(adapter, root, names, seconds=30):
    """Run predict on names under root in a thread, so that a deadlock fails, not hangs."""
    outcome = []

    def run():
        try:
            outcome.append(adapter.predict(root, stream(names)))
        except Exception as exc:
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    deadlocked = worker.is_alive()
    if deadlocked:
        adapter._proc.kill()
        worker.join(timeout=10)
    adapter.close()
    assert not deadlocked
    return outcome[0]


def evaluation_order(corpus):
    """Manifest entries by condition id, then in manifest order."""
    return sorted(read_manifest(corpus), key=lambda e: e.condition_id)


class TestSubprocessAdapter:
    def test_line_protocol(self, tmp_path, corpus):
        script = tmp_path / "clf.py"
        script.write_text(textwrap.dedent("""\
            import sys
            for line in sys.stdin:
                name = line.rsplit("/", 1)[-1]
                print(name.split("_")[0])
                sys.stdout.flush()
        """))
        adapter = SubprocessAdapter(f"{sys.executable} {script}")
        try:
            series = evaluate(adapter, corpus, classifier_id="sub")
        finally:
            adapter.close()
        # filenames carry the true label prefix, so this adapter is an oracle
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_dead_process_raises(self, tmp_path):
        adapter = SubprocessAdapter(f"{sys.executable} -c 'pass'")
        with pytest.raises(AdapterError):
            adapter.predict(tmp_path, stream(["x.pgm"]))
        adapter.close()
        assert adapter._proc.stdin.closed and adapter._proc.stdout.closed

    def test_a_child_that_exits_before_answering_is_named_by_its_exit_status(self, corpus):
        # its output ends a moment before it can be reaped; predict waits for the status
        first = os.path.join(corpus.resolve(), evaluation_order(corpus)[0].output_path)
        command = shlex.join([sys.executable, "-c", "import sys; sys.exit(3)"])
        for _ in range(20):
            adapter = SubprocessAdapter(command)
            try:
                with pytest.raises(AdapterError) as caught:
                    evaluate(adapter, corpus)
            finally:
                adapter.close()
            assert str(caught.value) == (
                f"adapter process gave no response for {first}: "
                f"adapter process {command!r} exited with status 3"
            )

    def test_a_child_that_closes_its_output_and_runs_on_is_killed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        adapter = child_adapter(tmp_path, """\
            import os, time
            os.close(1)
            time.sleep(60)
        """)
        error = predict_within(adapter, "/", ["a.pgm"], seconds=10)
        assert str(error) == "adapter process gave no response for /a.pgm: it closed its output"
        assert adapter._proc.returncode is not None

    def test_child_receives_manifest_paths_under_resolved_root(
        self, tmp_path, corpus, monkeypatch
    ):
        received = tmp_path / "received.bin"
        adapter = child_adapter(tmp_path, f"""\
            import sys
            with open({str(received)!r}, "wb") as log:
                for line in sys.stdin.buffer:
                    log.write(line)
                    print("x", flush=True)
        """)
        monkeypatch.chdir(corpus.parent)
        try:
            evaluate(adapter, corpus.name)
        finally:
            adapter.close()
        expected = "".join(
            f"{corpus.resolve() / e.output_path}\n" for e in evaluation_order(corpus)
        )
        assert received.read_bytes() == expected.encode()

    def test_crlf_empty_and_unterminated_answers(self, tmp_path, corpus):
        ordered = evaluation_order(corpus)
        # every fifth answer is empty; the last one has no line ending
        assert (len(ordered) - 1) % 5
        adapter = child_adapter(tmp_path, """\
            import sys
            total = int(sys.argv[1])
            for i, line in enumerate(sys.stdin):
                label = "" if i % 5 == 0 else line.rsplit("/", 1)[-1].split("_")[0]
                if i == total - 1:
                    sys.stdout.write(label)
                    break
                sys.stdout.write(label + ("\\r\\n" if i % 2 else "\\n"))
                sys.stdout.flush()
        """, len(ordered))
        try:
            series = evaluate(adapter, corpus)
        finally:
            adapter.close()
        correct, total = {}, {}
        for i, e in enumerate(ordered):
            total[e.condition_id] = total.get(e.condition_id, 0) + 1
            correct[e.condition_id] = correct.get(e.condition_id, 0) + (i % 5 != 0)
        assert series.entries == tuple(
            (c, 100.0 * correct[c] / total[c]) for c in sorted(total)
        )

    def test_long_paths_beyond_the_window_do_not_deadlock(self, tmp_path):
        adapter = child_adapter(tmp_path, ECHO)
        # these paths are many times what a pipe buffers
        root = f"/{'d' * 4000}"
        names = [f"img_{i:04d}.pgm" for i in range(192)]
        assert predict_within(adapter, root, names) == [f"{root}/{n}" for n in names]

    def test_an_undecodable_answer_kills_the_child_at_once(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys
            for i, line in enumerate(sys.stdin.buffer):
                sys.stdout.buffer.write(b"\\xff\\n" if i == 0 else line)
                sys.stdout.flush()
        """)
        # unread, the long echoes fill the answer pipe, and the child stops reading
        root = f"/{'d' * 4000}"
        names = [f"img_{i:04d}.pgm" for i in range(192)]
        start = time.monotonic()
        error = predict_within(adapter, root, names)
        assert time.monotonic() - start < harness.CLOSE_WAIT_S / 4
        assert isinstance(error, AdapterError)
        assert f"undecodable answer for {root}/{names[0]}" in str(error)

    def test_a_path_that_cannot_be_sent_is_an_adapter_error(self, tmp_path):
        adapter = child_adapter(tmp_path, ECHO)
        # a lone surrogate, as os.fsdecode gives for undecodable bytes
        names = [f"img_{i}.pgm" for i in range(3)] + ["img_\udcff.pgm", "img_4.pgm"]
        error = predict_within(adapter, "/", names)
        assert isinstance(error, AdapterError)
        assert "/img_\udcff.pgm" in str(error) and "sending a path failed" in str(error)

    def test_a_child_that_batches_any_number_of_paths_gets_every_answer(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys
            batch = []
            for line in sys.stdin:
                batch.append(line)
                if len(batch) == 200:
                    sys.stdout.writelines(batch)
                    sys.stdout.flush()
                    batch = []
            sys.stdout.writelines(batch)  # the last, partial batch, at end of input
        """)
        names = [f"img_{i:04d}.pgm" for i in range(450)]
        assert predict_within(adapter, "/", names, seconds=10) == ["/" + n for n in names]

    def test_a_path_that_cannot_be_sent_is_refused_before_any_path_is_sent(self, tmp_path):
        received = tmp_path / "received.bin"
        adapter = child_adapter(tmp_path, f"""\
            import sys
            with open({str(received)!r}, "wb") as log:
                for line in sys.stdin.buffer:
                    log.write(line)
                    print("x", flush=True)
        """)
        error = predict_within(adapter, "/", ["img_0.pgm", "img_\udcff.pgm", "img_2.pgm"])
        assert isinstance(error, AdapterError) and "sending a path failed" in str(error)
        # a child that was sent nothing is killed at close, maybe before it made its log
        assert not received.exists() or received.read_bytes() == b""

    @pytest.mark.parametrize("line_break", ["\n", "\r"])
    def test_a_path_with_a_line_break_is_refused_before_any_path_is_sent(
        self, tmp_path, small_corpus, line_break
    ):
        # the oracle's answers would shift by one, and the corpus would score wrong
        corpus = tmp_path / "corpus"
        materialize(small_corpus[:1] + small_corpus[10:12], tiny_registry(), 5, corpus)
        # materialize refuses such a name, but a manifest made by hand can list one
        name = f"dark{line_break}x_00.pgm"
        for group in corpus.glob("cond_*"):
            (group / "dark_00.pgm").rename(group / name)
        manifest = corpus / MANIFEST_NAME
        with open(manifest, newline="") as fh:
            rows = [[cell.replace("dark_00.pgm", name) for cell in row] for row in csv.reader(fh)]
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        received = tmp_path / "received.bin"
        adapter = child_adapter(tmp_path, f"""\
            import sys
            with open({str(received)!r}, "wb") as log:
                for line in sys.stdin.buffer:
                    log.write(line)
                    print(line.decode().rsplit("/", 1)[-1].split("_")[0], flush=True)
        """)
        try:
            with pytest.raises(AdapterError, match="sending a path failed: .*holds a line break"):
                evaluate(adapter, corpus)
        finally:
            adapter.close()
        assert not received.exists() or received.read_bytes() == b""

    @pytest.mark.parametrize("command,message", [
        ("", "adapter spec 'subprocess:' names no command"),
        ("  ", "adapter spec 'subprocess:  ' names no command"),
        ("'abc", "adapter spec \"subprocess:'abc\": No closing quotation"),
    ])
    def test_an_empty_or_unparsable_command_is_a_parameter_error(self, command, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            make_adapter(f"subprocess:{command}")

    def test_every_answer_goes_through_predict_file(self, tmp_path, corpus, monkeypatch):
        # the benchmark's tracer counts and times predict_file calls by name
        seen = []
        predict_file = SubprocessAdapter.predict_file

        def recorded(adapter, path):
            seen.append(path)
            return predict_file(adapter, path)

        monkeypatch.setattr(SubprocessAdapter, "predict_file", recorded)
        adapter = child_adapter(tmp_path, ECHO)
        try:
            evaluate(adapter, corpus)
        finally:
            adapter.close()
        root = str(corpus.resolve())
        assert seen == [os.path.join(root, e.output_path) for e in evaluation_order(corpus)]

    def test_child_that_exits_is_not_restarted(self, tmp_path):
        pids = tmp_path / "pids.txt"
        adapter = child_adapter(tmp_path, f"""\
            import os, sys
            with open({str(pids)!r}, "a") as fh:
                fh.write(f"{{os.getpid()}}\\n")
            sys.stdin.readline()
            print("a", flush=True)
        """)
        try:
            assert adapter.predict(tmp_path, stream(["1.pgm"])) == ["a"]
            with pytest.raises(AdapterError):
                adapter.predict(tmp_path, stream(["2.pgm"]))
            adapter._proc.wait(timeout=10)
            with pytest.raises(AdapterError, match="exited with status 0"):
                adapter.predict(tmp_path, stream(["3.pgm"]))
        finally:
            adapter.close()
        assert len(pids.read_text().splitlines()) == 1

    def test_close_kills_a_child_that_does_not_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        adapter = child_adapter(tmp_path, """\
            import sys, time
            sys.stdin.readline()
            print("a", flush=True)
            time.sleep(60)
        """)
        try:
            with pytest.raises(TimeoutError, match="of its last answer; killed it"):
                adapter.predict(tmp_path, stream(["1.pgm"]))
        finally:
            adapter.close()
        assert adapter._proc.returncode is not None

    @pytest.mark.parametrize("lingers", [False, True])
    def test_close_leaves_no_thread_behind(self, tmp_path, monkeypatch, lingers):
        # the writer ends with predict, whether or not the child exits in time
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        linger = "    import time; time.sleep(60)\n" if lingers else ""
        adapter = child_adapter(tmp_path, ECHO + linger)
        before = threading.active_count()
        try:
            if lingers:
                with pytest.raises(TimeoutError, match="killed"):
                    adapter.predict(tmp_path, stream(["1.pgm"]))
            else:
                assert adapter.predict(tmp_path, stream(["1.pgm"])) == [str(tmp_path / "1.pgm")]
        finally:
            adapter.close()
        assert threading.active_count() == before
        assert adapter._proc.returncode is not None

    def test_a_child_that_reads_every_path_before_answering_gets_every_answer(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys
            sys.stdout.write(sys.stdin.read())
        """)
        names = [f"img_{i:04d}.pgm" for i in range(50)]
        assert predict_within(adapter, "/", names, seconds=10) == ["/" + n for n in names]

    def test_predict_reaps_the_child_before_it_returns(self, tmp_path, monkeypatch):
        adapter = child_adapter(tmp_path, ECHO + "    sys.exit(7)\n")
        status_at_close = []
        close = adapter.close

        def recorded():
            status_at_close.append(adapter._proc.returncode)
            close()

        monkeypatch.setattr(adapter, "close", recorded)
        assert predict_within(adapter, "/", ["a.pgm", "b.pgm"], seconds=10) == ["/a.pgm", "/b.pgm"]
        assert status_at_close == [7]

    def test_a_child_that_answers_without_reading_its_input_is_killed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        adapter = child_adapter(tmp_path, """\
            import sys, time
            sys.stdout.write("x\\n" * int(sys.argv[1]))
            sys.stdout.flush()
            time.sleep(60)
        """, 192)
        # these paths are many times what a pipe buffers, so the writer blocks
        root = f"/{'d' * 4000}"
        names = [f"img_{i:04d}.pgm" for i in range(192)]
        before = threading.active_count()
        begun = time.monotonic()
        error = predict_within(adapter, root, names, seconds=10)
        assert time.monotonic() - begun < 2.5  # a quarter of the unpatched bound
        assert isinstance(error, TimeoutError)
        assert str(error) == (
            f"adapter process {adapter.command!r} did not exit within 0.2 s "
            "of its last answer; killed it"
        )
        assert threading.active_count() == before
        assert adapter._proc.returncode is not None

    def test_close_kills_a_child_that_was_sent_nothing_at_once(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys, time
            time.sleep(30)
            sys.stdin.readline()
        """)
        proc = adapter._ensure()
        begun = time.monotonic()
        adapter.close()  # no TimeoutError: the child had nothing to finish
        assert time.monotonic() - begun < harness.CLOSE_WAIT_S / 4
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


LOG_AND_ANSWER_X = """\
    import sys
    with open(sys.argv[1], "ab") as log:
        for line in sys.stdin.buffer:
            log.write(line)
            print("x", flush=True)
"""


class TestOneNamePerCorpusFile:
    """A subprocess: child is sent each file by the string that verification opened."""

    # an oracle while the file it is sent is there: names carry the true label
    LOG_AND_ANSWER = """\
        import os, sys
        with open(sys.argv[1], "w") as log:
            for line in sys.stdin:
                log.write(line)
                path = line.rstrip("\\n")
                label = os.path.basename(path).split("_")[0]
                print(label if os.path.isfile(path) else "missing", flush=True)
    """

    @classmethod
    def evaluate_logged(cls, tmp_path, corpus_dir, monkeypatch):
        """The series, the strings sha256_file was called with, and the child's input lines."""
        opened = []
        sha256_file = registry.sha256_file

        def spy(path):
            opened.append(path)
            return sha256_file(path)

        monkeypatch.setattr(registry, "sha256_file", spy)
        received = tmp_path / "received.txt"
        adapter = child_adapter(tmp_path, cls.LOG_AND_ANSWER, received)
        try:
            series = evaluate(adapter, corpus_dir)
        finally:
            adapter.close()
        return series, opened, received.read_text().splitlines()

    def test_from_a_relative_corpus_path(self, tmp_path, corpus, monkeypatch):
        monkeypatch.chdir(corpus.parent)
        series, opened, received = self.evaluate_logged(tmp_path, corpus.name, monkeypatch)
        assert received == opened
        assert received == [
            os.path.join(corpus.resolve(), e.output_path) for e in evaluation_order(corpus)
        ]
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_with_a_dot_segment_in_a_manifest_row(self, tmp_path, corpus, monkeypatch):
        manifest = corpus / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text().replace("cond_000/dark_00.pgm", "cond_000/./dark_00.pgm")
        )
        series, opened, received = self.evaluate_logged(tmp_path, corpus, monkeypatch)
        assert received == opened
        assert os.path.join(corpus.resolve(), "cond_000/./dark_00.pgm") in received
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_through_a_symlinked_group_the_child_opens_the_file_that_was_verified(
        self, tmp_path, small_corpus, monkeypatch
    ):
        # cond_000 leads into a copy, so cond_000/.. is the copy's root, not this corpus's
        corpus, copy = tmp_path / "corpus", tmp_path / "copy"
        materialize(small_corpus, tiny_registry(), 5, corpus)
        shutil.copytree(corpus, copy)
        shutil.rmtree(corpus / "cond_000")
        (corpus / "cond_000").symlink_to(copy / "cond_000", target_is_directory=True)
        manifest = corpus / MANIFEST_NAME
        text = manifest.read_text()
        assert text.count("cond_001/dark_00.pgm") == 1
        manifest.write_text(
            text.replace("cond_001/dark_00.pgm", "cond_000/../cond_001/dark_00.pgm")
        )
        (corpus / "cond_001" / "dark_00.pgm").unlink()
        series, opened, received = self.evaluate_logged(tmp_path, corpus, monkeypatch)
        assert received == opened
        assert os.path.join(corpus.resolve(), "cond_000/../cond_001/dark_00.pgm") in received
        assert all(os.path.isfile(path) for path in received)
        assert all(acc == 100.0 for acc in series.accuracies())


class TestEvaluationOrder:
    """An adapter sees the entries by condition id, whatever the registry's order."""

    @pytest.fixture()
    def corpora(self, tmp_path, small_corpus):
        steps = {1: "SP0.2 | SP 0.2 | -", 2: "GA0.1_ROT30 | GA 0.1 | ROT 30"}
        made = {}
        for order in [(1, 2), (2, 1)]:
            text = "0 | clean | - | -\n" + "".join(f"{i} | {steps[i]}\n" for i in order)
            made[order] = tmp_path / f"corpus_{order[0]}{order[1]}"
            materialize(small_corpus, load_registry(text), 5, made[order])
        return made

    def test_the_registry_order_changes_only_the_manifest_order(self, corpora):
        in_order, reversed_ = (read_manifest(c) for c in corpora.values())
        assert [e.condition_id for e in reversed_] == [0] * 30 + [2] * 30 + [1] * 30
        assert sorted(in_order, key=lambda e: e.condition_id) == sorted(
            reversed_, key=lambda e: e.condition_id
        )

    @pytest.mark.parametrize("kind", ["toy", "subprocess"])
    def test_both_orders_give_one_table(self, tmp_path, corpora, kind):
        tables = []
        for corpus in corpora.values():
            log = corpus.with_suffix(".log")
            adapter = (ToyClassifierAdapter() if kind == "toy"
                       else child_adapter(tmp_path, LOG_AND_ANSWER_X, log))
            try:
                series = evaluate(adapter, corpus, classifier_id=kind)
            finally:
                adapter.close()
            assert [c for c, _ in series.entries] == [0, 1, 2]
            save_accuracy_table([series], corpus.with_suffix(".csv"))
            tables.append(corpus.with_suffix(".csv").read_bytes())
            if kind == "subprocess":
                root = str(corpus.resolve())
                assert log.read_text().splitlines() == [
                    os.path.join(root, e.output_path) for e in evaluation_order(corpus)
                ]
        assert tables[0] == tables[1]


ANSWER_X = """\
    import sys
    for line in sys.stdin:
        print("x", flush=True)
"""


class TestEvaluateMemory:
    @pytest.mark.parametrize("kind", ["toy", "subprocess"])
    def test_peak_grows_under_800_b_per_file(self, tmp_path, monkeypatch, kind):
        """evaluate's traced peak grows by less than 800 B per corpus file."""
        # each peak holds the files waiting for the toy's decoding thread; with one at most,
        # thread timing cannot make the two peaks hold different numbers of them
        monkeypatch.setattr(harness, "READ_AHEAD_FILES", 1)
        clean = synthetic_corpus(n_per_class=8, size=16)
        reg = default_registry()

        def peak(n, tag):
            corpus = tmp_path / tag
            materialize(clean[:n], reg, 0, corpus, jobs=1)
            files = len(read_manifest(corpus))
            adapter = ToyClassifierAdapter() if kind == "toy" else child_adapter(tmp_path, ANSWER_X)
            tracemalloc.start()
            try:
                evaluate(adapter, corpus)
                return files, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                adapter.close()

        peak(12, "warm")
        (small, small_peak), (large, large_peak) = peak(12, "small"), peak(24, "large")
        assert (small, large) == (828, 1656)
        growth = (large_peak - small_peak) / (large - small)
        assert growth < 800, f"{growth:.0f} B more per corpus file"


class TestPredictionsFileAdapter:
    def test_lookup_by_relative_path(self, tmp_path, corpus):
        entries = read_manifest(corpus)
        lines = ["path,label"] + [f"{e.output_path},{e.true_label}" for e in entries]
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n")
        adapter = PredictionsFileAdapter(pred)
        series = evaluate(adapter, corpus)
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_without_corpus_dir_keys_are_relative_to_the_evaluated_corpus(
        self, tmp_path, corpus, monkeypatch
    ):
        entries = read_manifest(corpus)
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "path,label\n" + "".join(f"{e.output_path},{e.true_label}\n" for e in entries)
        )
        monkeypatch.chdir(corpus)
        series = evaluate(PredictionsFileAdapter(pred), ".")
        assert all(acc == 100.0 for acc in series.accuracies())
        series = evaluate(PredictionsFileAdapter(pred), corpus)
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_keys_are_normalized_manifest_paths(self, tmp_path, corpus):
        # the schema keys predictions by the manifest's output_path, spelled as it is there
        manifest = corpus / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace("/", "/./"))
        entries = read_manifest(corpus)
        assert all("/./" in e.output_path for e in entries)
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "path,label\n" + "".join(f"{e.output_path},{e.true_label}\n" for e in entries)
        )
        series = evaluate(PredictionsFileAdapter(pred), corpus)
        assert all(acc == 100.0 for acc in series.accuracies())

    def test_two_spellings_of_one_path_are_a_repeated_path(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("path,label\ncond_000/a.pgm,a\ncond_000/./a.pgm,a\n")
        expected = re.escape(f"{pred}: line 3: repeated path 'cond_000/./a.pgm'")
        with pytest.raises(ParameterError, match=expected):
            PredictionsFileAdapter(pred)

    def test_missing_prediction_raises(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("path,label\nknown.pgm,a\n")
        adapter = PredictionsFileAdapter(pred)
        with pytest.raises(AdapterError):
            adapter.predict_file(tmp_path / "unknown.pgm")


class TestMakeAdapter:
    def test_specs(self, tmp_path):
        assert isinstance(make_adapter("toy"), ToyClassifierAdapter)
        assert isinstance(make_adapter("subprocess:cat"), SubprocessAdapter)
        pred = tmp_path / "p.csv"
        pred.write_text("path,label\n")
        assert isinstance(make_adapter(f"file:{pred}"), PredictionsFileAdapter)
        with pytest.raises(ParameterError):
            make_adapter("quantum")
