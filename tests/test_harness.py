import builtins
import io
import re
import shlex
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from asibench import harness
from asibench.errors import AdapterError, ManifestError, ParameterError
from asibench.image import Image, netpbm_bytes
from asibench.harness import (
    PredictionsFileAdapter,
    SubprocessAdapter,
    ToyClassifierAdapter,
    evaluate,
    make_adapter,
)
from asibench.registry import MANIFEST_NAME, materialize, read_manifest
from test_registry import tiny_registry


class FixedAdapter:
    """Returns labels from a prebuilt path -> label mapping."""

    def __init__(self, labels):
        self.labels = labels

    def predict_file(self, path):
        return self.labels[str(path)]

    def predict_files(self, paths):
        return [self.predict_file(p) for p in paths]

    def close(self):
        pass


@pytest.fixture()
def corpus(tmp_path, small_corpus):
    materialize(small_corpus, tiny_registry(), 5, tmp_path)
    return tmp_path


class TestEvaluate:
    def test_oracle_adapter_scores_100(self, corpus):
        truth = {
            str(corpus / e.output_path): e.true_label for e in read_manifest(corpus)
        }
        series = evaluate(FixedAdapter(truth), corpus, classifier_id="oracle")
        assert all(acc == 100.0 for acc in series.accuracies())
        assert len(series.entries) == 3

    def test_adversary_adapter_scores_0(self, corpus):
        wrong = {
            str(corpus / e.output_path): "not-" + e.true_label
            for e in read_manifest(corpus)
        }
        series = evaluate(FixedAdapter(wrong), corpus)
        assert all(acc == 0.0 for acc in series.accuracies())

    def test_accuracy_granularity(self, corpus):
        # each group has 30 images: accuracies are multiples of 100/30
        entries = read_manifest(corpus)
        labels = {str(corpus / e.output_path): e.true_label for e in entries}
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
        labels = {str(corpus / e.output_path): "" for e in entries}
        series = evaluate(FixedAdapter(labels), corpus)
        assert all(acc == 0.0 for acc in series.accuracies())

    @pytest.mark.parametrize("extra", [-90, -1, 1])
    def test_a_label_count_other_than_the_path_count_is_an_adapter_error(self, corpus, extra):
        class Miscounting(FixedAdapter):
            def predict_files(self, paths):
                return ["dark"] * (len(paths) + extra)

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

    def test_a_prepare_that_raises_midway_leaves_no_reader_behind(self, corpus):
        class FailingPrepare(FixedAdapter):
            def prepare(self, root, files):
                next(files)
                next(files)
                raise RuntimeError("prepare failed midway")

        before = threading.active_count()
        # the traceback held here keeps evaluate's frame, and the stream in it, alive
        with pytest.raises(RuntimeError) as failure:
            evaluate(FailingPrepare({}), corpus)
        assert threading.active_count() == before
        assert str(failure.value) == "prepare failed midway"


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

    def test_a_second_spelling_of_a_path_is_answered_from_the_prepared_features(
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

    def test_predict_file_reads_a_path_it_has_not_seen(self, corpus):
        adapter = ToyClassifierAdapter()
        evaluate(adapter, corpus)
        entries = read_manifest(corpus)
        prepared = [adapter.predict_file(corpus.resolve() / e.output_path) for e in entries]
        from_disk = [adapter.predict_file(str(corpus / e.output_path)) for e in entries]
        assert prepared == from_disk

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


def predict_within(adapter, paths, seconds=30):
    """Run predict_files in a thread, so that a deadlock fails instead of hanging."""
    outcome = []

    def run():
        try:
            outcome.append(adapter.predict_files(paths))
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
            adapter.predict_file(tmp_path / "x.pgm")
        adapter.close()
        assert adapter._proc.stdin.closed and adapter._proc.stdout.closed

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
        paths = [f"/{'d' * 4000}/img_{i:04d}.pgm" for i in range(192)]
        assert predict_within(adapter, paths) == paths

    def test_an_undecodable_answer_kills_the_child_at_once(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys
            for i, line in enumerate(sys.stdin.buffer):
                sys.stdout.buffer.write(b"\\xff\\n" if i == 0 else line)
                sys.stdout.flush()
        """)
        # unread, the long echoes fill the answer pipe, and the child stops reading
        paths = [f"/{'d' * 4000}/img_{i:04d}.pgm" for i in range(192)]
        start = time.monotonic()
        error = predict_within(adapter, paths)
        assert time.monotonic() - start < harness.CLOSE_WAIT_S / 4
        assert isinstance(error, AdapterError)
        assert f"undecodable answer for {paths[0]}" in str(error)

    def test_a_path_that_cannot_be_sent_is_an_adapter_error(self, tmp_path):
        adapter = child_adapter(tmp_path, ECHO)
        # a lone surrogate, as os.fsdecode gives for undecodable bytes
        paths = [f"/img_{i}.pgm" for i in range(3)] + ["/img_\udcff.pgm", "/img_4.pgm"]
        error = predict_within(adapter, paths)
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
        """)
        paths = [f"/img_{i:04d}.pgm" for i in range(400)]
        assert predict_within(adapter, paths, seconds=10) == paths

    def test_a_path_that_cannot_be_sent_is_refused_before_any_path_is_sent(self, tmp_path):
        received = tmp_path / "received.bin"
        adapter = child_adapter(tmp_path, f"""\
            import sys
            with open({str(received)!r}, "wb") as log:
                for line in sys.stdin.buffer:
                    log.write(line)
                    print("x", flush=True)
        """)
        paths = ["/img_0.pgm", "/img_\udcff.pgm", "/img_2.pgm"]
        error = predict_within(adapter, paths)
        assert isinstance(error, AdapterError) and "sending a path failed" in str(error)
        # a child that was sent nothing is killed at close, maybe before it made its log
        assert not received.exists() or received.read_bytes() == b""

    @pytest.mark.parametrize("line_break", ["\n", "\r"])
    def test_a_path_with_a_line_break_is_refused_before_any_path_is_sent(
        self, tmp_path, small_corpus, line_break
    ):
        # the oracle's answers would shift by one, and the corpus would score wrong
        corpus = tmp_path / "corpus"
        clean = [(f"dark{line_break}x_00.pgm", "dark", small_corpus[0][2])] + small_corpus[10:12]
        materialize(clean, tiny_registry(), 5, corpus)
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
        assert seen == [corpus.resolve() / e.output_path for e in evaluation_order(corpus)]

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
            assert adapter.predict_file(tmp_path / "1.pgm") == "a"
            with pytest.raises(AdapterError):
                adapter.predict_file(tmp_path / "2.pgm")
            adapter._proc.wait(timeout=10)
            with pytest.raises(AdapterError, match="exited with status 0"):
                adapter.predict_files([tmp_path / "3.pgm"])
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
        assert adapter.predict_files([tmp_path / "1.pgm"]) == ["a"]
        proc = adapter._proc
        with pytest.raises(TimeoutError, match="killed"):
            adapter.close()
        assert proc.returncode is not None

    @pytest.mark.parametrize("lingers", [False, True])
    def test_close_leaves_no_thread_behind(self, tmp_path, monkeypatch, lingers):
        # the timer that bounds close's wait ends with it, whether or not it fired
        monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.2)
        linger = "    import time; time.sleep(60)\n" if lingers else ""
        adapter = child_adapter(tmp_path, ECHO + linger)
        assert adapter.predict_files([tmp_path / "1.pgm"]) == [str(tmp_path / "1.pgm")]
        before = threading.active_count()
        if lingers:
            with pytest.raises(TimeoutError, match="killed"):
                adapter.close()
        else:
            adapter.close()
        assert threading.active_count() == before
        assert adapter._proc.returncode is not None

    def test_close_kills_a_child_that_was_sent_nothing_at_once(self, tmp_path):
        adapter = child_adapter(tmp_path, """\
            import sys, time
            time.sleep(30)
            sys.stdin.readline()
        """)
        adapter.start()
        proc = adapter._proc
        begun = time.monotonic()
        adapter.close()  # no TimeoutError: the child had nothing to finish
        assert time.monotonic() - begun < harness.CLOSE_WAIT_S / 4
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


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
