import builtins
import io
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
    AccuracySeries,
    PredictionsFileAdapter,
    SubprocessAdapter,
    ToyClassifierAdapter,
    evaluate,
    load_accuracy_table,
    make_adapter,
    save_accuracy_table,
    load_accuracy_table_file,
)
from asibench.registry import materialize, read_manifest
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


class TestAccuracySeries:
    def test_valid(self):
        s = AccuracySeries("m", ((0, 100.0), (1, 50.0)))
        assert s.accuracies() == [100.0, 50.0]

    def test_rejects_unsorted_or_duplicate_ids(self):
        with pytest.raises(ParameterError):
            AccuracySeries("m", ((1, 50.0), (0, 100.0)))
        with pytest.raises(ParameterError):
            AccuracySeries("m", ((0, 50.0), (0, 100.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            AccuracySeries("m", ((0, 104.2),))


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


class TestAccuracyTable:
    def test_round_trip(self, tmp_path):
        series = [
            AccuracySeries("b", ((0, 100.0), (1, 87.5))),
            AccuracySeries("a", ((0, 90.0),)),
        ]
        path = tmp_path / "table.csv"
        save_accuracy_table(series, path)
        back = load_accuracy_table_file(path)
        assert [s.classifier_id for s in back] == ["a", "b"]
        assert dict(back[1].entries) == {0: 100.0, 1: 87.5}

    def test_two_classifiers_69_conditions(self):
        lines = ["classifier,condition,accuracy"]
        for clf in ("m1", "m2"):
            for c in range(69):
                lines.append(f"{clf},{c},85.0")
        result = load_accuracy_table("\n".join(lines))
        assert len(result) == 2
        assert all(len(s.entries) == 69 for s in result)

    def test_out_of_range_accuracy_names_row(self):
        text = "classifier,condition,accuracy\nm,0,104.2\n"
        with pytest.raises(ParameterError, match="104.2"):
            load_accuracy_table(text)

    def test_duplicate_pair_rejected(self):
        text = "classifier,condition,accuracy\nm,0,50\nm,0,60\n"
        with pytest.raises(ParameterError, match="duplicate"):
            load_accuracy_table(text)

    def test_empty_document_gives_empty_list(self):
        assert load_accuracy_table("") == []
