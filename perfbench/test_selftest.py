"""Self-tests of the benchmark: reduced workloads run clean, and every check fires
on a deliberately wrong output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
from asibench.cli import main as asibench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reduced(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, per_class=1, perturb_reps=1, evaluate_reps=1, analysis_reps=1,
                               classifiers=min(w.classifiers, 3))


def cli(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        asibench.main([str(a) for a in args], standalone_mode=False)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_runs_clean(name, tmp_path):
    result = run.run(reduced(name), 3, 0, False, SRC, tmp_path / "work")
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_traced_run_reports_every_layer(tmp_path):
    trace_file = tmp_path / "trace.csv"
    result = run.run(reduced("rgb32_subproc"), 3, 0, True, SRC, tmp_path / "work", trace_file)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["harness.adapter_spawns"] == 1.0
    assert m["harness.reads_per_image"] == 1.0
    assert m["harness.predict.calls"] == 2 * 69 * 4
    assert trace_file.read_text().startswith("pass,span,command,name,")


def test_a_wrong_answer_in_a_run_counts_as_failed(tmp_path):
    def flip(inputs):
        cid, spec = inputs.evaluations[0]
        name = inputs.clean[0][0]
        inputs.evaluations[0] = (cid, f"{spec} --flip cond_000/{name}")

    result = run.run(reduced("rgb32_subproc"), 3, 0, False, SRC, tmp_path / "work", tamper=flip)
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small RGB corpus made by the program, with its clean inputs."""
    d = tmp_path_factory.mktemp("corpus")
    clean = workloads.clean_corpus(reduced("rgb32_subproc"), 5)
    workloads.write_clean(d / "clean", clean)
    cli("perturb", "--corpus", d / "clean", "--seed", 5, "--out", d / "out")
    return d / "out", clean


def test_corpus_checks_pass_on_the_program_output(corpus):
    out, clean = corpus
    problems, files = checks.check_corpus(out, clean, 5, True)
    assert problems == []
    assert len(files) == 69 * len(clean)


def test_flipped_byte_fails_the_checksum(corpus, tmp_path):
    out, clean = corpus
    copy = tmp_path / "out"
    copy.mkdir()
    for p in out.rglob("*"):
        if p.is_file():
            target = copy / p.relative_to(out)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(p.read_bytes())
    victim = copy / f"cond_030/{clean[1][0]}"
    data = bytearray(victim.read_bytes())
    data[-7] ^= 0x01
    victim.write_bytes(bytes(data))
    problems, _ = checks.check_corpus(copy, clean, 5, True)
    assert any("sha256" in p for p in problems)


def _tampered(corpus, cid: int, change) -> list[str]:
    out, clean = corpus
    _, files = checks.check_corpus(out, clean, 5, False)
    where = f"cond_{cid:03d}/{clean[0][0]}"
    pixels = checks.decode(files[where]).copy()
    change(pixels)
    files[where] = checks.encode(pixels)
    return checks.check_images(files, clean)


def test_clean_group_must_be_byte_identical(corpus):
    problems = _tampered(corpus, 0, lambda px: px.__setitem__((0, 0, 0), px[0, 0, 0] + 1))
    assert any("byte-identical" in p for p in problems)


def test_salt_pepper_count_is_exact(corpus):
    def one_more_hit(px):
        kept = np.argwhere(np.all((px != 0) & (px != 255), axis=2))[0]
        px[kept[0], kept[1], :] = 0

    problems = _tampered(corpus, 1, one_more_hit)
    assert any("pixels at 0 or 255" in p for p in problems)


def test_rotation_matches_within_one_grey_level(corpus):
    problems = _tampered(corpus, 9, lambda px: px.__setitem__((16, 16, 1), px[16, 16, 1] ^ 0x08))
    assert any("reference rotation" in p for p in problems)


def test_gaussian_spread_is_checked(corpus):
    out, clean = corpus
    _, files = checks.check_corpus(out, clean, 5, False)
    for name, _, data in clean:  # noise with no spread at all
        files[f"cond_006/{name}"] = data
    problems = checks.check_images(files, clean)
    assert any("GA0.2: residual RMS" in p for p in problems)


def test_responder_extra_wrong_answer_fails_the_accuracies(corpus, tmp_path):
    out, clean = corpus
    command = [sys.executable, str(run.HERE / "responder.py"), "--seed", "5", "--salt", "0"]
    expected = [sum(not workloads.responder.is_miss(5, 0, c, name) for name, _, _ in clean)
                for c, _, _ in checks.CONDITIONS]
    for flip, ok in ((None, True), (f"cond_002/{clean[0][0]}", False)):
        spec = "subprocess:" + shlex.join(command + (["--flip", flip] if flip else []))
        table = tmp_path / "acc.csv"
        cli("evaluate", "--corpus", out, "--adapter", spec, "--classifier-id", "r", "--out", table)
        assert (checks.check_accuracy_table(table, "r", expected, len(clean)) == []) == ok


def test_predictions_file_with_other_accuracies_fails(tmp_path):
    w = reduced("leaderboard_file")
    inputs = workloads.make_inputs(w, 9, tmp_path, SRC)
    cli("perturb", "--corpus", inputs.clean_dir, "--seed", 9, "--out", tmp_path / "out")
    cid, spec = inputs.evaluations[1]
    predictions = Path(spec.removeprefix("file:"))
    lines = predictions.read_text().splitlines()
    lines = [line.replace(",c", ",none", 1) if line.startswith("cond_007/") else line
             for line in lines]
    predictions.write_text("\n".join(lines) + "\n")
    table = tmp_path / "acc.csv"
    cli("evaluate", "--corpus", tmp_path / "out", "--adapter", spec, "--classifier-id", cid,
        "--out", table)
    problems = checks.check_accuracy_table(table, cid, inputs.correct[cid], len(inputs.clean))
    assert any("differ from the expected" in p for p in problems)


def test_toy_accuracies_are_recomputed(corpus, tmp_path):
    out, clean = corpus
    _, files = checks.check_corpus(out, clean, 5, False)
    expected = checks.toy_correct(files, clean)
    assert expected[0] == len(clean)
    table = tmp_path / "acc.csv"
    cli("evaluate", "--corpus", out, "--adapter", "toy", "--classifier-id", "toy", "--out", table)
    assert checks.check_accuracy_table(table, "toy", expected, len(clean)) == []
    wrong = expected[:12] + [expected[12] ^ 1] + expected[13:]
    assert checks.check_accuracy_table(table, "toy", wrong, len(clean)) != []


def _score_files(tmp_path):
    accuracies = {"a": [100.0, 75.0, 50.0, 100.0], "b": [100.0, 100.0, 75.0, 75.0]}
    rows = "".join(f"{cid},{c},{acc!r}\n" for cid, accs in accuracies.items()
                   for c, acc in enumerate(accs))
    (tmp_path / "acc.csv").write_text("classifier,condition,accuracy\n" + rows)
    cli("score", "--table", tmp_path / "acc.csv", "--out", tmp_path / "scores.csv")
    cli("report", "--scores", tmp_path / "scores.csv", "--out", tmp_path / "report.txt")
    return accuracies


def test_score_and_report_are_checked(tmp_path):
    accuracies = _score_files(tmp_path)
    assert checks.check_score_table(tmp_path / "scores.csv", accuracies) == []
    assert checks.check_report(tmp_path / "report.txt", accuracies) == []
    off = {"a": accuracies["a"], "b": [100.0, 100.0, 75.0, 50.0]}
    assert checks.check_score_table(tmp_path / "scores.csv", off) != []
    assert checks.check_report(tmp_path / "report.txt", off) != []


def test_compare_verdict_must_name_the_higher_asi(tmp_path):
    accuracies = _score_files(tmp_path)
    out = cli("compare", "--scores", tmp_path / "scores.csv", "a", "b")
    score = {cid: checks.score(acc) for cid, acc in accuracies.items()}
    table = tuple((float(f"{score[c][1]:.3f}"), float(f"{score[c][0]:.3f}")) for c in "ab")
    exact = (score["a"][2], score["b"][2])
    assert checks.check_compare(out, ("a", "b"), table, exact) == []
    lines = out.splitlines()
    lines[2] = "verdict: a preferred (ASI 0.999 > 0.001)"
    assert checks.check_compare("\n".join(lines), ("a", "b"), table, exact) != []


def test_surface_cells_and_formats_are_checked(tmp_path):
    csv_path, json_path, script = (tmp_path / "s.csv", tmp_path / "s.json", tmp_path / "p.py")
    cli("surface", "--out", csv_path, "--resolution", 11, "--plot-script", script)
    cli("surface", "--out", json_path, "--format", "json", "--resolution", 11)
    problems, cells = checks.check_surface_csv(csv_path, script, 11)
    assert problems == [] and checks.check_surface_json(json_path, cells, 11) == []
    doc = json.loads(json_path.read_text())
    doc["values"][3][4] += 1e-6
    json_path.write_text(json.dumps(doc))
    assert checks.check_surface_json(json_path, cells, 11) != []
    lines = csv_path.read_text().splitlines()
    mean, cv, _ = lines[5].split(",")
    lines[5] = f"{mean},{cv},0.5"
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check_surface_csv(csv_path, script, 11)[0] != []


def test_golden_digest_is_pinned(tmp_path):
    w = workloads.WORKLOADS["leaderboard_file"]
    workloads.write_clean(tmp_path / "clean", workloads.golden_corpus(w))
    cli("perturb", "--corpus", tmp_path / "clean", "--seed", workloads.GOLDEN_SEED,
        "--out", tmp_path / "golden")
    assert run.golden_problems(w, tmp_path / "golden") == []
    other = dataclasses.replace(w, golden_digest="0" * 64)
    assert run.golden_problems(other, tmp_path / "golden") != []
