"""Run one workload of the asibench benchmark and print its metrics.

    python3 perfbench/run.py --workload rot224_toy --seed 1 --seconds 50 --trace 0

From the root of a source checkout. The program runs in a child process
(runner.py) that calls `asibench.cli.main` once per command, in the order a
user runs them: perturb -> evaluate -> score -> report / compare -> surface.
One pass is that whole chain; after an untimed warm-up pass, timed passes
run until --seconds are spent, each into an output tree that was removed and
flushed to disk, untimed, before it (see README.md for why). Every command is
one operation; it fails when it exits non-zero or when its output fails a
check (checks.py). The last line of stdout is one JSON object: correct,
attempted, failed and metrics, the end-to-end ones with --trace 0 and the
per-module ones with --trace 1.
Workload files live under .perfbench/work/ and are removed at the end; spans
of a traced run go to .perfbench/trace/<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import workloads
from workloads import Inputs, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUEST_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "perturb_img_per_s": "img/s",
    "evaluate_img_per_s": "img/s",
    "analysis_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Runner:
    """The child process that runs the program; see runner.py for its protocol."""

    def __init__(self, src: Path, trace_file: Path | None):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(src), str(trace_file or "")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buffer = b""

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        fd, deadline = self.proc.stdout.fileno(), time.monotonic() + REQUEST_TIMEOUT_S
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"the program gave no answer within {REQUEST_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise RuntimeError(f"the runner exited with code {self.proc.wait()}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Step:
    stage: str  # perturb, evaluate, concat or analysis
    request: dict
    pipeline: bool  # part of the one chain from clean corpus to last surface file
    check: Callable[[dict], list[str]] | None = None  # given the step's result


class Checker:
    """Holds what one run expects; each output that passed is pinned by its sha256, so
    the same output later in the run only has to be byte-identical."""

    def __init__(self, w: Workload, inputs: Inputs, seed: int):
        self.w, self.inputs, self.seed = w, inputs, seed
        self.digests: dict[str, str] = {}
        self.cells = None

    def accuracies(self) -> dict[str, list[float]]:
        n = len(self.inputs.clean)
        return {cid: [100.0 * k / n for k in ks] for cid, ks in self.inputs.correct.items()}

    def corpus(self, corpus: Path) -> list[str]:
        first = "corpus" not in self.digests
        problems, files = checks.check_corpus(corpus, self.inputs.clean, self.seed, first)
        digest = checks.sha256((corpus / "manifest.csv").read_bytes())
        if problems:
            return problems
        if first:
            self.digests["corpus"] = digest
            if self.w.adapter == "toy":
                correct = checks.toy_correct(files, self.inputs.clean)
                if correct[0] != len(self.inputs.clean):
                    return [f"the toy reference gets {correct[0]} of the clean group right, "
                            "not all: the workload's classes do not separate"]
                self.inputs.correct["toy"] = correct
        elif digest != self.digests["corpus"]:
            return [f"{corpus}: manifest differs from the first corpus of this run"]
        return []

    def pinned(self, key: str, path: Path, full_check: Callable[[], list[str]]) -> list[str]:
        digest = checks.sha256(path.read_bytes())
        if key in self.digests:
            return [] if digest == self.digests[key] else [
                f"{path}: differs from the same output earlier in this run"]
        problems = full_check()
        if not problems:
            self.digests[key] = digest
        return problems

    def surface_csv(self, csv_path: Path, script: Path) -> list[str]:
        def full():
            problems, self.cells = checks.check_surface_csv(csv_path, script, self.w.resolution)
            return problems
        return self.pinned("surface.csv", csv_path, full) + self.pinned(
            "plot.py", script, lambda: [])

    def surface_json(self, json_path: Path) -> list[str]:
        if self.cells is None and "surface.json" not in self.digests:
            return [f"{json_path}: no checked CSV grid to compare with"]
        return self.pinned("surface.json", json_path, lambda: checks.check_surface_json(
            json_path, self.cells, self.w.resolution))

    def compare(self, result: dict, a: str, b: str, reference: bool) -> list[str]:
        if reference:
            table = (self.inputs.reference[a], self.inputs.reference[b])
            exact = tuple((mean - cv) / (mean + cv) for cv, mean in table)
        else:
            acc = self.accuracies()
            rows = [checks.score_strings(acc[a]), checks.score_strings(acc[b])]
            table = tuple((float(cv), float(mean)) for cv, mean, _ in rows)
            exact = (checks.score(acc[a])[2], checks.score(acc[b])[2])
        return checks.check_compare(result["out"], (a, b), table, exact)


def cli(*args) -> dict:
    return {"cli": [str(a) for a in args]}


def plan_pass(w: Workload, inputs: Inputs, seed: int, d: Path, checker: Checker) -> list[Step]:
    """perturb -> evaluate each classifier -> join tables -> analysis round 0 form the
    pipeline; extra perturb runs and analysis rounds follow it."""
    n = len(inputs.clean)

    def perturb(out: Path, pipeline: bool) -> Step:
        return Step("perturb", cli("perturb", "--corpus", inputs.clean_dir, "--seed", seed,
                                   "--out", out, "--jobs", w.jobs), pipeline,
                    lambda r: checker.corpus(out))

    corpus = d / "corpus"

    def evaluate(table: Path, cid: str, spec: str, pipeline: bool) -> Step:
        return Step("evaluate", cli("evaluate", "--corpus", corpus, "--adapter", spec,
                                    "--classifier-id", cid, "--out", table), pipeline,
                    lambda r: checks.check_accuracy_table(table, cid, inputs.correct[cid], n))

    steps = [perturb(corpus, True)]
    tables = [d / f"acc_{cid}.csv" for cid, _ in inputs.evaluations]
    steps += [evaluate(table, cid, spec, True)
              for table, (cid, spec) in zip(tables, inputs.evaluations)]
    acc = d / "acc.csv"
    steps.append(Step("concat", {"concat": [str(t) for t in tables], "out": str(acc)}, True))
    rounds = [analysis_round(w, inputs, d / f"analysis_{r}", acc, checker, r == 0)
              for r in range(w.analysis_reps)]
    extra = [perturb(d / f"corpus_{k}", False) for k in range(1, w.perturb_reps)]
    extra += [evaluate(d / f"acc_{k}_{cid}.csv", cid, spec, False)
              for k in range(1, w.evaluate_reps) for cid, spec in inputs.evaluations]
    return steps + rounds[0] + extra + [s for r in rounds[1:] for s in r]


def analysis_round(w: Workload, inputs: Inputs, d: Path, acc: Path, checker: Checker,
                   pipeline: bool) -> list[Step]:
    d.mkdir(exist_ok=True)
    scores, report = d / "scores.csv", d / "report.txt"
    grid_csv, grid_json, script = d / "surface.csv", d / "surface.json", d / "plot.py"
    expected = checker.accuracies
    steps = [
        Step("analysis", cli("score", "--table", acc, "--out", scores), pipeline,
             lambda r: checker.pinned("scores", scores, lambda: checks.check_score_table(
                 scores, expected()))),
        Step("analysis", cli("report", "--scores", scores, "--out", report), pipeline,
             lambda r: checker.pinned("report", report, lambda: checks.check_report(
                 report, expected()))),
    ]
    for a, b, reference in inputs.compares:
        source = ("--reference",) if reference else ("--scores", scores)
        steps.append(Step("analysis", cli("compare", *source, a, b), pipeline,
                          lambda r, a=a, b=b, ref=reference: checker.compare(r, a, b, ref)))
    steps += [
        Step("analysis", cli("surface", "--out", grid_csv, "--resolution", w.resolution,
                             "--plot-script", script), pipeline,
             lambda r: checker.surface_csv(grid_csv, script)),
        Step("analysis", cli("surface", "--out", grid_json, "--format", "json",
                             "--resolution", w.resolution), pipeline,
             lambda r: checker.surface_json(grid_json)),
    ]
    return steps


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, step: Step, result: dict) -> None:
        name = step.request["cli"][0] if "cli" in step.request else "concat"
        if result["code"] != 0:
            log(f"{name} exited {result['code']}: {result['err'].strip()[-500:]}")
        if "cli" not in step.request:  # joining tables is the benchmark's, not an operation
            return
        self.attempted += 1
        if result["code"] != 0:
            self.failed += 1
            return
        if step.check is None:
            return
        try:
            problems = step.check(result)
        except Exception:  # an output the check cannot even read is a wrong output
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.correct = False
            for p in problems[:5]:
                log(f"check failed: {p}")


def run_pass(runner: Runner, steps: list[Step], tally: Tally) -> dict:
    reply = runner.request({"op": "pass", "steps": [s.request for s in steps]})
    results = reply["results"]
    for step, result in zip(steps, results):
        tally.record(step, result)
    spent = lambda stage: sum(r["t1"] - r["t0"] for s, r in zip(steps, results)
                              if s.stage == stage)
    chain = [r for s, r in zip(steps, results) if s.pipeline]
    return {
        "perturb_s": spent("perturb"),
        "evaluate_s": spent("evaluate"),
        "analysis_s": spent("analysis"),
        "pipeline_s": chain[-1]["t1"] - chain[0]["t0"],
        "layers": reply.get("layers"),
    }


def golden_problems(w: Workload, golden: Path) -> list[str]:
    digest = checks.sha256((golden / "manifest.csv").read_bytes())
    if digest != w.golden_digest:
        return [f"{w.name}: golden manifest sha256 {digest}, pinned {w.golden_digest}"]
    return []


def fresh_dir(d: Path) -> Path:
    """Remove the previous pass's outputs and write every dirty page to disk, untimed,
    so that each pass creates its files anew with no writeback in flight (README.md)."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    os.sync()
    return d


def import_command(src: Path) -> list[str]:
    """A fresh interpreter that imports asibench.cli: what every CLI command pays first."""
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(src)!r}); import asibench.cli"]


def time_setup(command: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(command, check=True)
    return time.perf_counter() - t0


def trimmed_mean(values: list[float]) -> float:
    """Mean over the timed passes without the fastest and the slowest one (when there
    are five or more): it keeps every pass's share of a slow spell of the host, which a
    median drops, and no single stalled pass can move it far."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return math.fsum(values) / len(values)


def layer_metrics(layers: dict, evaluates: int, corpus_bytes: int) -> dict[str, float]:
    """One pass's per-module figures; see README.md for what each should move."""
    spans = layers["spans"]
    get = lambda name, field: spans.get(name, {}).get(field, 0)
    m = {
        "image.read_netpbm.s": get("image.read_netpbm", "s"),
        "image.read_netpbm.calls": get("image.read_netpbm", "calls"),
        "image.read_netpbm.bytes": get("image.read_netpbm", "bytes"),
        "image.netpbm_bytes.s": get("image.netpbm_bytes", "s"),
        "perturb.rotate.s": get("perturb.rotate", "s"),
        "perturb.rotate.calls": get("perturb.rotate", "calls"),
        "perturb.apply_gaussian_noise.s": get("perturb.apply_gaussian_noise", "s"),
        "perturb.apply_salt_pepper.s": get("perturb.apply_salt_pepper", "s"),
        "perturb.derive_seed.s": get("perturb.derive_seed", "s"),
        "perturb.derive_seed.calls": get("perturb.derive_seed", "calls"),
        "registry.materialize.self_s": get("registry.materialize", "self_s"),
        "registry.bytes_written": (get("registry.materialize", "bytes")
                                   + get("image.netpbm_bytes", "bytes")),
        "registry.verify_manifest.s": get("registry.verify_manifest", "s"),
        "registry.sha256_file.bytes": get("registry.sha256_file", "bytes"),
        "registry.read_manifest.s": get("registry.read_manifest", "s"),
        "harness.predict.s": get("harness.predict", "s"),
        "harness.predict.calls": get("harness.predict", "calls"),
        "harness.fit.s": get("harness.fit", "s"),
        "harness.evaluate.self_s": get("harness.evaluate", "self_s"),
        "harness.adapter_spawns": layers["spawns"] / evaluates,
        "harness.load_accuracy_table.s": get("harness.load_accuracy_table", "s"),
        "harness.reads_per_image": layers["evaluate_read_bytes"] / (corpus_bytes * evaluates),
        "metrics.score.s": get("metrics.score", "s"),
        "metrics.score.calls": get("metrics.score", "calls"),
        "metrics.compare.s": get("metrics.compare", "s"),
        "metrics.compare.calls": get("metrics.compare", "calls"),
        "surface.surface_grid.s": get("surface.surface_grid", "s"),
        "surface.emit_grid.s": get("surface.emit_grid", "s"),
    }
    for command in ("perturb", "evaluate", "score", "report", "compare", "surface"):
        m[f"cli.{command}.s"] = get(f"cli.{command}", "s")
    m["cli.self_s"] = sum(t["self_s"] for name, t in spans.items() if name.startswith("cli."))
    return m


def run(w: Workload, seed: int, seconds: float, trace: bool, src: Path, work: Path,
        trace_file: Path | None = None, tamper: Callable[[Inputs], None] | None = None) -> dict:
    """Set up, run passes for `seconds` (at least one) and return the result object.

    `tamper`, for the self-tests, may alter the inputs after they are made.
    """
    log(f"workload files in {work} (removed at the end)")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(w, seed, work, src)
        if tamper is not None:
            tamper(inputs)
        setup_command = import_command(src)
        subprocess.run(setup_command, check=True)  # byte-compiles a fresh checkout
        setup = []
        checker, tally, passes = Checker(w, inputs, seed), Tally(), []
        runner = Runner(src, trace_file if trace else None)
        try:
            golden = work / "golden"
            workloads.write_clean(work / "golden_clean", workloads.golden_corpus(w))
            step = Step("golden", cli("perturb", "--corpus", work / "golden_clean", "--seed",
                                      workloads.GOLDEN_SEED, "--out", golden, "--jobs", w.jobs),
                        True, lambda r: golden_problems(w, golden))
            run_pass(runner, [step], tally)
            d = work / "pass"
            run_pass(runner, plan_pass(w, inputs, seed, fresh_dir(d), checker), tally)  # warm-up
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                steps = plan_pass(w, inputs, seed, fresh_dir(d), checker)
                # one set-up sample per pass spreads them over the run, as the passes are
                setup.append(time_setup(setup_command))
                passes.append(run_pass(runner, steps, tally))
                p = passes[-1]
                log(f"pass {len(passes) - 1}: perturb {p['perturb_s']:.3f} s, evaluate "
                    f"{p['evaluate_s']:.3f} s, analysis {p['analysis_s']:.3f} s, pipeline "
                    f"{p['pipeline_s']:.3f} s")
                now = time.monotonic()
                if now - start + (now - t0) > seconds:
                    break
            final = runner.request({"op": "finish"})
        finally:
            runner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"{len(passes)} passes; removed {work}")

    images = 69 * len(inputs.clean)
    central = lambda key: trimmed_mean([p[key] for p in passes])
    if trace:
        # every corpus file has its clean input's size: same shape, same header
        corpus_bytes = 69 * sum(len(data) for _, _, data in inputs.clean)
        per_pass = [layer_metrics(p["layers"], w.evaluate_reps * len(inputs.evaluations),
                                  corpus_bytes) for p in passes]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["harness.predict.p50_us"], metrics["harness.predict.p99_us"] = final["predict_us"]
        metrics["trace.pipeline_s"] = central("pipeline_s")
        units = layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "perturb_img_per_s": w.perturb_reps * images / central("perturb_s"),
            "evaluate_img_per_s": (w.evaluate_reps * len(inputs.evaluations) * images
                                   / central("evaluate_s")),
            "analysis_s": central("analysis_s") / w.analysis_reps,
            "pipeline_s": central("pipeline_s"),
            "peak_rss_mb": final["peak_rss_kib"] / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes", "p50_us": "us",
               "p99_us": "us", "adapter_spawns": "count", "bytes_written": "bytes",
               "reads_per_image": "ratio", "pipeline_s": "s"}


def layer_units() -> dict[str, str]:
    names = list(layer_metrics({"spans": {}, "spawns": 0, "evaluate_read_bytes": 0}, 1, 1))
    names += ["harness.predict.p50_us", "harness.predict.p99_us", "trace.pipeline_s"]
    return {name: LAYER_UNITS[name.rsplit(".", 1)[1]] for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "asibench" / "cli.py").is_file():
        log(f"no program source at {src}: run from the root of a source checkout")
        return 2
    w = workloads.WORKLOADS[args.workload]
    result = run(w, args.seed, args.seconds, bool(args.trace), src,
                 ROOT / ".perfbench" / "work" / f"{w.name}-{os.getpid()}",
                 ROOT / ".perfbench" / "trace" / f"{w.name}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
