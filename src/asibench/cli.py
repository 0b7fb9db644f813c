"""Command-line entry point.

Subcommands: perturb (materialize a corpus), evaluate (run an adapter),
score (accuracy table -> score table), compare (two scored classifiers),
surface (grid emission), report (rendered score table). All randomness comes
from the explicit --seed flag. Exit codes: 0 success, 1 validation error,
2 I/O error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click

# harness, registry and image load numpy: the commands that use them import them
# when they run, so that --help, score, report and compare start without it
from . import metrics, surface, tables
from .errors import BenchmarkError, ParameterError

EXIT_VALIDATION = 1
EXIT_IO = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Map toolkit and I/O errors to the documented exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BenchmarkError, ValueError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        except MemoryError as exc:  # e.g. a surface grid too large to allocate
            _fail(EXIT_VALIDATION, str(exc) or "out of memory")
        except OSError as exc:
            _fail(EXIT_IO, str(exc))

    return wrapper


def _read_clean_corpus(corpus_dir: Path, limit: int | None):
    """The first ``limit`` rows of labels.csv (filename,label) in a clean corpus directory.

    Each item is (filename, label, path). No listed file is opened here:
    ``materialize`` checks every name and file before it writes anything.
    """
    labels_path = corpus_dir / "labels.csv"
    if not corpus_dir.is_dir():
        raise ParameterError(f"clean corpus directory not found: {corpus_dir}")
    if not labels_path.is_file():
        raise ParameterError(f"labels file not found: {labels_path}")
    clean = []
    with open(labels_path, newline="", encoding="utf-8") as fh:
        for where, row in tables.rows(fh, ["filename", "label"], labels_path, ParameterError):
            if not row["label"]:
                raise ParameterError(f"{where}: missing label")
            clean.append((row["filename"], row["label"], str(corpus_dir / row["filename"])))
            if len(clean) == limit:
                break
    return clean


def _write_run_record(out_dir: Path, config: dict) -> None:
    (out_dir / "run.json").write_text(
        json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


@click.group()
def main():
    """Robustness benchmarking: perturbed test sets and accuracy-stability scores."""


@main.command("perturb")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(path_type=Path),
              help="Clean corpus directory (PGM/PPM images + labels.csv).")
@click.option("--registry", "registry_path", type=click.Path(path_type=Path), default=None,
              help="Registry document; defaults to the shipped 69-condition catalog.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--group-size", type=int, default=None,
              help="Use the first N clean images of labels.csv in every group.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Upper bound on worker processes; output bytes do not depend on it.")
@_guard
def cmd_perturb(corpus_dir, registry_path, seed, group_size, out_dir, jobs):
    """Materialize one image group per registry condition."""
    import numpy

    from . import registry

    if group_size is not None and group_size < 1:
        raise ParameterError(f"group size must be >= 1, got {group_size}")
    if registry_path is None:
        reg = registry.default_registry()
    else:
        reg = registry.load_registry_file(registry_path)
    clean = _read_clean_corpus(corpus_dir, group_size)
    registry.materialize(clean, reg, seed, out_dir, jobs=jobs)
    _write_run_record(out_dir, {
        "command": "perturb",
        "corpus": str(corpus_dir),
        "registry": str(registry_path) if registry_path else "builtin",
        "seed": seed,
        "group_size": len(clean),
        "jobs": jobs,
        "numpy": numpy.__version__,  # the noise kernels draw through its Generator methods
    })
    groups = len(reg.conditions)
    click.echo(f"wrote {len(clean) * groups} images in {groups} groups to {out_dir}")


@main.command("evaluate")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(path_type=Path),
              help="Materialized corpus directory (with manifest.csv).")
@click.option("--adapter", "adapter_spec", default="toy", show_default=True,
              help="toy | subprocess:CMD | file:PATH")
@click.option("--classifier-id", default="classifier", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_evaluate(corpus_dir, adapter_spec, classifier_id, out_path):
    """Run a classifier adapter over a corpus; write an accuracy table."""
    from . import harness

    adapter = harness.make_adapter(adapter_spec)
    series = harness.evaluate(adapter, corpus_dir, classifier_id=classifier_id)
    metrics.save_accuracy_table([series], out_path)
    click.echo(f"wrote accuracy table for {classifier_id} ({len(series.entries)} conditions)")


SCORE_HEADER = "classifier,cv,mean,asi"


def _write_score_table(rows, out):
    # quoted as the accuracy table quotes it, so any id reads back as one cell; csv
    # quotes only the characters of the line terminator, so a bare \r quotes its row
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(SCORE_HEADER.split(","))
    for s in rows:
        (quoted if "\r" in s.classifier_id else writer).writerow([
            s.classifier_id, f"{s.cv_percent:.3f}", f"{s.mean_accuracy_percent:.3f}", f"{s.asi:.3f}"
        ])


@main.command("score")
@click.option("--table", "table_path", required=True, type=click.Path(path_type=Path),
              help="Accuracy table CSV (classifier,condition,accuracy).")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Score table destination; stdout if omitted.")
@_guard
def cmd_score(table_path, out_path):
    """Score each classifier in an accuracy table (mean, CV, index)."""
    series_list = metrics.load_accuracy_table(table_path)
    for s in series_list:
        if max(s.accuracies()) == 0.0:
            raise ParameterError(f"{table_path}: classifier {s.classifier_id!r}: CV is undefined "
                                 "for zero mean (every accuracy is 0)")
    for s in series_list:
        if max(s.accuracies()) <= 1.0:
            click.echo(f"warning: classifier {s.classifier_id!r}: every accuracy is <= 1, "
                       "but accuracies are percent (0-100), not fractions", err=True)
    rows = [metrics.score(s) for s in series_list]
    if out_path is None:
        _write_score_table(rows, sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_score_table(rows, fh)
        click.echo(f"wrote {len(rows)} score rows to {out_path}")


def _score(cid: str, cv: float, mean: float, asi: float) -> metrics.BenchmarkScore:
    """One score-table row; ``asi`` is the table's own 3-dp cell, which the verdict orders by."""
    return metrics.BenchmarkScore(
        classifier_id=cid, mean_accuracy_percent=mean, cv_percent=cv, asi=asi
    )


def _shown(cid: str) -> str:
    """A classifier id as one line of text: line breaks escaped, all else as it is."""
    return cid.replace("\r", "\\r").replace("\n", "\\n")


def _read_score_table(path: Path) -> dict[str, metrics.BenchmarkScore]:
    scores = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for where, row in tables.rows(fh, SCORE_HEADER.split(","), path, ParameterError):
            cid = row["classifier"]
            if cid in scores:
                raise ParameterError(f"{where}: repeated classifier id {cid!r}")
            try:
                cv, mean, asi = float(row["cv"]), float(row["mean"]), float(row["asi"])
            except ValueError:
                raise ParameterError(f"{where}: cv, mean and asi must be numbers") from None
            if not all(map(math.isfinite, (cv, mean, asi))):
                raise ParameterError(f"{where}: cv, mean and asi must be finite")
            scores[cid] = _score(cid, cv, mean, asi)
    return scores


def _fixture_scores() -> dict[str, metrics.BenchmarkScore]:
    return {
        f"R{row.row_id}": _score(f"R{row.row_id}", row.cv, row.mean, row.asi)
        for row in metrics.load_reference_scores()
    }


@main.command("compare")
@click.argument("baseline")
@click.argument("other")
@click.option("--scores", "scores_path", type=click.Path(path_type=Path), default=None,
              help="Score table from `asibench score`.")
@click.option("--reference", is_flag=True,
              help="Compare rows of the shipped published score table (ids R1..R75).")
@_guard
def cmd_compare(baseline, other, scores_path, reference):
    """Relative CV/mean deltas of OTHER versus BASELINE, plus the index verdict."""
    if reference == (scores_path is not None):
        raise ParameterError("give exactly one of --scores PATH or --reference")
    scores = _fixture_scores() if reference else _read_score_table(scores_path)
    for cid in (baseline, other):
        if cid not in scores:
            raise ParameterError(f"unknown classifier id {cid!r}")
    a, b = scores[baseline], scores[other]
    delta = metrics.compare(a, b)
    click.echo(f"cv delta:   {delta.cv_delta_percent:+.3f}%")
    click.echo(f"mean delta: {delta.mean_delta_percent:+.3f}%")
    if delta.asi_ordering == "tie":
        click.echo(f"verdict: tie (both ASI {a.asi:.3f})")
    else:
        winner, w = (baseline, a) if delta.asi_ordering == "a" else (other, b)
        loser, l = (other, b) if delta.asi_ordering == "a" else (baseline, a)
        click.echo(f"verdict: {_shown(winner)} preferred (ASI {w.asi:.3f} > {l.asi:.3f})")


@main.command("surface")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--mean-range", nargs=2, type=float, default=surface.DEFAULT_MEAN_RANGE,
              show_default=True)
@click.option("--cv-range", nargs=2, type=float, default=surface.DEFAULT_CV_RANGE,
              show_default=True)
@click.option("--resolution", type=int, default=surface.DEFAULT_RESOLUTION, show_default=True)
@click.option("--plot-script", "script_path", type=click.Path(path_type=Path), default=None,
              help="Also emit a matplotlib script referencing the CSV.")
@_guard
def cmd_surface(out_path, fmt, mean_range, cv_range, resolution, script_path):
    """Sample the index over the (mean, CV) plane and emit grid data."""
    if script_path is not None and fmt != "csv":
        raise ParameterError("--plot-script requires --format csv")
    grid = surface.surface_grid(tuple(mean_range), tuple(cv_range), resolution)
    surface.emit_grid(grid, fmt, out_path)
    if script_path is not None:
        surface.write_plot_script(out_path, script_path)
    click.echo(f"wrote {resolution}x{resolution} grid to {out_path}")


@main.command("report")
@click.option("--scores", "scores_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@_guard
def cmd_report(scores_path, out_path):
    """Render a score table as an aligned text report."""
    scores = _read_score_table(scores_path)
    lines = [f"{'Classifier':<28} {'CV (%)':>8} {'Mean (%)':>9} {'ASI':>7}"]
    lines.append("-" * len(lines[0]))
    for cid in sorted(scores):
        s = scores[cid]
        lines.append(
            f"{_shown(cid):<28} {s.cv_percent:>8.3f} {s.mean_accuracy_percent:>9.3f} {s.asi:>7.3f}"
        )
    text = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote report to {out_path}")


if __name__ == "__main__":
    main()
