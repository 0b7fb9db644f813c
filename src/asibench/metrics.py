"""Scoring core: mean accuracy, coefficient of variation, the
accuracy-stability index, and pairwise relative comparisons.

All arithmetic is full-precision IEEE double; rounding to table precision
happens only when reports are rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Sequence

from . import tables
from .errors import MetricError

if TYPE_CHECKING:
    from .harness import AccuracySeries

__all__ = [
    "BenchmarkScore",
    "RelativeDelta",
    "FixtureRow",
    "mean_accuracy",
    "coefficient_of_variation",
    "asi",
    "asi_grid",
    "score",
    "compare",
    "load_reference_scores",
]


@dataclass(frozen=True)
class BenchmarkScore:
    classifier_id: str
    mean_accuracy_percent: float
    cv_percent: float
    asi: float
    n_conditions: int


@dataclass(frozen=True)
class RelativeDelta:
    """Relative change of b versus baseline a, in percent, plus the ASI verdict."""

    cv_delta_percent: float
    mean_delta_percent: float
    asi_ordering: str  # "a", "b", or "tie"


def _values(accuracies: Sequence[float]) -> list[float]:
    return [float(v) for v in accuracies]


def mean_accuracy(accuracies: Sequence[float]) -> float:
    """Arithmetic mean of per-condition accuracies, in percent."""
    vals = _values(accuracies)
    if not vals:
        raise MetricError("mean accuracy of an empty series is undefined")
    return math.fsum(vals) / len(vals)


def coefficient_of_variation(accuracies: Sequence[float]) -> float:
    """100 x population standard deviation (divide by N) / mean of the accuracies."""
    vals = _values(accuracies)
    if not vals:
        raise MetricError("CV of an empty series is undefined")
    mean = math.fsum(vals) / len(vals)
    if mean == 0.0:
        raise MetricError("CV is undefined for zero mean")
    var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
    return 100.0 * math.sqrt(var) / mean


def _index(mean, cv, total):
    """The index's one expression, (mean - cv) / total with total = mean + cv, for
    floats and broadcast numpy arrays alike."""
    return (mean - cv) / total


def asi(mean: float, cv: float) -> float:
    """(mean - cv) / (mean + cv), defined only for finite mean, cv >= 0 with mean + cv > 0."""
    if not (math.isfinite(mean) and math.isfinite(cv)):
        raise MetricError(f"mean and cv must be finite, got {mean}, {cv}")
    if mean < 0.0 or cv < 0.0:
        raise MetricError(f"mean and cv must be non-negative, got {mean}, {cv}")
    total = mean + cv
    if total == 0.0:
        raise MetricError("ASI is undefined when mean + cv = 0")
    return _index(mean, cv, total)


def asi_grid(mean_axis, cv_axis):
    """asi at every (mean, cv) of a grid, rows by cv: (values, mask) for 1-D float arrays.

    One broadcast expression, the one asi() evaluates, so each cell is bit-identical
    to asi(mean, cv). mask is True where mean + cv = 0; those cells divide by 1.0
    instead of 0. The caller validates the axes; this module does not import numpy.
    """
    cv_column = cv_axis[:, None]
    total = mean_axis + cv_column
    mask = total == 0.0
    total[mask] = 1.0
    return _index(mean_axis, cv_column, total), mask


def score(series: AccuracySeries) -> BenchmarkScore:
    accuracies = series.accuracies()
    mean = mean_accuracy(accuracies)
    cv = coefficient_of_variation(accuracies)
    return BenchmarkScore(
        classifier_id=series.classifier_id,
        mean_accuracy_percent=mean,
        cv_percent=cv,
        asi=asi(mean, cv),
        n_conditions=len(series.entries),
    )


def compare(a: BenchmarkScore, b: BenchmarkScore) -> RelativeDelta:
    """Relative deltas of b versus a: 100 * (b/a - 1) for cv and mean."""
    if a.cv_percent == 0.0 or a.mean_accuracy_percent == 0.0:
        raise MetricError("relative delta undefined for zero baseline cv or mean")
    if a.asi > b.asi:
        ordering = "a"
    elif b.asi > a.asi:
        ordering = "b"
    else:
        ordering = "tie"
    return RelativeDelta(
        cv_delta_percent=100.0 * (b.cv_percent / a.cv_percent - 1.0),
        mean_delta_percent=100.0 * (b.mean_accuracy_percent / a.mean_accuracy_percent - 1.0),
        asi_ordering=ordering,
    )


@dataclass(frozen=True)
class FixtureRow:
    """One row of the shipped published-score fixture."""

    row_id: int
    condition_label: str
    classifier: str
    cv: float
    mean: float
    asi: float


def load_reference_scores() -> list[FixtureRow]:
    """Load the shipped 75-row published score table."""
    path = resources.files("asibench.data").joinpath("reference_scores.csv")
    fields = ["row_id", "condition_label", "classifier", "cv", "mean", "asi"]
    rows = []
    for _, rec in tables.rows(path.read_text("utf-8").splitlines(), fields, path, MetricError):
        rows.append(
            FixtureRow(
                row_id=int(rec["row_id"]),
                condition_label=rec["condition_label"],
                classifier=rec["classifier"],
                cv=float(rec["cv"]),
                mean=float(rec["mean"]),
                asi=float(rec["asi"]),
            )
        )
    return rows
