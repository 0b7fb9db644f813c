"""The row rules every CSV reader shares: exact header, blank lines skipped,
one cell per field, errors naming the file and the line."""

import types

import numpy as np
import pytest

from asibench import cli, harness, metrics, registry
from asibench.errors import ManifestError, MetricError, ParameterError
from asibench.image import Image, write_netpbm


def read_labels(path, monkeypatch):
    for name in ("a.pgm", "b.pgm"):
        write_netpbm(Image(np.zeros((2, 2))), path.parent / name)
    return [(name, label) for name, label, _ in cli._read_clean_corpus(path.parent, None)]


def read_predictions(path, monkeypatch):
    adapter = harness.PredictionsFileAdapter(path)
    return [adapter.predict_file(name) for name in ("a.pgm", "b.pgm")]


def read_reference(path, monkeypatch):
    monkeypatch.setattr(metrics, "resources", types.SimpleNamespace(files=lambda _: path.parent))
    return metrics.load_reference_scores()


# file name, header, two valid rows, how the program reads the file, the error it raises
READERS = {
    "labels": ("labels.csv", "filename,label", ["a.pgm,dark", "b.pgm,mid"],
               read_labels, ParameterError),
    "score table": ("s.csv", "classifier,cv,mean,asi",
                    ["a,2.000,90.000,0.957", "b,1.000,95.000,0.979"],
                    lambda path, _: cli._read_score_table(path), ParameterError),
    "manifest": ("manifest.csv", ",".join(registry.MANIFEST_FIELDS),
                 ["0,clean,a.pgm,cond_000/a.pgm,dark,00", "1,SP0.1,a.pgm,cond_001/a.pgm,dark,11"],
                 lambda path, _: registry.read_manifest(path.parent), ManifestError),
    "predictions": ("pred.csv", "path,label", ["a.pgm,dark", "b.pgm,mid"],
                    read_predictions, ParameterError),
    "accuracy table": ("acc.csv", "classifier,condition,accuracy", ["m,0,90.0", "m,1,80.0"],
                       lambda path, _: metrics.load_accuracy_table(path), ParameterError),
    "reference scores": ("reference_scores.csv", "row_id,condition_label,classifier,cv,mean,asi",
                         ["1,clean,A,2.276,85.250,0.948", "2,noise,B,1.246,89.970,0.973"],
                         read_reference, MetricError),
}


@pytest.mark.parametrize("damage", ["blank line", "missing field", "extra field", "header",
                                    "empty file"])
@pytest.mark.parametrize("table", list(READERS))
def test_every_reader_applies_the_shared_row_rules(tmp_path, monkeypatch, table, damage):
    name, header, rows, read, error = READERS[table]
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    whole = read(path, monkeypatch)
    fields = len(header.split(","))
    if damage == "blank line":
        lines = [header, "", rows[0], "", rows[1], ""]
    elif damage == "missing field":
        lines = [header, rows[0], rows[1].rsplit(",", 1)[0]]
    elif damage == "extra field":
        lines = [header, rows[0], rows[1] + ",x"]
    elif damage == "header":
        lines = [header.replace(",", ";")] + rows
    else:
        lines = []
    path.write_text("".join(line + "\n" for line in lines))
    if damage == "blank line":
        assert read(path, monkeypatch) == whole
        return
    with pytest.raises(error) as caught:
        read(path, monkeypatch)
    assert type(caught.value) is error
    assert str(path) in str(caught.value)
    if damage in ("header", "empty file"):
        assert f"header must be {header!r}" in str(caught.value)
    else:
        assert f"line 3: expected {fields} fields" in str(caught.value)
