import json

import numpy as np
import pytest

from asibench.errors import ParameterError
from asibench.metrics import asi, load_reference_scores
from asibench.surface import (
    SurfaceGrid,
    emit_grid,
    parse_grid_csv,
    parse_grid_json,
    surface_grid,
    write_plot_script,
)


@pytest.fixture(scope="module")
def grid():
    return surface_grid((0.0, 100.0), (0.0, 10.0), 11)


class TestSurfaceGrid:
    def test_corner_values(self, grid):
        # rows indexed by cv, columns by mean
        assert grid.values[0, -1] == 1.0  # mean=100, cv=0
        assert grid.values[-1, 0] == -1.0  # mean=0, cv=10

    def test_origin_masked_not_nan(self, grid):
        assert grid.mask[0, 0]
        assert not np.isnan(grid.values).any()
        assert grid.mask.sum() == 1

    def test_balance_diagonal(self):
        g = surface_grid((0.0, 100.0), (0.0, 50.0), 11)
        # mean=50 is column 5, cv=50 is row 10
        assert g.values[10, 5] == 0.0

    def test_unmasked_values_in_bounds(self, grid):
        vals = grid.values[~grid.mask]
        assert vals.min() >= -1.0 and vals.max() <= 1.0

    def test_monotone_rows_and_columns(self, grid):
        # strictly increasing in mean wherever cv > 0 and mean >= 0
        for i in range(1, len(grid.cv_axis)):
            row = grid.values[i, :]
            assert np.all(np.diff(row) > 0)
        # strictly decreasing in cv wherever mean > 0
        for j in range(1, len(grid.mean_axis)):
            col = grid.values[1:, j] if grid.mask[0, j] else grid.values[:, j]
            assert np.all(np.diff(col) < 0)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            surface_grid(resolution=1)
        with pytest.raises(ParameterError):
            surface_grid(mean_range=(10.0, 5.0))
        with pytest.raises(ParameterError):
            surface_grid(cv_range=(-5.0, 5.0))

    def test_delegates_to_metric(self, grid):
        for i in (1, 4, 9):
            for j in (0, 5, 10):
                assert grid.values[i, j] == asi(grid.mean_axis[j], grid.cv_axis[i])


class TestQueryMode:
    def test_reference_points_reproduce_published_column(self):
        rows = load_reference_scores()
        for row in rows:
            assert abs(asi(row.mean, row.cv) - row.asi) <= 0.001


class TestEmission:
    def test_csv_round_trip_bit_exact(self, tmp_path, grid):
        path = tmp_path / "grid.csv"
        emit_grid(grid, "csv", path)
        triples = parse_grid_csv(path)
        assert len(triples) == 11 * 11 - 1  # one masked cell omitted
        for mean, cv, value in triples:
            j = int(np.argmin(np.abs(grid.mean_axis - mean)))
            i = int(np.argmin(np.abs(grid.cv_axis - cv)))
            assert value == grid.values[i, j]  # bit-for-bit

    def test_json_round_trip_bit_exact(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        emit_grid(grid, "json", path)
        back = parse_grid_json(path)
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.mask, grid.mask)
        assert np.array_equal(back.mean_axis, grid.mean_axis)

    def test_json_masked_cell_is_null(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        emit_grid(grid, "json", path)
        doc = json.loads(path.read_text())
        assert doc["values"][0][0] is None
        assert sum(v is None for row in doc["values"] for v in row) == 1

    def test_tiny_grid_csv_shape(self, tmp_path):
        g = surface_grid((50.0, 100.0), (1.0, 2.0), 2)
        path = tmp_path / "g.csv"
        emit_grid(g, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mean,cv,asi"
        assert len(lines) == 1 + 4

    def test_unknown_format_rejected(self, tmp_path, grid):
        with pytest.raises(ParameterError):
            emit_grid(grid, "xml", tmp_path / "g.xml")

    def test_plot_script_references_csv(self, tmp_path, grid):
        csv_path = tmp_path / "grid.csv"
        emit_grid(grid, "csv", csv_path)
        script = tmp_path / "plot.py"
        write_plot_script(csv_path, script)
        text = script.read_text()
        assert "grid.csv" in text
        compile(text, str(script), "exec")  # syntactically valid
