import ast
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# random finite ranges 0 <= lo < hi; 0.0 is drawn often, so the masked origin shows up
RANGES = st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                  min_size=2, max_size=2, unique=True).map(lambda b: tuple(sorted(b)))
RESOLUTIONS = st.integers(min_value=2, max_value=40)
# bounds near the largest float overflow mean + cv to inf, in asi() and the grid alike
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


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

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["mean", "cv"])
    def test_non_finite_bound_rejected(self, name, bound):
        for lo, hi in ((bound, 5.0), (0.0, bound)):
            with pytest.raises(ParameterError, match=f"{name} range bounds must be finite"):
                surface_grid(**{f"{name}_range": (lo, hi)})

    @given(RANGES, RANGES, RESOLUTIONS)
    @settings(max_examples=200, deadline=None)
    @OVERFLOW_OK
    def test_cells_are_the_scalar_metric(self, mean_range, cv_range, resolution):
        g = surface_grid(mean_range, cv_range, resolution)
        means, cvs = g.mean_axis.tolist(), g.cv_axis.tolist()
        assert g.mask.tolist() == [[m + c == 0.0 for m in means] for c in cvs]
        expected = [[None if m + c == 0.0 else asi(m, c).hex() for m in means] for c in cvs]
        got = [[None if masked else v.hex() for v, masked in zip(row, mask_row)]
               for row, mask_row in zip(g.values.tolist(), g.mask.tolist())]
        assert got == expected  # bit for bit


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

    @given(RANGES, RANGES, RESOLUTIONS)
    @settings(max_examples=100, deadline=None)
    @OVERFLOW_OK
    def test_bytes_equal_the_reference_rendering(self, tmp_path_factory, mean_range, cv_range,
                                                 resolution):
        g = surface_grid(mean_range, cv_range, resolution)
        d = tmp_path_factory.mktemp("grid")
        emit_grid(g, "csv", d / "g.csv")
        emit_grid(g, "json", d / "g.json")
        # the per-cell rendering and json.dumps that the row-wise writer replaced
        lines = ["mean,cv,asi"]
        for i, cv in enumerate(g.cv_axis):
            for j, mean in enumerate(g.mean_axis):
                if not g.mask[i, j]:
                    lines.append(f"{float(mean)!r},{float(cv)!r},{float(g.values[i, j])!r}")
        assert (d / "g.csv").read_text() == "\n".join(lines) + "\n"
        doc = {
            "mean_axis": g.mean_axis.tolist(),
            "cv_axis": g.cv_axis.tolist(),
            "values": [[None if masked else v for v, masked in zip(row, mask_row)]
                       for row, mask_row in zip(g.values.tolist(), g.mask.tolist())],
        }
        assert (d / "g.json").read_text() == json.dumps(doc, indent=1) + "\n"

    def test_json_of_empty_axes_equals_json_dumps(self, tmp_path):
        g = SurfaceGrid([0.0, 1.0], [], np.zeros((0, 2)), np.zeros((0, 2), dtype=bool))
        emit_grid(g, "json", tmp_path / "g.json")
        doc = {"mean_axis": [0.0, 1.0], "cv_axis": [], "values": []}
        assert (tmp_path / "g.json").read_text() == json.dumps(doc, indent=1) + "\n"

    def test_non_finite_cell_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            SurfaceGrid([0.0, 1.0], [0.0], [[0.5, float("nan")]], [[False, False]])
        # a masked cell is never emitted
        SurfaceGrid([0.0, 1.0], [0.0], [[float("nan"), 1.0]], [[True, False]])

    def test_unknown_format_rejected(self, tmp_path, grid):
        with pytest.raises(ParameterError):
            emit_grid(grid, "xml", tmp_path / "g.xml")
        assert not (tmp_path / "g.xml").exists()

    def test_plot_script_references_csv(self, tmp_path, grid):
        csv_path = tmp_path / "grid.csv"
        emit_grid(grid, "csv", csv_path)
        script = tmp_path / "plot.py"
        write_plot_script(csv_path, script)
        text = script.read_text()
        assert "with open(here / 'grid.csv', newline=\"\") as fh:" in text
        compile(text, str(script), "exec")  # syntactically valid

    @pytest.mark.parametrize("csv_rel,script_rel", [
        ("out/grid.csv", "plot.py"),
        ("grid.csv", "scripts/plot.py"),
        ("a/grid.csv", "b/c/plot.py"),
    ])
    def test_plot_script_finds_csv_in_another_directory(self, tmp_path, grid, csv_rel,
                                                         script_rel):
        csv_path, script = tmp_path / csv_rel, tmp_path / script_rel
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        script.parent.mkdir(parents=True, exist_ok=True)
        emit_grid(grid, "csv", csv_path)
        write_plot_script(csv_path, script)
        name = ast.literal_eval(re.search(r"open\(here / ('[^']*')", script.read_text())[1])
        assert (script.parent / name).resolve() == csv_path.resolve()
