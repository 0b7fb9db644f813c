"""Accuracy-stability index surface over the (mean accuracy, CV) plane.

Produces grid data for external plotting. Every cell delegates to
``metrics.asi``; this module holds no metric arithmetic of its own. numpy is
imported where a grid is built or parsed, so that the CLI can read the
defaults below without loading it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParameterError
from .metrics import asi

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SurfaceGrid",
    "surface_grid",
    "emit_grid",
    "parse_grid_csv",
    "parse_grid_json",
    "write_plot_script",
    "DEFAULT_MEAN_RANGE",
    "DEFAULT_CV_RANGE",
]

DEFAULT_MEAN_RANGE = (0.0, 100.0)
DEFAULT_CV_RANGE = (0.0, 25.0)
DEFAULT_RESOLUTION = 51


@dataclass(frozen=True)
class SurfaceGrid:
    mean_axis: np.ndarray  # ascending, percent
    cv_axis: np.ndarray  # ascending, percent
    values: np.ndarray  # shape (len(cv_axis), len(mean_axis))
    mask: np.ndarray  # True where ASI is undefined (mean + cv = 0)

    def __post_init__(self):
        import numpy as np

        for name in ("mean_axis", "cv_axis", "values", "mask"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (len(self.cv_axis), len(self.mean_axis)):
            raise ParameterError("values shape must be |cv_axis| x |mean_axis|")
        if self.mask.shape != self.values.shape:
            raise ParameterError("mask shape must match values")


def surface_grid(
    mean_range: tuple[float, float] = DEFAULT_MEAN_RANGE,
    cv_range: tuple[float, float] = DEFAULT_CV_RANGE,
    resolution: int = DEFAULT_RESOLUTION,
) -> SurfaceGrid:
    """Uniformly sample asi(mean, cv) over the given ranges.

    Cells where mean + cv = 0 are masked rather than evaluated.
    """
    if resolution < 2:
        raise ParameterError(f"resolution must be >= 2, got {resolution}")
    for (lo, hi), name in ((mean_range, "mean"), (cv_range, "cv")):
        if lo < 0.0 or hi <= lo:
            raise ParameterError(f"{name} range must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    import numpy as np

    mean_axis = np.linspace(mean_range[0], mean_range[1], resolution)
    cv_axis = np.linspace(cv_range[0], cv_range[1], resolution)
    values = np.zeros((resolution, resolution))
    mask = np.zeros((resolution, resolution), dtype=bool)
    for i, cv in enumerate(cv_axis):
        for j, mean in enumerate(mean_axis):
            if mean + cv == 0.0:
                mask[i, j] = True
            else:
                values[i, j] = asi(mean, cv)
    return SurfaceGrid(mean_axis, cv_axis, values, mask)


def emit_grid(grid: SurfaceGrid, fmt: str, destination: str | Path) -> None:
    """Write the grid as CSV (long form, masked cells omitted) or JSON.

    Floats are rendered with shortest round-trip repr, so re-parsing
    reproduces the matrix bit-for-bit.
    """
    destination = Path(destination)
    if fmt == "csv":
        lines = ["mean,cv,asi"]
        for i, cv in enumerate(grid.cv_axis):
            for j, mean in enumerate(grid.mean_axis):
                if not grid.mask[i, j]:
                    lines.append(f"{float(mean)!r},{float(cv)!r},{float(grid.values[i, j])!r}")
        destination.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        doc = {
            "mean_axis": [float(v) for v in grid.mean_axis],
            "cv_axis": [float(v) for v in grid.cv_axis],
            "values": [
                [None if grid.mask[i, j] else float(grid.values[i, j])
                 for j in range(len(grid.mean_axis))]
                for i in range(len(grid.cv_axis))
            ],
        }
        destination.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    else:
        raise ParameterError(f"unknown grid format {fmt!r}")


def parse_grid_csv(path: str | Path) -> list[tuple[float, float, float]]:
    """Read a long-form grid CSV back as (mean, cv, asi) triples."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "mean,cv,asi":
        raise ParameterError(f"{path}: expected 'mean,cv,asi' header")
    out = []
    for line in lines[1:]:
        mean, cv, value = line.split(",")
        out.append((float(mean), float(cv), float(value)))
    return out


def parse_grid_json(path: str | Path) -> SurfaceGrid:
    import numpy as np

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    values = np.array(
        [[0.0 if v is None else v for v in row] for row in doc["values"]]
    )
    mask = np.array([[v is None for v in row] for row in doc["values"]])
    return SurfaceGrid(np.array(doc["mean_axis"]), np.array(doc["cv_axis"]), values, mask)


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the accuracy-stability surface from {csv_name}.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).resolve().parent
rows = list(csv.DictReader(open(here / {csv_name!r})))
mean = np.array([float(r["mean"]) for r in rows])
cv = np.array([float(r["cv"]) for r in rows])
value = np.array([float(r["asi"]) for r in rows])

fig = plt.figure(figsize=(8, 6))
ax = fig.add_subplot(projection="3d")
ax.plot_trisurf(mean, cv, value, cmap="viridis", linewidth=0.1)
ax.set_xlabel("mean accuracy (%)")
ax.set_ylabel("CV (%)")
ax.set_zlabel("accuracy-stability index")
fig.savefig(here / "surface.png", dpi=150)
print("wrote", here / "surface.png")
"""


def write_plot_script(csv_path: str | Path, script_path: str | Path) -> None:
    """Emit a standalone matplotlib script referencing the CSV by relative path."""
    csv_path, script_path = Path(csv_path), Path(script_path)
    Path(script_path).write_text(
        PLOT_SCRIPT.format(csv_name=csv_path.name), encoding="utf-8"
    )
