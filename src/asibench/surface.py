"""Accuracy-stability index surface over the (mean accuracy, CV) plane.

Produces grid data for external plotting. The formula's one source is
``metrics``: ``metrics.asi_grid`` evaluates the expression ``metrics.asi``
does, over the whole grid at once, so this module holds no metric arithmetic
of its own. numpy is imported where a grid is built or parsed, so that the CLI
can read the defaults below without loading it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParameterError
from .metrics import asi_grid

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

        for name, dtype in (("mean_axis", float), ("cv_axis", float), ("values", float),
                            ("mask", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (len(self.cv_axis), len(self.mean_axis)):
            raise ParameterError("values shape must be |cv_axis| x |mean_axis|")
        if self.mask.shape != self.values.shape:
            raise ParameterError("mask shape must match values")
        # the JSON is strict: no NaN or Infinity token in the axes or an unmasked cell
        if not (np.isfinite(self.mean_axis).all() and np.isfinite(self.cv_axis).all()
                and (np.isfinite(self.values) | self.mask).all()):
            raise ParameterError("grid axes and unmasked values must be finite")


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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError(f"{name} range bounds must be finite, got ({lo}, {hi})")
        if lo < 0.0 or hi <= lo:
            raise ParameterError(f"{name} range must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    import numpy as np

    mean_axis = np.linspace(mean_range[0], mean_range[1], resolution)
    cv_axis = np.linspace(cv_range[0], cv_range[1], resolution)
    return SurfaceGrid(mean_axis, cv_axis, *asi_grid(mean_axis, cv_axis))


def emit_grid(grid: SurfaceGrid, fmt: str, destination: str | Path) -> None:
    """Write the grid as CSV (long form, masked cells omitted) or JSON.

    Floats are rendered with shortest round-trip repr, so re-parsing
    reproduces the matrix bit-for-bit.
    """
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unknown grid format {fmt!r}")
    means = [repr(v) for v in grid.mean_axis.tolist()]
    cvs = [repr(v) for v in grid.cv_axis.tolist()]
    rows = zip(cvs, grid.values.tolist(), grid.mask.tolist())
    with open(destination, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write("mean,cv,asi\n")
            for cv, values, masked in rows:
                tail = f",{cv},"
                fh.write("".join(f"{mean}{tail}{value!r}\n"
                                 for mean, value, skip in zip(means, values, masked) if not skip))
        else:
            # json.dumps(doc, indent=1) + "\n", written a row at a time
            fh.write(f'{{\n "mean_axis": {_json_array(means, " ")},\n'
                     f' "cv_axis": {_json_array(cvs, " ")},\n "values": [')
            sep = "\n  "
            for _, values, masked in rows:
                cells = ["null" if skip else repr(value) for value, skip in zip(values, masked)]
                fh.write(sep + _json_array(cells, "  "))
                sep = ",\n  "
            fh.write("\n ]\n}\n" if cvs else "]\n}\n")


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=1) lays out one
    that closes at ``indent``."""
    if not items:
        return "[]"
    sep = "\n" + indent + " "
    return "[" + sep + ("," + sep).join(items) + "\n" + indent + "]"


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
with open(here / {csv_name!r}, newline="") as fh:
    rows = list(csv.DictReader(fh))
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
    """Emit a standalone matplotlib script that reads the CSV by its path relative to
    the script's directory."""
    script_path = Path(script_path)
    csv_name = Path(os.path.relpath(Path(csv_path).resolve(), script_path.resolve().parent))
    script_path.write_text(PLOT_SCRIPT.format(csv_name=csv_name.as_posix()), encoding="utf-8")
