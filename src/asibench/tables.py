"""The one CSV row reader behind every table asibench reads.

Each table has an exact header line. Blank lines are skipped; every other
line must hold one cell per header field. Errors name the table and the line.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator

from .errors import BenchmarkError


def rows(
    lines: Iterable[str], header: list[str], name: object, error: type[BenchmarkError]
) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield ``(where, row)`` for each non-blank row, ``where`` being ``<name>: line N``.

    ``row`` maps each header field to its cell. A first line other than
    ``header``, or a row with a missing or extra field, raises ``error``.
    """
    reader = csv.reader(lines)
    if next(reader, None) != header:
        raise error(f"{name}: header must be {','.join(header)!r}")
    prefix = f"{name}: line "  # formatted once: a path's str() is not free
    for cells in reader:
        if not cells:
            continue
        where = f"{prefix}{reader.line_num}"
        if len(cells) != len(header):
            raise error(f"{where}: expected {len(header)} fields")
        yield where, dict(zip(header, cells))
