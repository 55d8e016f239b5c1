"""CSV/JSON ingestion and result emission.

Ranking files are one user per row, n integer columns; click files the same
with {0,1} entries. The first nonblank row is the item-label header when
``int()`` rejects any of its cells and none of them is a plain int64; a first
row that mixes the two is a data row with a bad cell, rejected at its line.

Every other cell is a plain decimal int64: an optional sign and ASCII digits,
with optional surrounding whitespace and double quotes. Empty lines are
skipped. One ``np.loadtxt`` call parses the rows after the header, and the
containers in ``data`` check them, once for all of them. Only a rejected file
gets a Python pass over its rows, which names the file line at fault.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .data import ClickDataset, RankingDataset, RowError
from .experiments import ResultTable


_INT64 = re.compile(r"\s*[+-]?[0-9]+\s*")


def _is_int64(cell: str) -> bool:
    return bool(_INT64.fullmatch(cell)) and -(2**63) <= int(cell) < 2**63


def _nonblank_rows(fh):
    """(line, cells) of each nonblank CSV row; ``line`` is the file line it ends on."""
    reader = csv.reader(fh)
    return ((reader.line_num, row) for row in reader if row)


def _read_header(path) -> tuple[tuple[str, ...] | None, int]:
    """The labels and file line of the header, or (None, 0) when there is none."""
    with open(path, newline="") as fh:
        rows = _nonblank_rows(fh)
        line, first = next(rows, (0, None))
        if first is None:
            raise ValueError(f"{path}: file is empty")
        try:
            [int(cell) for cell in first]
            return None, 0
        except ValueError:
            if any(map(_is_int64, first)):  # a data row with a bad cell, not labels
                raise ValueError(f"{path}: {_locate(path, 0, None, None)}") from None
            if next(rows, None) is None:
                raise ValueError(f"{path}: header but no data rows") from None
            return tuple(cell.strip() for cell in first), line


def _locate(path, skip: int, labels, err: ValueError) -> str:
    """Name the file line that got ``path`` rejected: its first cell that is not
    a plain int64 decimal, its first row of another width than the header (or
    the first data row), or data row ``err.row`` of a RowError. Runs only on a
    file that is being rejected."""
    with open(path, newline="") as fh:
        width = len(labels) if labels else None
        data = (r for r in _nonblank_rows(fh) if r[0] > skip)
        for j, (line, row) in enumerate(data):
            for cell in row:
                if not _is_int64(cell):
                    return f"line {line}: cell {cell!r} is not a decimal int64"
            width = width or len(row)
            if len(row) != width:
                return f"line {line}: expected {width} columns, got {len(row)}"
            if j == getattr(err, "row", None):
                return f"line {line}: {err}"
    return str(err)


def _build(container, path):
    """Parse ``path`` into ``container``, naming the file line of a rejected row."""
    labels, skip = _read_header(path)
    try:
        values = np.loadtxt(
            path, dtype=np.int64, delimiter=",", comments=None, quotechar='"',
            skiprows=skip, ndmin=2,
        )
    except ValueError as err:
        raise ValueError(f"{path}: {_locate(path, skip, labels, err)}") from None
    if labels is not None and len(labels) != values.shape[1]:
        err = ValueError(f"header width {len(labels)} != data width {values.shape[1]}")
        raise ValueError(f"{path}: {_locate(path, skip, labels, err)} ({err})")
    try:
        return container(values, labels=labels)
    except RowError as err:
        raise ValueError(f"{path}: {_locate(path, skip, labels, err)}") from None


def load_rankings(path) -> RankingDataset:
    """Read a ranking CSV; every row must be a permutation of 1..n."""
    return _build(RankingDataset, path)


def load_clicks(path) -> ClickDataset:
    """Read a click CSV; entries must be 0 or 1."""
    return _build(ClickDataset, path)


def save_rankings(rankings, path) -> None:
    """Write rankings (array or RankingDataset) as a plain CSV."""
    arr = rankings.rankings if isinstance(rankings, RankingDataset) else np.asarray(rankings)
    np.savetxt(path, np.atleast_2d(arr), fmt="%d", delimiter=",", newline="\r\n")


def emit(table: ResultTable, format: str, path) -> None:
    """Write a ResultTable as CSV (RFC-4180 quoting) or a JSON row array."""
    path = Path(path)
    try:
        if format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
                writer.writerow(table.columns)
                for row in table.rows:
                    writer.writerow([row[c] for c in table.columns])
        elif format == "json":
            with open(path, "w") as fh:
                json.dump(table.rows, fh, indent=1)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as err:
        raise OSError(f"writing {path}: {err}") from err


def _coerce(cell: str):
    for caster in (int, float):
        try:
            return caster(cell)
        except ValueError:
            continue
    return cell


def read_table(path, format: str | None = None) -> ResultTable:
    """Read back an emitted table; numbers regain their types."""
    path = Path(path)
    if format is None:
        format = "json" if path.suffix == ".json" else "csv"
    if format == "json":
        with open(path) as fh:
            rows = json.load(fh)
        columns = tuple(rows[0].keys()) if rows else ResultTable().columns
        return ResultTable(columns, rows)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, [_coerce(c) for c in row])) for row in reader]
    return ResultTable(tuple(header), rows)
