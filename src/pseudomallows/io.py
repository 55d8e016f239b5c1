"""CSV/JSON ingestion and result emission.

Ranking files are one user per row, n integer columns; click files the same
with {0,1} entries. An optional first row of non-numeric labels is treated
as the item-label header.

Loading only parses cells and row widths. The containers in ``data`` check
the rows, once for all of them, and a row they reject is reported here by its
line in the file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .data import ClickDataset, RankingDataset, RowError
from .experiments import ResultTable


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="") as fh:
        return [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if row]


def _parse_int_rows(path):
    rows = _read_csv_rows(path)
    if not rows:
        raise ValueError(f"{path}: file is empty")
    labels = None
    first_line, first = rows[0]
    try:
        [int(cell) for cell in first]
    except ValueError:
        labels = tuple(cell.strip() for cell in first)
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
    lines, parsed = [], []
    width = None
    for line, row in rows:
        try:
            values = [int(cell) for cell in row]
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"{path}: line {line}: expected {width} columns, got {len(values)}"
            )
        lines.append(line)
        parsed.append(values)
    if labels is not None and len(labels) != width:
        raise ValueError(f"{path}: header width {len(labels)} != data width {width}")
    return labels, lines, parsed


def _build(container, path):
    """Parse ``path`` into ``container``, naming the file line of a rejected row."""
    labels, lines, values = _parse_int_rows(path)
    try:
        return container(np.array(values, dtype=np.int64), labels=labels)
    except RowError as err:
        raise ValueError(f"{path}: line {lines[err.row]}: {err}") from None


def load_rankings(path) -> RankingDataset:
    """Read a ranking CSV; every row must be a permutation of 1..n."""
    return _build(RankingDataset, path)


def load_clicks(path) -> ClickDataset:
    """Read a click CSV; entries must be 0 or 1."""
    return _build(ClickDataset, path)


def save_rankings(rankings, path) -> None:
    """Write rankings (array or RankingDataset) as a plain CSV."""
    arr = rankings.rankings if isinstance(rankings, RankingDataset) else np.asarray(rankings)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(arr):
            writer.writerow([int(v) for v in row])


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
