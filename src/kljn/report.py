"""Machine-readable CSV output for every command.

One file holds a per-bit table followed by a summary block.  Summary
lines are prefixed with ``#`` so the table parses with any CSV reader;
the toolkit's own reader returns both parts and round-trips exactly
(floats are serialized with repr, which is lossless for doubles).

Rows given as a tuple of integer or bool numpy columns (the
singularity table's cell, size and singular columns) are formatted in
pieces of `_DUMP_PIECE` rows as ASCII digit matrices, byte for byte as
``csv.writer`` writes their ``str(int)`` cells (a bool as 0 or 1), in
one pass of the thread runner `lookup._run_parts`, which hands the
pieces back in order; they are written once all are formatted (10.1 MB
of text at 64 levels).  The columns are read where they lie instead of
being stacked into one copy.  Any other rows (those holding strings,
None or floats) go through ``csv.writer``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lookup
from .errors import ConfigError

_DUMP_PIECE = 1 << 16  # rows per piece of the integer column path


@dataclass
class CsvReport:
    """Parsed form of one output file: rows plus summary key/values."""

    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _int_piece(columns) -> str:
    """The rows of the equal-length integer or bool `columns` as
    ``csv.writer`` writes their ``str(int)`` cells: joined by ',', each
    row ended by '\\n'.

    Each column gets a sign slot (when it holds a negative value) and
    right-aligned digit slots as wide as its largest magnitude; a keep
    mask drops the unused sign slots and the leading zeros.
    """
    rows = len(columns[0])
    comma, everywhere = np.full(rows, ord(","), np.uint8), np.ones(rows, bool)
    text, keep = [], []  # one slot per character column, left to right
    for values in columns:
        minus = values < 0
        magnitude = values.astype(np.uint64)  # two's complement: exact for int64's minimum
        np.negative(magnitude, out=magnitude, where=minus)
        if minus.any():
            text.append(np.full(rows, ord("-"), np.uint8))
            keep.append(minus)
        digits = []  # units first
        for place in range(len(str(magnitude.max(initial=0)))):
            digits.append(magnitude != 0 if place else everywhere)
            magnitude, digit = np.divmod(magnitude, 10)
            digits.append(digit.astype(np.uint8) + np.uint8(ord("0")))
        text.extend(digits[-1::-2])
        keep.extend(digits[-2::-2])
        text.append(comma)
        keep.append(everywhere)
    text = np.stack(text, axis=1)
    text[:, -1] = ord("\n")
    return text[np.stack(keep, axis=1)].tobytes().decode("ascii")


def write_csv(columns, rows, summary: dict, path) -> None:
    """Stream one output file: the header, `rows` (value sequences in
    `columns` order) and the summary block.

    The one CSV writer of the toolkit.  The csv module writes None as
    an empty cell and floats with repr, as :func:`_format` does for the
    summary values.  `rows` given as a tuple of equal-length 1-D
    integer or bool numpy arrays, one per column, are read where they
    lie and formatted in pieces by :func:`_int_piece`.
    """
    with open(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        if isinstance(rows, tuple) and rows and all(
                isinstance(values, np.ndarray) and values.dtype.kind in "biu"
                for values in rows):
            handle.writelines(lookup._run_parts(
                lookup._pool_width(), range(0, len(rows[0]), _DUMP_PIECE),
                lambda p, start: _int_piece([values[start:start + _DUMP_PIECE]
                                             for values in rows])))
        else:
            writer.writerows(rows)
        handle.writelines(f"# {key},{_format(value)}\n"
                          for key, value in summary.items())


def write_report(report: CsvReport, path) -> None:
    """Write a :class:`CsvReport` through :func:`write_csv`."""
    write_csv(report.columns,
              ([row.get(col) for col in report.columns] for row in report.rows),
              report.summary, path)


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path) -> CsvReport:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty report file")
    table_lines = [ln for ln in lines if not ln.startswith("#")]
    summary_lines = [ln for ln in lines if ln.startswith("#")]
    parsed = list(csv.reader(table_lines))
    columns = parsed[0]
    rows = [{col: _parse_cell(cell) for col, cell in zip(columns, line)}
            for line in parsed[1:] if line]
    summary = {}
    for ln in summary_lines:
        key, _, value = ln[1:].strip().partition(",")
        summary[key] = _parse_cell(value)
    return CsvReport(columns=columns, rows=rows, summary=summary)
