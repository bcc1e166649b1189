"""Machine-readable CSV output for every command.

One file holds a per-bit table followed by a summary block.  Summary
lines are prefixed with ``#`` so the table parses with any CSV reader;
the toolkit's own reader returns both parts and round-trips exactly
(floats are serialized with repr, which is lossless for doubles).

Rows are a tuple of equal-length columns, read where they lie and
formatted in pieces of `_DUMP_PIECE` rows, in one pass of the thread
runner `lookup._run_parts`, byte for byte as ``csv.writer`` writes the
same rows as Python objects: float64 columns by repr, integer and bool
columns as ASCII digit matrices (a bool as 0 or 1), text columns (str,
or None for an empty cell) as they are.  A piece of integer and bool
columns is one text, written once all are formatted (10.1 MB of text
at 64 levels); a piece with other columns formats each distinct value
of a column once (a float per bit pattern), holds the cells and joins
each line as it is written; a text column is checked for cells to
quote once, as a whole.  ``csv.writer`` itself writes only the header
and quotes the text cells that need it.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import lookup
from .errors import ConfigError

_DUMP_PIECE = 1 << 16  # rows per piece of the column path
_QUOTED = re.compile('[,"\r\n]')  # text cells that csv.writer may quote


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

    Each column gets a sign slot (when it is signed and holds a negative
    value) and right-aligned digit slots as wide as its largest
    magnitude; a keep mask drops the unused sign slots and the leading
    zeros.  Each digit
    is m - 10 (m // 10): numpy divides by a constant far faster than
    np.divmod does, and faster still on uint32, which the magnitudes
    take when the largest is below 2^32.
    """
    rows = len(columns[0])
    comma, everywhere = np.full(rows, ord(","), np.uint8), np.ones(rows, bool)
    text, keep = [], []  # one slot per character column, left to right
    for values in columns:
        magnitude = values.astype(np.uint64)  # two's complement: exact for int64's minimum
        if values.dtype.kind == "i":  # unsigned and bool columns have no sign
            minus = values < 0
            np.negative(magnitude, out=magnitude, where=minus)
            if minus.any():
                text.append(np.full(rows, ord("-"), np.uint8))
                keep.append(minus)
        largest = magnitude.max(initial=0)
        if largest < 1 << 32:
            magnitude = magnitude.astype(np.uint32)
        digits = []  # units first
        for place in range(len(str(largest))):
            digits.append(magnitude != 0 if place else everywhere)
            tens = magnitude // 10
            magnitude -= tens * 10
            digit = magnitude.astype(np.uint8)
            digit += ord("0")
            digits.append(digit)
            magnitude = tens
        text.extend(digits[-1::-2])
        keep.extend(digits[-2::-2])
        text.append(comma)
        keep.append(everywhere)
    text = np.stack(text, axis=1)
    text[:, -1] = ord("\n")
    return text[np.stack(keep, axis=1)].tobytes().decode("ascii")


def _text(value) -> str:
    """A text cell as ``csv.writer`` writes it among other cells."""
    if value is None or not _QUOTED.search(value):
        return value or ""
    buffer = io.StringIO()  # the quoting as csv.writer does it
    csv.writer(buffer, lineterminator="\n").writerow((value, ""))
    return buffer.getvalue()[:-2]


def _cells(values) -> list[str]:
    """The cells of one column, each distinct value formatted once: a
    float64 array's by repr, per bit pattern (so -0.0 keeps its own),
    an integer or bool array's by :func:`_int_piece`, and any other
    sequence's str or None values as they are (None as an empty cell),
    or by :func:`_text` when one check of the whole column finds a cell
    that csv.writer may quote."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fbiu":
        floats = values.dtype.kind == "f"
        patterns, inverse = np.unique(values.view(np.int64) if floats else values,
                                      return_inverse=True)
        texts = (map(float.__repr__, patterns.view(np.float64).tolist()) if floats
                 else _int_piece([patterns]).split("\n")[:-1])
        return np.array(list(texts), dtype=object)[inverse].tolist()
    if not _QUOTED.search("".join(filter(None, values))):
        return [value or "" for value in values]
    texts = {value: _text(value) for value in set(values)}
    return list(map(texts.__getitem__, values))


def _piece(columns):
    """The rows of the equal-length `columns` as text chunks: integer and
    bool columns as one chunk, others line by line as they are written,
    so that no piece-sized text is held."""
    if all(isinstance(values, np.ndarray) and values.dtype.kind in "biu"
           for values in columns):
        return (_int_piece(columns),)
    cells = [_cells(values) for values in columns]
    if len(cells) == 1:  # csv.writer quotes a row's lone empty cell
        cells = [[cell or '""' for cell in cells[0]]]
    return map("{}\n".format, map(",".join, zip(*cells)))


def write_csv(columns, rows, summary: dict, path) -> None:
    """Stream one output file: the header, `rows` and the summary block.

    The one CSV writer of the toolkit.  `rows` is a tuple of
    equal-length columns, one per name in `columns`: float64, integer or
    bool numpy arrays, or sequences of str or None, formatted in pieces
    by :func:`_piece`.  Summary values are written by :func:`_format`, as
    the csv module writes them (None as an empty cell, floats by repr).
    """
    with open(path, "w") as handle:
        csv.writer(handle, lineterminator="\n").writerow(columns)
        handle.writelines(chain.from_iterable(lookup._run_parts(
            lookup._pool_width(), range(0, len(rows[0]), _DUMP_PIECE),
            lambda p, start: _piece([values[start:start + _DUMP_PIECE]
                                     for values in rows]))))
        handle.writelines(f"# {key},{_format(value)}\n"
                          for key, value in summary.items())


def write_report(report: CsvReport, path) -> None:
    """Write a :class:`CsvReport` through :func:`write_csv`, each column
    as the text of its values, so that 1 and 1.0, or 0.0 and -0.0, in
    one column keep their own."""
    write_csv(report.columns,
              tuple([_format(row.get(col)) for row in report.rows]
                    for col in report.columns),
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
