"""Machine-readable CSV output for every command.

One file holds a per-bit table followed by a summary block.  Summary
lines are prefixed with ``#`` so the table parses with any CSV reader;
the toolkit's own reader returns both parts and round-trips exactly
(floats are serialized with repr, which is lossless for doubles).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


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


def write_csv(columns, rows, summary: dict, path) -> None:
    """Stream one output file: the header, `rows` (value sequences in
    `columns` order) and the summary block.

    The one CSV writer of the toolkit.  The csv module writes None as
    an empty cell and floats with repr, as :func:`_format` does for the
    summary values.
    """
    with open(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
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
