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
from typing import Optional

from .adversary import GuessRecord
from .errors import ConfigError
from .protocol import STATUS_SECURE, SessionReport

SCHEMA_VERSION = "kljn-csv-1"

SESSION_COLUMNS = [
    "index", "variant", "alice_r", "alice_t", "bob_r", "bob_t",
    "s_u", "s_i", "p_ab", "status", "alice_bit", "bob_bit",
    "shared_key_bit", "eve_guess", "eve_correct",
]


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


def session_to_report(report: SessionReport,
                      guess_record: Optional[GuessRecord] = None) -> CsvReport:
    guesses = {}
    if guess_record is not None:
        for idx, guess, truth in zip(guess_record.bit_indices,
                                     guess_record.guesses, guess_record.truths):
            guesses[idx] = (guess, int(guess == truth))
    rows = []
    for o in report.outcomes:
        guess, correct = guesses.get(o.index, (None, None))
        rows.append({
            "index": o.index,
            "variant": report.variant,
            "alice_r": o.alice_draw.resistance,
            "alice_t": o.alice_draw.temperature,
            "bob_r": o.bob_draw.resistance,
            "bob_t": o.bob_draw.temperature,
            "s_u": o.observables.s_u if o.observables else None,
            "s_i": o.observables.s_i if o.observables else None,
            "p_ab": o.observables.p_ab if o.observables else None,
            "status": o.status,
            "alice_bit": o.alice_bit,
            "bob_bit": o.bob_bit,
            "shared_key_bit": o.shared_key_bit,
            "eve_guess": guess,
            "eve_correct": correct,
        })
    summary = {
        "schema": SCHEMA_VERSION,
        "variant": report.variant,
        "mode": report.mode,
        "master_seed": report.master_seed,
        "total_bits": report.total_bits,
        "secure_bits": report.counts.get(STATUS_SECURE, 0),
        "efficiency": report.efficiency,
    }
    for status, count in sorted(report.counts.items()):
        summary[f"count_{status}"] = count
    if guess_record is not None:
        summary["eve_strategy"] = guess_record.strategy
        summary["eve_accuracy"] = guess_record.accuracy
        interval = guess_record.wilson_interval()
        if interval is not None:
            summary["eve_wilson99_low"], summary["eve_wilson99_high"] = interval
    return CsvReport(columns=list(SESSION_COLUMNS), rows=rows, summary=summary)


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
