"""Machine-readable CSV output for every command.

One file holds a per-bit table followed by a summary block.  Summary
lines are prefixed with ``#`` so the table parses with any CSV reader;
the toolkit's own reader returns both parts and round-trips exactly
(floats are written as repr writes them, which is lossless for doubles).

Rows are a tuple of equal-length columns, read where they lie and
formatted in even pieces of at most `_DUMP_PIECE` rows and
`_FLOAT_CELLS` float cells, in one pass of the thread runner
`lookup._run_parts`, byte for byte as ``csv.writer`` writes the same
rows as Python objects.  A piece is one UTF-8 text: each numeric column
gives every row the same ASCII slots and a keep mask, and one boolean
select of all of them, with a comma slot after each column and a
newline after the last, gives the piece's bytes.  Integer and bool
columns (a bool as 0 or 1) take a sign slot and right-aligned digit
slots (`_int_piece`).  Float64 columns take the bytes of
``float.__repr__`` from one array pass (`_float_piece`): it scales each
double and the ends of its rounding interval to 17 integer digits in
double-double arithmetic, takes the shortest digits inside the interval
that lie nearest the double, and lays them out in repr's positional or
exponent notation.  A lane is written only where that arithmetic is
certain: one whose interval end or rounding midpoint lies within
`_UNCERTAIN` of an integer in the scaled units, a non-finite one, or
one outside [1e-280, 1e280] (where the scaling could leave the float
range) takes repr itself, and exact zeros are written directly.  A run
of adjacent text columns (str, or None for an empty cell) holds one
placeholder slot, where each row's cells, joined by commas, are spliced
in, so no byte matrix is as wide as the longest text cell; a text
column is checked for cells to quote once, as a whole.  ``csv.writer``
itself writes only the header and quotes the text cells that need it.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from dataclasses import dataclass, field
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import lookup
from .errors import ConfigError

_DUMP_PIECE = 1 << 16  # rows per piece of the column path
#: float cells per piece: a float cell costs some 40 times an integer one,
#: so rows that hold floats are cut finer, into pieces whose pass's
#: temporaries stay small and that share out over the parts (the 9 750-row
#: family sweep's five float columns make two pieces: 14.3 ms at best to
#: write, against 16.5 ms as one piece and 18.9 ms as six)
_FLOAT_CELLS = 1 << 15
_QUOTED = re.compile('[,"\r\n]')  # text cells that csv.writer may quote
_POWERS = 10 ** np.arange(18, dtype=np.int64)
#: scaled units (17 integer digits) within which an interval end or a
#: rounding midpoint leaves its lane to repr; the double-double scaling
#: errs by about 1e-15 of them
_UNCERTAIN = 1e-7
_TEXT_RUN = 0  # placeholder byte of a run of text cells; no numeric slot holds it


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


def _digits(magnitude, places: int) -> np.ndarray:
    """The last `places` decimal digits of the unsigned `magnitude` as a
    (places, rows) ASCII matrix, one slot per place, most significant
    first.

    Each digit is m - 10 (m // 10): numpy divides by a constant far
    faster than np.divmod does, and faster still on uint32, which callers
    pass when the magnitudes fit.
    """
    digits = np.empty((places, len(magnitude)), np.uint8)
    for place in range(places - 1, -1, -1):
        tens = magnitude // 10
        digits[place] = magnitude - tens * 10
        magnitude = tens
    digits += ord("0")
    return digits


def _int_piece(columns) -> list:
    """The (text, keep) slots of each of the equal-length integer or bool
    `columns`, whose kept slots are ``str(int)`` of each value.

    A column gets a sign slot (when it is signed and holds a negative
    value) and right-aligned digit slots as wide as its largest
    magnitude; the keep mask drops the unused sign slots and the leading
    zeros.
    """
    pieces = []
    for values in columns:
        magnitude, text, keep = values, [], []
        if values.dtype == bool:
            magnitude = values.view(np.uint8)
        elif values.dtype.kind == "i":  # unsigned and bool columns have no sign
            magnitude = values.astype(np.uint64)  # two's complement: exact for int64's minimum
            minus = values < 0
            np.negative(magnitude, out=magnitude, where=minus)
            if minus.any():
                text.append(np.full(len(values), ord("-"), np.uint8))
                keep.append(minus)
        largest = int(magnitude.max(initial=0))
        if magnitude.itemsize > 4 and largest < 1 << 32:
            magnitude = magnitude.astype(np.uint32)
        places = len(str(largest))
        leading = [10 ** place for place in range(places - 1, 0, -1)] + [0]  # kept from here up
        text.extend(_digits(magnitude, places))
        keep.extend(magnitude >= np.array(leading, magnitude.dtype)[:, None])
        pieces.append((text, keep))
    return pieces


@functools.cache
def _power_of_ten(exponent: int) -> tuple[float, float]:
    """10**exponent as a double-double (hi, lo): hi rounded to nearest and
    lo the rounded rest, from exact integer arithmetic."""
    if exponent >= 0:
        power = 10 ** exponent
        hi = float(power)
        return hi, float(power - int(hi))
    power = 10 ** -exponent
    hi = 1 / power  # int true division rounds correctly
    numerator, denominator = hi.as_integer_ratio()
    return hi, (denominator - numerator * power) / (denominator * power)


def _split(x):
    """Veltkamp's split of doubles into halves of 26 bits, whose products
    are exact."""
    scaled = x * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _repr_lanes(values) -> np.ndarray:
    """``float.__repr__`` of each of the float64 `values`, as rows of 24
    ASCII slots padded with 0 bytes: no double's repr is longer."""
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype="S24")
    return texts.view(np.uint8).reshape(len(values), 24)


def _float_piece(columns) -> list:
    """The (text, keep) slot matrices of each of the equal-length float64
    `columns`, whose kept slots are the bytes of ``float.__repr__`` of
    each value, from one array pass over all of them.

    Each |x| in [1e-280, 1e280] is scaled by 10**s to X in [1e16, 1e17]
    (17 integer digits) as the double-double n + f (n an integer), by
    Dekker's exact product with 10**s's own double-double, and so are
    the ends of its rounding interval, x less half the gap to the double
    below and x plus half the gap above.  repr's digits are the multiple
    of the largest power of ten 10**d inside the interval nearest X; the
    interval is 1.1 to 23 units wide, so 17 digits always hold one.
    """
    rows = len(columns[0])
    values = np.concatenate(columns) if len(columns) > 1 else columns[0]
    magnitude = np.abs(values)
    scaled = (magnitude >= 1e-280) & (magnitude <= 1e280)
    zero = magnitude == 0
    magnitude = np.where(scaled, magnitude, 1.0)
    s = 16 - np.floor(np.log10(magnitude) - 1e-10).astype(np.int64)  # X >= 1e16
    low = int(s.min(initial=0))
    his, los = np.array([_power_of_ten(e) for e in range(low, int(s.max(initial=0)) + 1)]).T
    hi, lo = his[s - low], los[s - low]
    product = magnitude * hi
    (x_hi, x_lo), (p_hi, p_lo) = _split(magnitude), _split(hi)
    rest = ((x_hi * p_hi - product) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    rest += magnitude * lo
    whole = np.floor(rest)
    n = product.astype(np.int64) + whole.astype(np.int64)  # product >= 1e16 is an integer
    f = rest - whole
    fraction, exponent = np.frexp(magnitude)
    above = np.ldexp(hi, exponent - 54)  # half the gap above, scaled
    below = np.where(fraction == 0.5, above / 2, above)  # a power of two's gap below is half
    start, end = f - below, f + above  # the interval, less n
    first, last = np.ceil(start), np.floor(end)
    certain = (scaled & (np.minimum(first - start, start - first + 1) > _UNCERTAIN)
               & (np.minimum(end - last, last + 1 - end) > _UNCERTAIN))
    outside, top = n + first.astype(np.int64) - 1, n + last.astype(np.int64)
    # 10**d has a multiple in (outside, top] iff top % 10**d < top - outside
    # (at most 23), which holds for d up to some largest one: from 10**2 on,
    # iff top % 100 does and top // 100 ends in d - 2 zeros, which the
    # doubles below 2**53 test exactly
    span, tens, hundreds = top - outside, top // 10, top // 100
    d = (top - tens * 10 < span).astype(np.int64)
    lanes = np.flatnonzero(top - hundreds * 100 < span)
    hundreds = hundreds[lanes, None].astype(np.float64)
    d[lanes] += 1 + (np.floor(hundreds / _POWERS[1:16]) * _POWERS[1:16] == hundreds).sum(1)
    power = _POWERS[d]
    q = n // power
    midpoint = (2 * (n - q * power) - power) + 2 * f  # twice X's offset from the midpoint
    certain &= np.abs(midpoint) > 2 * _UNCERTAIN
    q = np.minimum(np.maximum(q + (midpoint > 0), outside // power + 1), top // power)
    q[zero] = 0
    digits = np.searchsorted(_POWERS[1:18], q, side="right") + 1
    decpt = np.where(zero, 1, digits + d - s)
    e = decpt - 1  # the exponent
    positional = (decpt > -4) & (decpt <= 16)
    # 29 slots: "-0.000" (a positional value below 1 writes "0." and -decpt
    # zeros), 18 body slots and "e", the exponent's sign and three digits;
    # the body holds the digits and the point: after digit decpt in
    # positional notation from 1 up (with zeros up to it and ".0" if the
    # digits end before it), after the first digit in exponent notation
    # (if there are more), and none (a gap past the digits) otherwise
    point = np.where(positional, np.where(decpt > 0, decpt, 17), 1)
    body = np.where(positional, np.where(decpt > 0, np.maximum(digits, decpt + 1) + 1, digits),
                    digits + (digits > 1))
    keep = np.empty((29, len(values)), bool)
    keep[0] = np.signbit(values)
    keep[1:6] = positional & (decpt <= np.array([0, 0, -1, -2, -3])[:, None])
    keep[6:24] = np.arange(18, dtype=np.int8)[:, None] < body.astype(np.int8)
    keep[24:] = ~positional
    keep[26] &= np.abs(e) >= 100
    q *= _POWERS[17 - digits]  # the digits from the left
    power = _POWERS[17 - point]
    q += 9 * (q // power) * power  # a 0 digit at the point
    head = q // 10 ** 9
    text = np.empty((29, len(values)), np.uint8)
    text[:6] = np.frombuffer(b"-0.000", np.uint8)[:, None]
    text[6:15] = _digits(head.astype(np.uint32), 9)
    text[15:24] = _digits((q - head * 10 ** 9).astype(np.uint32), 9)
    text[6 + point, np.arange(len(values))] = ord(".")
    text[24] = ord("e")
    text[25] = np.where(e < 0, ord("-"), ord("+"))
    text[26:] = _digits(np.abs(e).astype(np.uint32), 3)
    uncertain = np.flatnonzero(~(certain | zero))
    if len(uncertain):
        texts = _repr_lanes(values[uncertain])
        text[:24, uncertain] = texts.T
        keep[:, uncertain] = np.arange(29)[:, None] < np.count_nonzero(texts, axis=1)
    pieces = []
    for k in range(len(columns)):  # each column's slots that some row keeps
        text_k, keep_k = text[:, k * rows:(k + 1) * rows], keep[:, k * rows:(k + 1) * rows]
        used = np.flatnonzero(keep_k.any(axis=1))
        pieces.append(([text_k[j] for j in used], [keep_k[j] for j in used]))
    return pieces


def _text(value) -> str:
    """A text cell as ``csv.writer`` writes it among other cells."""
    if value is None or not _QUOTED.search(value):
        return value or ""
    buffer = io.StringIO()  # the quoting as csv.writer does it
    csv.writer(buffer, lineterminator="\n").writerow((value, ""))
    return buffer.getvalue()[:-2]


def _numeric(values, kinds="fbiu") -> bool:
    return isinstance(values, np.ndarray) and values.dtype.kind in kinds


def text_cells(values) -> list[str]:
    """The cells of one column: a numeric array's as :func:`_piece`
    writes them, and any other sequence's str or None values as they
    are (None as an empty cell), or by :func:`_text` when one check of
    the whole column finds a cell that csv.writer may quote."""
    if _numeric(values):
        return _piece([values]).decode("ascii").split("\n")[:-1]
    if not _QUOTED.search("".join(filter(None, values))):
        return [value or "" for value in values]
    texts = {value: _text(value) for value in set(values)}
    return list(map(texts.__getitem__, values))


def _piece(columns) -> bytes:
    """The rows of the equal-length `columns` as one UTF-8 text: the
    numeric columns' slots and a placeholder slot for each run of
    adjacent text columns, a comma slot after each and a newline after
    the last, selected at once; then each row's text runs, their cells
    joined by commas, spliced in at the placeholders."""
    rows, floats = len(columns[0]), [values for values in columns if _numeric(values, "f")]
    floats = iter(_float_piece(floats) if floats else ())
    integers = iter(_int_piece([values for values in columns if _numeric(values, "biu")]))
    comma, everywhere = np.full(rows, ord(","), np.uint8), np.ones(rows, bool)
    slots, keeps, runs = [], [], []
    for numeric, group in groupby(columns, key=_numeric):
        if numeric:
            for values in group:
                text, keep = next(floats if _numeric(values, "f") else integers)
                slots += [*text, comma]
                keeps += [*keep, everywhere]
            continue
        cells = [text_cells(values) for values in group]
        if len(columns) == 1:  # csv.writer quotes a row's lone empty cell
            cells = [[cell or '""' for cell in cells[0]]]
        runs.append(cells[0] if len(cells) == 1 else list(map(",".join, zip(*cells))))
        slots += [np.full(rows, _TEXT_RUN, np.uint8), comma]
        keeps += [everywhere, everywhere]
    slots[-1] = np.full(rows, ord("\n"), np.uint8)
    text = np.stack(slots, axis=1)[np.stack(keeps, axis=1)].tobytes()
    if not runs:
        return text
    parts = text.decode("ascii").split(chr(_TEXT_RUN))
    return "".join(chain.from_iterable(zip(parts, chain(
        chain.from_iterable(zip(*runs)), ("",))))).encode()


def write_csv(columns, rows, summary: dict, path) -> None:
    """Stream one output file: the header, `rows` and the summary block.

    The one CSV writer of the toolkit.  `rows` is a tuple of
    equal-length columns, one per name in `columns`: float64, integer or
    bool numpy arrays, or sequences of str or None, formatted in pieces
    by :func:`_piece`.  Summary values are written by :func:`_format`, as
    the csv module writes them (None as an empty cell, floats by repr).
    """
    total, floats = len(rows[0]), sum(_numeric(values, "f") for values in rows)
    most = min(_DUMP_PIECE, max(1, _FLOAT_CELLS // floats)) if floats else _DUMP_PIECE
    pieces = -(-total // most)
    size = -(-total // pieces) if pieces else 1  # rows per piece, as even as they go
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(columns)
    with open(path, "wb") as handle:
        handle.write(header.getvalue().encode())
        handle.writelines(lookup._run_parts(
            lookup._pool_width(), range(0, total, size),
            lambda p, start: _piece([values[start:start + size] for values in rows])))
        handle.write("".join(f"# {key},{_format(value)}\n"
                             for key, value in summary.items()).encode())


def _column(values: list):
    """A column of Python values as :func:`write_csv` takes it: float64
    when every value is a float, int64 when every one is an int in its
    range (bools are not), and otherwise the text of each, so that 1 and
    1.0, or 0.0 and -0.0, in one column keep their own."""
    types = set(map(type, values))
    try:
        if types <= {float}:
            return np.array(values, dtype=np.float64)
        if types == {int}:
            return np.array(values, dtype=np.int64)
    except OverflowError:  # an int past int64
        pass
    return list(map(_format, values))


def write_report(report: CsvReport, path) -> None:
    """Write a :class:`CsvReport` through :func:`write_csv`, each column
    as :func:`_column` gives it."""
    write_csv(report.columns,
              tuple(_column([row.get(col) for row in report.rows]) for col in report.columns),
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
