"""Price file ingestion onto a uniform sample grid, and the output text format.

Input files are UTF-8, delimiter-separated text with a header row; the
date and price columns are selected by name and must each appear once.
Dates are YYYY-MM-DD (ASCII digits, a real calendar day) on every
supported Python, and prices are ASCII decimal literals.
Rows map one-to-one onto grid steps: calendar gaps (weekends, holidays)
are not interpolated, each row is one step of the uniform trading-day
grid, whose interval is kernels.EstimatorSpec.spacing.

Quote-free text is checked a column at a time: its line ends (CR LF, a
lone CR or LF, as the csv reader ends a line at each) become LF, and it
splits on them and on the delimiter, one block of lines at a time, and
the date and price columns are checked as wholes. Text with a quote
character is read row by row by the csv module's reader, in the same loop
that, when a column check fails, names the first faulty row with its
message. Beside the series it returns, a load of LF text holds at most 2
bytes of scratch per byte of the file (its bytes and its text while
decoding) plus 8 bytes per character of one block (_BLOCK_CHARS); text
with a CR adds its copy with LF line ends, at most 3 bytes per byte in
all. The row pass adds the csv reader's copy of the text at 4 bytes a
character.

Every output is written by one of two writers here: emit_table for
comma-separated tables (header row, numbers as their repr, so floats
round-trip exactly, and an empty cell for a missing value) and emit_kv
for flat key=value summaries. A column with missing values is a plain
(values, defined) pair of arrays, so no caller needs numpy.ma. emit_table
formats _EMIT_ROWS rows at a time, so emission holds the cells of one
block of rows beside the text, never those of the whole table.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from datetime import date
from itertools import chain
from operator import itemgetter, methodcaller
from typing import Iterable, Optional, Sequence

import numpy as np

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# characters tokenized at once: a block splits at the first line end past them
_BLOCK_CHARS = 1 << 16
# table rows whose cells emit_table holds as strings at once
_EMIT_ROWS = 1024


@dataclass(frozen=True)
class PriceSeries:
    """Uniformly indexed positive price samples.

    Attributes:
        name: text label for reports and output file names.
        values: price samples in currency units, strictly positive.
        dates: per-row ISO date strings as read from the file, when known.
    """

    name: str
    values: np.ndarray
    dates: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        if len(values) < 2:
            raise ValueError(f"need at least 2 samples, got {len(values)}")
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"non-finite price {float(values[bad])!r} at index {bad}")
        if not np.all(values > 0):
            bad = int(np.argmin(values > 0))
            raise ValueError(f"non-positive price {values[bad]!r} at index {bad}")
        if self.dates is not None and len(self.dates) != len(values):
            raise ValueError(
                f"dates length {len(self.dates)} does not match values length {len(values)}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def _iso_day(cell: Optional[str]) -> Optional[str]:
    """The stripped cell when it is a YYYY-MM-DD date that exists, else None."""
    day = (cell or "").strip()
    if _ISO_DATE.fullmatch(day):
        try:
            date.fromisoformat(day)
            return day
        except ValueError:
            pass
    return None


def _line_num(head: bytes) -> int:
    """The csv reader's line_num for a fault just after head: one more than
    the line ends in head, where each of CR LF, CR and LF ends one line."""
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _read_text(path: str) -> str:
    """The file's UTF-8 text without a leading byte-order mark. The first
    byte that is not UTF-8, else the first NUL byte, is named by its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = _line_num(exc.object[: exc.start])
        raise ValueError(f"{path} line {line}: not UTF-8 text ({exc.reason})") from exc
    nul = data.find(b"\0")
    if nul >= 0:
        raise ValueError(f"{path} line {_line_num(data[:nul])}: line contains NUL")
    return text


def _column_indices(path: str, header: Optional[list[str]], date_col: str,
                    price_col: str) -> tuple[int, int]:
    """Indices of the date and price columns in the header row."""
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    fields = [f.strip() for f in header]
    if date_col not in fields or price_col not in fields:
        raise ValueError(
            f"{path}: missing column(s); have {fields}, need {date_col!r} and {price_col!r}"
        )
    for col in (date_col, price_col):
        if fields.count(col) > 1:
            raise ValueError(f"{path}: repeated column {col!r} in header {fields}")
    return fields.index(date_col), fields.index(price_col)


def _pick(rows: Iterable[list[str]], di: int, pi: int) -> Optional[tuple[list, list]]:
    """The date and price cells of rows, or None when a row lacks either."""
    try:
        cells = list(chain.from_iterable(map(itemgetter(di, pi), rows)))
    except IndexError:
        return None
    return cells[0::2], cells[1::2]


def _plain_blocks(text: str, start: int, delimiter: str, di: int, pi: int):
    """Yield the date and price cells of the rows of plain text from index
    start on, one block of about _BLOCK_CHARS characters at a time, and
    None for a block with a row that lacks either cell or a field longer
    than the csv reader takes."""
    limit = csv.field_size_limit()
    while start < len(text):
        stop = text.find("\n", start + _BLOCK_CHARS)
        if stop < 0:
            stop = len(text)
        block = text[start:stop].strip("\n")
        start = stop + 1
        if not block:
            continue
        # one split: each line's last cell keeps its newline, so the lines
        # all have one width when the newlines all fall in every width-th
        # cell; a float and a stripped date ignore the newline
        lines = block.count("\n") + 1
        cells = block.replace("\n", "\n" + delimiter).split(delimiter)
        width, rest = divmod(len(cells), lines)
        if rest == 0 and "".join(cells[width - 1::width]).count("\n") == lines - 1:
            column = None if max(di, pi) >= width else (cells[di::width], cells[pi::width])
        else:  # rows of several widths, or blank lines, which are skipped
            rows = map(methodcaller("split", delimiter), filter(None, block.split("\n")))
            column = _pick(rows, di, pi)
        if len(block) > limit and max(map(len, cells)) > limit:
            column = None
        yield column


def _increasing_days(cells: list[str]) -> bool:
    """Whether cells are ASCII YYYY-MM-DD dates of real calendar days from
    year 1 on, in strictly increasing order."""
    n = len(cells)
    # NULs between the cells, which hold none (the text has none): with one
    # in every 11th byte and ASCII digits and dashes in all the others,
    # each cell is ten ASCII characters
    raw = "\0".join(cells).encode()
    if not (n and len(raw) == 11 * n - 1 and raw[10::11] == b"\0" * (n - 1)
            and raw[4::11] == raw[7::11] == b"-" * n
            and all(raw[k::11].isdigit() for k in (0, 1, 2, 3, 5, 6, 8, 9))):
        return False
    try:
        days = np.array(cells, dtype="datetime64[D]").view(np.int64)
    except ValueError:  # a month or a day out of range
        return False
    # in increasing order only the first can be in year 0, which numpy reads
    return bool((days[1:] > days[:-1]).all()) and not cells[0].startswith("0000")


def _column_pass(path: str, text: str, date_col: str, price_col: str,
                 delimiter: str) -> Optional[tuple[tuple[str, ...], np.ndarray]]:
    """The dates and prices of quote-free text when every column check
    passes, else None, as for any text with a quote character. A header
    fault raises as in the row loop."""
    if '"' in text:
        return None
    if "\r" in text:
        # the csv reader ends a line at CR LF, at a lone CR and at LF alike
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    csv.reader((), delimiter=delimiter)  # the csv reader's check of the delimiter
    end = text.find("\n")
    head = text if end < 0 else text[:end]
    if len(head) > csv.field_size_limit():
        return None
    # as csv.reader: no row in an empty text, an empty row for a blank line
    header = head.split(delimiter) if head else ([] if text else None)
    di, pi = _column_indices(path, header, date_col, price_col)
    blocks = _plain_blocks(text, len(head) + 1, delimiter, di, pi)
    # float() also reads underscores between digits and non-ASCII digits:
    # the literals need a look only in a text that has either
    literals = not text.isascii() or "_" in text
    dates: list[str] = []
    floats = [np.empty(0)]
    for column in blocks:
        if column is None:
            return None
        days, prices = column
        if literals and ("_" in "".join(prices) or not "".join(map(str.strip, prices)).isascii()):
            return None
        try:
            floats.append(np.fromiter(map(float, prices), float, len(prices)))
        except ValueError:
            return None
        dates += days
    values = np.concatenate(floats)
    if not _increasing_days(dates):
        dates = [day.strip() for day in dates]  # padded cells, say
        if not _increasing_days(dates):
            return None
    if not (np.isfinite(values).all() and (values > 0).all()):
        return None
    return tuple(dates), values


def _row_pass(path: str, text: str, date_col: str, price_col: str,
              delimiter: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The dates and prices of text, read by the csv reader and checked one
    row at a time: the first faulty row, or a malformed line, raises its
    error. It reads any text, and is the only reader of text with a quote
    character."""
    plain = text.isascii() and "_" not in text
    values: list[float] = []
    dates: list[str] = []
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        di, pi = _column_indices(path, next(reader, None), date_col, price_col)
        width = max(di, pi) + 1
        for row_no, row in enumerate(filter(None, reader), start=2):  # header is row 1
            row += [None] * (width - len(row))  # a short row reads as missing cells
            day = _iso_day(row[di])
            if day is None:
                raise ValueError(f"{path} row {row_no}: unparsable date {row[di]!r}")
            cell = row[pi]
            try:
                price = float(cell)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} row {row_no}: unparsable price {cell!r}") from exc
            if not plain and (not cell.strip().isascii() or "_" in cell):
                raise ValueError(f"{path} row {row_no}: unparsable price {cell!r}")
            if not math.isfinite(price):
                raise ValueError(f"{path} row {row_no}: non-finite price {price!r}")
            if not price > 0:
                raise ValueError(f"{path} row {row_no}: non-positive price {price!r}")
            # fixed-width YYYY-MM-DD strings order as their dates do
            if dates and day <= dates[-1]:
                raise ValueError(
                    f"{path} row {row_no}: non-monotone dates ({day} after {dates[-1]})"
                )
            dates.append(day)
            values.append(price)
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return tuple(dates), np.array(values)


def load_prices(
    path: str,
    date_col: str = "Date",
    price_col: str = "Close",
    delimiter: str = ",",
    name: Optional[str] = None,
) -> PriceSeries:
    """Read a delimiter-separated price file.

    The file is UTF-8 text; a leading byte-order mark is dropped. A byte
    that is not UTF-8, or a NUL byte anywhere, rejects the whole file
    before any row is read, named by its line number in the file. Header
    names and date and price cells are stripped of whitespace, and dates
    are kept as read. A price is an ASCII decimal literal: float() reads
    it, and it has no underscore and no non-ASCII digit. Blank lines are
    skipped and not counted: the header is row 1 and data rows are
    numbered from 2. A malformed line (a field over the csv module's size
    limit) is named by its line number in the file instead.

    Quote-free text is split on line ends (CR LF, a lone CR or LF) and
    the delimiter, and its date and price columns are checked whole: the
    date grammar, the calendar and the date order, then float() over the
    prices and their finiteness and sign. Only when a check fails does
    the row loop read the text again, to raise the first faulty row's
    error. Text with a quote character goes to the row loop at once,
    which reads it with csv.reader. Beside the series, LF text takes
    about two bytes of scratch per byte of the file plus one block of
    lines, text with a CR three; see the module docstring.

    Args:
        path: file location.
        date_col: header name of the date column.
        price_col: header name of the price column.
        delimiter: field separator.
        name: series label; defaults to the file's base name without its
            extension, which the CLI also uses as its output file stem.

    Returns:
        PriceSeries on the uniform trading-day grid, row order preserved.

    Raises:
        ValueError: bytes that are not UTF-8 text or a NUL byte, missing
            or repeated columns, unparsable rows, non-finite or
            non-positive prices, or non-monotone dates, with the
            offending line or row number.
    """
    text = _read_text(path)
    columns = _column_pass(path, text, date_col, price_col, delimiter)
    dates, values = columns or _row_pass(path, text, date_col, price_col, delimiter)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    label = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return PriceSeries(name=label, values=values, dates=dates)


def date_labels(dates: Optional[Sequence[str]], start: int, stop: int) -> Sequence[str]:
    """Labels of source indices start..stop-1: their ISO dates when known,
    else the bare indices."""
    if dates is not None:
        return dates[start:stop]
    return list(map(str, range(start, stop)))


def _is_pair(column) -> bool:
    """Whether column is a (values, defined) pair rather than a sequence
    of strings, which never holds an array."""
    return isinstance(column, tuple) and len(column) == 2 and isinstance(column[1], np.ndarray)


def _cells(column, lo: int, hi: int) -> Sequence[str]:
    """The cells of rows lo..hi-1 of one emit_table column."""
    if column is None:
        return [""] * (hi - lo)
    if _is_pair(column):
        values, defined = column
        return [repr(v) if d else "" for v, d in zip(values[lo:hi].tolist(), defined[lo:hi].tolist())]
    if isinstance(column, np.ndarray):
        values = column[lo:hi].tolist()
        return values if column.dtype.kind == "U" else list(map(repr, values))
    return column[lo:hi]


def emit_table(header: Sequence[str], columns: Sequence) -> str:
    """Comma-separated text: the header row, then one row per column entry.

    A numpy column is written as the repr of each .tolist() value (string
    arrays as they are), and a None column as empty cells throughout. A
    column with missing values is a (values, defined) pair of equal-length
    arrays: the repr of each value where defined is True, an empty cell
    where it is False. Any other column is a sequence of strings written
    as they are. Rows are formatted _EMIT_ROWS at a time: beside the text
    it returns, emission holds the formatted blocks (the text once more)
    and the cells of one block of rows, never those of the whole table.

    Raises:
        ValueError: columns of different lengths.
    """
    lengths = {len(part) for c in columns if c is not None for part in (c if _is_pair(c) else (c,))}
    if len(lengths) != 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    (rows,) = lengths
    blocks = [",".join(header)]
    for lo in range(0, rows, _EMIT_ROWS):
        cells = [_cells(c, lo, min(lo + _EMIT_ROWS, rows)) for c in columns]
        blocks.append("\n".join(map(",".join, zip(*cells))))
    blocks.append("")  # the last line end, without a copy of the text to add it
    return "\n".join(blocks)


def emit_kv(pairs: Iterable[tuple[str, object]]) -> str:
    """One key=value line per pair: strings as they are, other values by repr."""
    return "".join(f"{k}={v if isinstance(v, str) else repr(v)}\n" for k, v in pairs)


def dump_prices(series: PriceSeries, date_col: str = "Date", price_col: str = "Close") -> str:
    """Re-emit a dated series as delimiter-separated text, full double
    precision, that load_prices reads back exactly; rejects an undated one."""
    if series.dates is None:
        raise ValueError(f"series {series.name!r} has no dates to dump")
    return emit_table((date_col, price_col), (series.dates, series.values))
