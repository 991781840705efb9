"""Price file ingestion onto a uniform sample grid, and the output text format.

Input files are delimiter-separated text with a header row; the date and
price columns are selected by name and must each appear once. Dates are
YYYY-MM-DD (ASCII digits, a real calendar day) on every supported Python,
and prices are ASCII decimal literals.
Rows map one-to-one onto grid steps: calendar gaps (weekends, holidays)
are not interpolated, each row is one step of the uniform trading-day
grid, whose interval is kernels.EstimatorSpec.spacing.

Every output is written by one of two writers here: emit_table for
comma-separated tables (header row, numbers as their repr, so floats
round-trip exactly, and an empty cell for a missing value) and emit_kv
for flat key=value summaries.
"""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Optional, Sequence

import numpy as np

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


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


def _check_price_literals(path: str, cells: list[str]) -> None:
    """Reject the first price cell that is not, once stripped, an ASCII
    decimal literal (or an inf/nan spelling, left to the finiteness check).

    Every cell was read by float(), which beyond those literals reads only
    underscores between digits and non-ASCII digits; so a stripped cell is
    plain exactly when it is ASCII without '_'. The joined column is
    checked in one pass, and cell by cell only to find the row that fails.

    Raises:
        ValueError: "row N: unparsable price" for the first such cell.
    """
    column = "".join(cells)
    if column.isascii() and "_" not in column:
        return
    for row_no, cell in enumerate(cells, start=2):
        text = cell.strip()
        if not text.isascii() or "_" in text:
            raise ValueError(f"{path} row {row_no}: unparsable price {cell!r}")


def _reject_nul(path: str, line_num: int, *cells: Optional[str]) -> None:
    """Reject a NUL byte in the date or price cell with the message the
    csv reader of Python 3.10 gives for any line that holds one (later
    versions pass NUL through into the cells)."""
    if any("\0" in cell for cell in cells if cell):
        raise ValueError(f"{path} line {line_num}: line contains NUL")


def load_prices(
    path: str,
    date_col: str = "Date",
    price_col: str = "Close",
    delimiter: str = ",",
    name: Optional[str] = None,
) -> PriceSeries:
    """Read a delimiter-separated price file.

    Header names and date and price cells are stripped of whitespace, and
    dates are kept as read. A price is an ASCII decimal literal: float()
    reads it, and it has no underscore and no non-ASCII digit. Blank lines
    are skipped and not counted: the header is row 1 and data rows are
    numbered from 2. A malformed line (a field over the csv module's size
    limit, or a NUL byte in the date or price cell) is named by its line
    number in the file instead.

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
        ValueError: missing or repeated columns, unparsable rows,
            non-finite or non-positive prices, or non-monotone dates,
            with the offending row number.
    """
    values: list[float] = []
    dates: list[str] = []
    cells: list[str] = []  # price cells float() read, in row order from row 2
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
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
            di, pi = fields.index(date_col), fields.index(price_col)
            width = max(di, pi) + 1
            for row_no, row in enumerate(filter(None, reader), start=2):  # header is row 1
                row += [None] * (width - len(row))  # a short row reads as missing cells
                day = _iso_day(row[di])
                if day is None:
                    _reject_nul(path, reader.line_num, row[di], row[pi])
                    raise ValueError(f"{path} row {row_no}: unparsable date {row[di]!r}")
                try:
                    price = float(row[pi])
                except (TypeError, ValueError) as exc:
                    _reject_nul(path, reader.line_num, row[pi])
                    raise ValueError(f"{path} row {row_no}: unparsable price {row[pi]!r}") from exc
                cells.append(row[pi])
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
        except (csv.Error, ValueError) as exc:
            _check_price_literals(path, cells)  # a price cell read before the fault wins
            if isinstance(exc, csv.Error):  # a field over csv.field_size_limit(), say
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
            raise
        _check_price_literals(path, cells)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    label = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return PriceSeries(name=label, values=np.array(values), dates=tuple(dates))


def date_labels(dates: Optional[Sequence[str]], start: int, stop: int) -> Sequence[str]:
    """Labels of source indices start..stop-1: their ISO dates when known,
    else the bare indices."""
    if dates is not None:
        return dates[start:stop]
    return list(map(str, range(start, stop)))


def _cells(column) -> Sequence[str]:
    if isinstance(column, np.ma.MaskedArray):
        masked = np.ma.getmaskarray(column).tolist()
        return ["" if m else repr(v) for v, m in zip(column.data.tolist(), masked)]
    if isinstance(column, np.ndarray):
        values = column.tolist()
        return values if column.dtype.kind == "U" else list(map(repr, values))
    return column


def emit_table(header: Sequence[str], columns: Sequence) -> str:
    """Comma-separated text: the header row, then one row per column entry.

    A numpy column is written as the repr of each .tolist() value (string
    arrays as they are), masked entries of a masked array as empty cells,
    and a None column as empty cells throughout. Any other column is a
    sequence of strings written as they are.

    Raises:
        ValueError: columns of different lengths.
    """
    lengths = {len(c) for c in columns if c is not None}
    if len(lengths) != 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    (rows,) = lengths
    cells = [[""] * rows if c is None else _cells(c) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def emit_kv(pairs: Iterable[tuple[str, object]]) -> str:
    """One key=value line per pair: strings as they are, other values by repr."""
    return "".join(f"{k}={v if isinstance(v, str) else repr(v)}\n" for k, v in pairs)


def dump_prices(series: PriceSeries, date_col: str = "Date", price_col: str = "Close") -> str:
    """Re-emit a dated series as delimiter-separated text, full double
    precision, that load_prices reads back exactly; rejects an undated one."""
    if series.dates is None:
        raise ValueError(f"series {series.name!r} has no dates to dump")
    return emit_table((date_col, price_col), (series.dates, series.values))
