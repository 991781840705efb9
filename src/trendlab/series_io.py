"""Price file ingestion onto a uniform sample grid, and the output text format.

Input files are delimiter-separated text with a header row; the date and
price columns are selected by name. Rows map one-to-one onto grid steps:
calendar gaps (weekends, holidays) are not interpolated, each row is one
step of the uniform trading-day grid.

Every output is written by one of two writers here: emit_table for
comma-separated tables (header row, numbers as their repr, so floats
round-trip exactly, and an empty cell for a missing value) and emit_kv
for flat key=value summaries.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PriceSeries:
    """Uniformly indexed positive price samples.

    Attributes:
        name: text label for reports.
        values: price samples in currency units, strictly positive.
        spacing: sample interval in trading days (default 1).
        epoch: calendar date of the first sample, when known; index i
            sits at time epoch + i * spacing on the trading-day grid.
        dates: per-row ISO date strings as read from the file, when known.
    """

    name: str
    values: np.ndarray
    spacing: float = 1.0
    epoch: Optional[date] = None
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
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")
        if self.dates is not None and len(self.dates) != len(values):
            raise ValueError(
                f"dates length {len(self.dates)} does not match values length {len(values)}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def load_prices(
    path: str,
    date_col: str = "Date",
    price_col: str = "Close",
    delimiter: str = ",",
    name: Optional[str] = None,
) -> PriceSeries:
    """Read a delimiter-separated price file.

    Args:
        path: file location.
        date_col: header name of the date column (ISO-8601 dates).
        price_col: header name of the price column.
        delimiter: field separator.
        name: series label; defaults to the file's base name.

    Returns:
        PriceSeries on the uniform trading-day grid, row order preserved.

    Raises:
        ValueError: missing columns, unparsable rows, non-finite or
            non-positive prices, or non-monotone dates, with the offending
            row number.
    """
    values: list[float] = []
    dates: list[date] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        fields = [f.strip() for f in reader.fieldnames]
        if date_col not in fields or price_col not in fields:
            raise ValueError(
                f"{path}: missing column(s); have {fields}, need {date_col!r} and {price_col!r}"
            )
        for row_no, row in enumerate(reader, start=2):  # header is row 1
            raw = {(k.strip() if k else k): v for k, v in row.items()}
            try:
                day = date.fromisoformat(raw[date_col].strip())
            except (ValueError, AttributeError, KeyError) as exc:
                raise ValueError(f"{path} row {row_no}: unparsable date {raw.get(date_col)!r}") from exc
            try:
                price = float(raw[price_col])
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path} row {row_no}: unparsable price {raw.get(price_col)!r}"
                ) from exc
            if not math.isfinite(price):
                raise ValueError(f"{path} row {row_no}: non-finite price {price!r}")
            if not price > 0:
                raise ValueError(f"{path} row {row_no}: non-positive price {price!r}")
            if dates and day <= dates[-1]:
                raise ValueError(
                    f"{path} row {row_no}: non-monotone dates ({day} after {dates[-1]})"
                )
            dates.append(day)
            values.append(price)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    label = name if name is not None else path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return PriceSeries(
        name=label,
        values=np.array(values),
        epoch=dates[0],
        dates=tuple(d.isoformat() for d in dates),
    )


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
    """Re-emit a series as delimiter-separated text, full double precision."""
    return emit_table((date_col, price_col), (date_labels(series.dates, 0, len(series)), series.values))
