"""Price file ingestion onto a uniform sample grid, and return series.

Input files are delimiter-separated text with a header row; the date and
price columns are selected by name. Rows map one-to-one onto grid steps:
calendar gaps (weekends, holidays) are not interpolated, each row is one
step of the uniform trading-day grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Optional

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

    def date_label(self, index: int) -> str:
        """ISO date for one sample when known, else the bare index."""
        if self.dates is not None:
            return self.dates[index]
        return str(index)


@dataclass(frozen=True)
class ReturnSeries:
    """Dimensionless returns; value i is aligned to sample time i+1."""

    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("simple", "logarithmic"):
            raise ValueError(f"kind must be 'simple' or 'logarithmic', got {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")
        if self.kind == "simple" and not np.all(values > -1.0):
            raise ValueError("simple returns must exceed -1")
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


def dump_prices(series: PriceSeries, date_col: str = "Date", price_col: str = "Close") -> str:
    """Re-emit a series as delimiter-separated text, full double precision."""
    lines = [f"{date_col},{price_col}"]
    for i, value in enumerate(series.values):
        lines.append(f"{series.date_label(i)},{float(value)!r}")
    return "\n".join(lines) + "\n"


def returns(series: PriceSeries, kind: str = "logarithmic") -> ReturnSeries:
    """Per-step returns of a price series.

    simple:       r_i = (f(t_{i+1}) - f(t_i)) / f(t_i)
    logarithmic:  r_i = ln(f(t_{i+1}) / f(t_i)) = ln(1 + simple r_i)
    """
    if kind not in ("simple", "logarithmic"):
        raise ValueError(f"kind must be 'simple' or 'logarithmic', got {kind!r}")
    v = series.values
    if kind == "simple":
        vals = np.diff(v) / v[:-1]
    else:
        vals = np.diff(np.log(v))
    return ReturnSeries(kind=kind, values=vals)
