"""The text writers against the per-cell loops they replaced.

series_io.emit_table writes every CSV output. Each oracle below is the
per-cell loop its emitter used before, kept verbatim apart from the date
label rule inlined; the properties require string equality.
"""
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab.series_io as series_io
from trendlab.cli import main
from trendlab.decompose import emit_decomposition, sliding_trend
from trendlab.forecast import first_forecast_origin, forecast_point
from trendlab.kernels import EstimatorSpec, build_kernel_bank, emit_weights
from trendlab.moments import emit_moments, moment_tracks, rolling_central_moment
from trendlab.series_io import PriceSeries, dump_prices, emit_table, load_prices


def label(dates, i):
    return dates[i] if dates is not None else str(i)


def old_emit_decomposition(dec):
    lines = ["index,date,price,trend,d1,d2,fluctuation"]
    src = dec.source
    for a in range(len(dec)):
        i = a + dec.warmup
        d1 = repr(float(dec.d1[a])) if dec.d1 is not None else ""
        d2 = repr(float(dec.d2[a])) if dec.d2 is not None else ""
        lines.append(
            f"{i},{label(src.dates, i)},{float(src.values[i])!r},"
            f"{float(dec.trend[a])!r},{d1},{d2},{float(dec.fluctuation[a])!r}"
        )
    return "\n".join(lines) + "\n"


def old_emit_moments(track, dates=None, offset=0):
    lines = ["index,date,std,skew,kurt"]
    for p in range(len(track)):
        i = p + track.warmup + offset
        skew = repr(float(track.skew[p])) if track.defined[p] else ""
        kurt = repr(float(track.kurt[p])) if track.defined[p] else ""
        lines.append(f"{i},{label(dates, i)},{float(track.std[p])!r},{skew},{kurt}")
    return "\n".join(lines) + "\n"


def old_emit_weights(bank):
    header = "offset," + ",".join(f"w_{v}" for v in range(bank.spec.degree + 1))
    lines = [header]
    for j, tau in enumerate(bank.offsets):
        row = [repr(float(tau))] + [repr(float(w[j])) for w in bank.weights]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def old_dump_prices(series, date_col="Date", price_col="Close"):
    lines = [f"{date_col},{price_col}"]
    for i, value in enumerate(series.values):
        lines.append(f"{label(series.dates, i)},{float(value)!r}")
    return "\n".join(lines) + "\n"


def old_forecast_rows(series, spec, fast_window, M, horizons, level, deadband_mult):
    slow = sliding_trend(series, build_kernel_bank(spec))
    fast = sliding_trend(series, build_kernel_bank(replace(spec, window=fast_window)))
    std = np.sqrt(rolling_central_moment(slow.fluctuation, 2, M))
    start = first_forecast_origin(spec.window, fast_window, M)
    origins = np.arange(start, len(series))
    lines = ["date,horizon,trend_hat,lo,hi,position"]
    for h in horizons:
        point = forecast_point(slow, fast, std, origins, h, level=level, deadband_mult=deadband_mult)
        columns = (origins, point.trend_hat, point.lo, point.hi, point.position)
        for t, trend_hat, lo, hi, position in zip(*(c.tolist() for c in columns)):
            lines.append(f"{label(series.dates, t)},{h},{trend_hat!r},{lo!r},{hi!r},{position}")
    return "\n".join(lines) + "\n"


def unblocked_table(header, columns):
    """emit_table as it was before it formatted a block of rows at a time,
    with each (values, defined) pair as the masked array it replaced."""
    def cells(column):
        if isinstance(column, np.ma.MaskedArray):
            masked = np.ma.getmaskarray(column).tolist()
            return ["" if m else repr(v) for v, m in zip(column.data.tolist(), masked)]
        if isinstance(column, np.ndarray):
            values = column.tolist()
            return values if column.dtype.kind == "U" else list(map(repr, values))
        return column

    columns = [np.ma.masked_array(c[0], ~c[1]) if isinstance(c, tuple) and len(c) == 2
               and isinstance(c[1], np.ndarray) else c for c in columns]
    (rows,) = {len(c) for c in columns if c is not None}
    table = [[""] * rows if c is None else cells(c) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*table))]) + "\n"


def iso_dates(n):
    d0 = date(2001, 3, 5)
    return tuple((d0 + timedelta(days=k)).isoformat() for k in range(n))


def prices(n, seed, flat):
    """Random-walk closes with the fraction flat of them held constant."""
    values = 40.0 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0.0, 0.02, n)))
    lo = n // 3
    values[lo : lo + int(flat * n)] = values[lo]
    return values


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40)
@given(degree=st.integers(0, 2), extra=st.integers(0, 12), smoothing=st.integers(1, 3),
       n=st.integers(20, 120), flat=st.floats(0.0, 0.5), dated=st.booleans(), seed=seeds)
def test_decomposition_rows_equal_the_cell_loop(degree, extra, smoothing, n, flat, dated, seed):
    spec = EstimatorSpec(degree=degree, window=degree + 2 + extra, smoothing=smoothing)
    series = PriceSeries("s", prices(n, seed, flat), dates=iso_dates(n) if dated else None)
    dec = sliding_trend(series, build_kernel_bank(spec))
    assert emit_decomposition(dec) == old_emit_decomposition(dec)


@settings(max_examples=40)
@given(M=st.integers(1, 12), n=st.integers(14, 120), flat=st.floats(0.0, 0.6),
       offset=st.integers(0, 30), dated=st.booleans(), seed=seeds)
def test_moment_rows_equal_the_cell_loop(M, n, flat, offset, dated, seed):
    fluct = np.random.default_rng(seed).normal(0.0, 1.0, n)
    fluct[n // 4 : n // 4 + int(flat * n)] = 0.0  # zero-variance windows are undefined
    track = moment_tracks(fluct, M)
    dates = iso_dates(n + offset) if dated else None
    assert emit_moments(track, dates, offset) == old_emit_moments(track, dates, offset)


@settings(max_examples=30)
@given(degree=st.integers(0, 4), window=st.sampled_from([7, 21, 121]),
       smoothing=st.integers(1, 3), spacing=st.sampled_from([1, 0.5, 1.0, 2.0]))
def test_weight_rows_equal_the_cell_loop(degree, window, smoothing, spacing):
    bank = build_kernel_bank(
        EstimatorSpec(degree=degree, window=window, smoothing=smoothing, spacing=spacing)
    )
    assert emit_weights(bank) == old_emit_weights(bank)


@settings(max_examples=40)
@given(n=st.integers(2, 80), flat=st.floats(0.0, 0.5), dated=st.booleans(), seed=seeds)
def test_dumped_prices_equal_the_cell_loop_and_load_back_exactly(n, flat, dated, seed):
    series = PriceSeries("s", prices(n, seed, flat), dates=iso_dates(n) if dated else None)
    if not dated:
        # bare indices would not load back as dates
        with pytest.raises(ValueError, match="series 's' has no dates to dump"):
            dump_prices(series)
        return
    text = dump_prices(series)
    assert text == old_dump_prices(series)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_text(text, encoding="utf-8")
        again = load_prices(str(path))
    assert again.values.tobytes() == series.values.tobytes()
    assert again.dates == series.dates


@settings(max_examples=25)
@given(degree=st.integers(0, 2), slow_extra=st.integers(0, 10), fast_extra=st.integers(0, 30),
       M=st.integers(1, 12), horizons=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
       level=st.sampled_from([0.5, 0.9, 0.95]), deadband=st.sampled_from([0.0, 0.1, 1.5]),
       extra=st.integers(0, 60), flat=st.floats(0.0, 0.5), seed=seeds)
def test_forecast_rows_equal_the_cell_loop(degree, slow_extra, fast_extra, M, horizons, level,
                                           deadband, extra, flat, seed):
    spec = EstimatorSpec(degree=degree, window=degree + 2 + slow_extra)
    fast_window = degree + 2 + fast_extra
    n = first_forecast_origin(spec.window, fast_window, M) + 1 + extra
    series = PriceSeries("s", prices(n, seed, flat), dates=iso_dates(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_text(dump_prices(series), encoding="utf-8")
        rc = main([
            "forecast", "--input", str(path), "--out-dir", tmp,
            "--degree", str(degree), "--window", str(spec.window),
            "--fast-window", str(fast_window), "--moment-window", str(M),
            "--horizons", ",".join(map(str, horizons)),
            "--level", repr(level), "--deadband-mult", repr(deadband),
        ])
        assert rc == 0
        got = (Path(tmp) / "s_forecast.csv").read_text(encoding="utf-8")
    assert got == old_forecast_rows(series, spec, fast_window, M, horizons, level, deadband)


def test_columns_of_different_lengths_are_rejected():
    with pytest.raises(ValueError, match=r"table columns differ in length: \[1, 2\]$"):
        emit_table(("a", "b", "c"), (["x"], None, np.array([1.0, 2.0])))


@pytest.mark.parametrize("header, message", [
    (("a",), "table header width 1 differs from column count 2"),
    (("a", "b", "c"), "table header width 3 differs from column count 2"),
])
def test_header_of_another_width_is_rejected(header, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        emit_table(header, (np.array([1.0, 2.0]), np.array([3.0, 4.0])))


@st.composite
def table_columns(draw, rows):
    """One emit_table column of rows entries, of any kind it takes."""
    def entries(elements):
        return draw(st.lists(elements, min_size=rows, max_size=rows))

    kind = draw(st.sampled_from(["none", "strings", "floats", "ints", "unicode", "pair"]))
    if kind == "none":
        return None
    if kind == "strings":
        return draw(st.sampled_from([list, tuple]))(entries(st.text(max_size=4)))
    if kind == "unicode":
        return np.array(entries(st.text(max_size=4)), dtype=str)
    if kind == "ints":
        return np.array(entries(st.integers(-2**40, 2**40)), dtype=np.int64)
    values = np.array(entries(st.floats()), dtype=float)
    if kind == "floats":
        return values
    return values, np.array(entries(st.booleans()), dtype=bool)


@settings(max_examples=200)
@given(block=st.integers(1, 6), at=st.sampled_from(["0", "1", "B-1", "B", "B+1", "2B+1"]),
       data=st.data())
def test_blocked_table_equals_the_unblocked_join(block, at, data):
    rows = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}[at]
    columns = data.draw(st.lists(table_columns(rows), min_size=1, max_size=5))
    columns.append(np.arange(rows))  # one column that has a length
    header = [f"c{k}" for k in range(len(columns))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_io, "_EMIT_ROWS", block)
        assert emit_table(header, columns) == unblocked_table(header, columns)


def test_table_scratch_is_one_block_of_cells():
    # every kind of column over 20 blocks: beside the text, the formatted
    # blocks (the text once more) and the cells of one block of rows
    rows = 20 * series_io._EMIT_ROWS
    rng = np.random.default_rng(4)
    values = rng.normal(size=rows)
    columns = (iso_dates(rows), np.arange(rows), values, values + 1, values - 1,
               (values * 2, values > 0), np.where(values > 0, "above", "no_decision"))
    emit_table(("a",) * len(columns), columns)  # caches stay out of the peak
    tracemalloc.start()
    try:
        text = emit_table(("a",) * len(columns), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + series_io._EMIT_ROWS * len(columns) * 128
