"""The text writers against the per-cell loops they replaced.

series_io.emit_table writes every CSV output. Each oracle below is the
per-cell loop its emitter used before, kept verbatim apart from the date
label rule inlined; the properties require string equality.
"""
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.cli import main
from trendlab.decompose import emit_decomposition, sliding_trend
from trendlab.forecast import first_forecast_origin, forecast_point
from trendlab.kernels import EstimatorSpec, build_kernel_bank, emit_weights
from trendlab.moments import emit_moments, moment_tracks, rolling_central_moment
from trendlab.series_io import PriceSeries, dump_prices, load_prices


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


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 2), extra=st.integers(0, 12), smoothing=st.integers(1, 3),
       n=st.integers(20, 120), flat=st.floats(0.0, 0.5), dated=st.booleans(), seed=seeds)
def test_decomposition_rows_equal_the_cell_loop(degree, extra, smoothing, n, flat, dated, seed):
    spec = EstimatorSpec(degree=degree, window=degree + 2 + extra, smoothing=smoothing)
    series = PriceSeries("s", prices(n, seed, flat), dates=iso_dates(n) if dated else None)
    dec = sliding_trend(series, build_kernel_bank(spec))
    assert emit_decomposition(dec) == old_emit_decomposition(dec)


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 12), n=st.integers(14, 120), flat=st.floats(0.0, 0.6),
       offset=st.integers(0, 30), dated=st.booleans(), seed=seeds)
def test_moment_rows_equal_the_cell_loop(M, n, flat, offset, dated, seed):
    fluct = np.random.default_rng(seed).normal(0.0, 1.0, n)
    fluct[n // 4 : n // 4 + int(flat * n)] = 0.0  # zero-variance windows are undefined
    track = moment_tracks(fluct, M)
    dates = iso_dates(n + offset) if dated else None
    assert emit_moments(track, dates, offset) == old_emit_moments(track, dates, offset)


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(0, 4), window=st.sampled_from([7, 21, 121]),
       smoothing=st.integers(1, 3), spacing=st.sampled_from([1, 0.5, 1.0, 2.0]))
def test_weight_rows_equal_the_cell_loop(degree, window, smoothing, spacing):
    bank = build_kernel_bank(
        EstimatorSpec(degree=degree, window=window, smoothing=smoothing, spacing=spacing)
    )
    assert emit_weights(bank) == old_emit_weights(bank)


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=25, deadline=None)
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
