"""Rolling central moments of the fluctuation and derived shape tracks.

Every value is a trailing-window statistic over M+1 samples: the window
mean is removed first, then centered k-th powers are averaged with
denominator M+1 (no bias correction). std, skewness, and kurtosis follow
as sqrt(MA_2), MA_3 / MA_2^(3/2), and MA_4 / MA_2^2; windows with zero
variance carry no skew/kurt value and are flagged undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._spans import run_spans, split_rows
from .series_io import date_labels, emit_table

_CHUNK_ROWS = 1024  # window rows in flight across all threads
_SPAN_ROWS = 512  # fewest window rows worth a thread of their own


@dataclass(frozen=True)
class MomentTrack:
    """Rolling moment tracks; position p corresponds to fluctuation index
    p + warmup, warmup = M, length n - M."""

    std: np.ndarray
    skew: np.ndarray
    kurt: np.ndarray
    defined: np.ndarray  # where MA_2 > 0, so skew/kurt carry values
    warmup: int

    def __len__(self) -> int:
        return len(self.std)


def _rolling_stats(fluctuation: np.ndarray, m: int, ks: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Trailing-window central moments, mean-first arithmetic.

    Chunked windowed evaluation; each window reduces over a contiguous
    axis, matching per-window recomputation bit for bit. The window rows
    are split into one contiguous span per CPU the process may use (at
    least _SPAN_ROWS rows each); each span runs on its own thread, the
    first on the caller's, and numpy releases the interpreter lock in the
    power and sum loops. Rows are independent, so the bits are the same
    for any split, and the rows in flight stay _CHUNK_ROWS in all: the
    centered block and its k-th power take 8 * _CHUNK_ROWS * (M+1) bytes
    each across all threads, 0.8 MB at M = 100. These temporaries are small
    enough to be allocated on the worker threads; buffers handed in by the
    caller measured slower.

    Raises:
        ValueError: m < 1 or sequence shorter than m+1.
    """
    fluct = np.asarray(fluctuation, dtype=float)
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"M must be an integer >= 1, got {m!r}")
    if fluct.ndim != 1 or len(fluct) < m + 1:
        raise ValueError(f"need at least M+1 = {m + 1} samples, got {len(fluct)}")
    rows = len(fluct) - m
    out = {k: np.empty(rows) for k in ks}
    windows = sliding_window_view(fluct, m + 1)
    spans = split_rows(rows, _SPAN_ROWS)
    chunk = max(1, _CHUNK_ROWS // len(spans))

    def fill(span: range) -> None:
        for lo in range(span.start, span.stop, chunk):
            hi = min(lo + chunk, span.stop)
            block = windows[lo:hi]
            mean = block.mean(axis=1)
            centered = block - mean[:, None]
            for k in ks:
                out[k][lo:hi] = (centered**k).sum(axis=1) / (m + 1)

    run_spans([partial(fill, span) for span in spans])
    return out


def rolling_central_moment(fluctuation: np.ndarray, k: int, M: int) -> np.ndarray:
    """Trailing rolling k-th central moment.

    Value at track position p (fluctuation index p + M) is
    sum_{tau=0..M} (fluct(p+M-tau) - mean)^k / (M+1), the mean taken over
    the same M+1 samples.

    Raises:
        ValueError: k < 2, M < 1, or sequence shorter than M+1.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    return _rolling_stats(fluctuation, M, (k,))[k]


def moment_tracks(fluctuation: np.ndarray, M: int = 100) -> MomentTrack:
    """Rolling std/skew/kurt tracks of a fluctuation sequence.

    Raises:
        ValueError: M < 1 or sequence shorter than M+1.
    """
    stats = _rolling_stats(fluctuation, M, (2, 3, 4))
    ma2, ma3, ma4 = stats[2], stats[3], stats[4]
    # MA_2 is a mean of squares, so it is >= 0 in float arithmetic too.
    defined = ma2 > 0.0
    std = np.sqrt(ma2)
    skew = np.full_like(ma2, np.nan)
    kurt = np.full_like(ma2, np.nan)
    np.divide(ma3, ma2**1.5, out=skew, where=defined)
    np.divide(ma4, ma2**2, out=kurt, where=defined)
    for arr in (std, skew, kurt, defined):
        arr.setflags(write=False)
    return MomentTrack(std=std, skew=skew, kurt=kurt, defined=defined, warmup=M)


def emit_moments(track: MomentTrack, dates: tuple[str, ...] | None = None, offset: int = 0) -> str:
    """Track rows as delimiter-separated text.

    Args:
        dates: source date labels; row p uses dates[p + offset + warmup].
        offset: source index of fluctuation position 0 (the trend warmup
            when the fluctuation came from a decomposition).
    """
    lo = track.warmup + offset
    undefined = ~track.defined
    return emit_table(
        ("index", "date", "std", "skew", "kurt"),
        (np.arange(lo, lo + len(track)), date_labels(dates, lo, lo + len(track)), track.std,
         np.ma.masked_array(track.skew, undefined), np.ma.masked_array(track.kurt, undefined)),
    )
