"""Rolling central moments of the fluctuation and derived shape tracks.

Every value is a trailing-window statistic over M+1 samples: the window
mean is removed first, then centered k-th powers are averaged with
denominator M+1 (no bias correction). std, skewness, and kurtosis follow
as sqrt(MA_2), MA_3 / (MA_2 * std), and MA_4 / (MA_2 * MA_2); windows
with zero variance carry no skew/kurt value and are flagged undefined.

The two public functions form the powers differently.
rolling_central_moment raises the centered window to numpy's `**k`, the
arithmetic acceptance criterion 5 pins bit for bit. moment_tracks builds
them by multiplication, c*c, c*(c*c) and (c*c)*(c*c), each multiply
rounding once (Higham 2002, section 3.1). numpy computes c**2 as c*c, so
MA_2, std and defined are the same bits either way. Against MA_4 / MA_2**2
and MA_3 / MA_2**1.5 of the `**` moments, kurt moved by at most 5 ulps and
skew by at most 3 ulps of sqrt(kurt) over 385,320 windows of M = 100
(skew sums terms that cancel, so its own ulps bound nothing near 0, while
|skew| <= sqrt(kurt)). numpy's `pow` is slow on negative bases and its
last bits depend on the dispatch level: on standard normal draws, `c**3`
took 78 ns a value on its AVX-512 loops (2-vCPU Xeon), `c*c` 1 ns. A
product rounds the same on every level, so moment_tracks is
byte-identical across numpy dispatch levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._spans import run_spans, split_rows
from .decompose import check_finite_fluctuation
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


def _rolling_stats(
    fluctuation: np.ndarray, m: int, reduce: Callable[[np.ndarray], tuple[np.ndarray, ...]], tracks: int
) -> list[np.ndarray]:
    """Trailing-window central moments, mean-first arithmetic.

    reduce takes a block of centered window rows, which it may overwrite,
    and returns the tracks' row sums of that block; each sum is divided by
    M+1. Chunked windowed evaluation; each window reduces over a contiguous
    axis, matching per-window recomputation bit for bit. The window rows
    are split into one contiguous span per CPU the process may use (at
    least _SPAN_ROWS rows each); each span runs on its own thread, the
    first on the caller's, and numpy releases the interpreter lock in the
    array loops. Rows are independent, so the bits are the same for any
    split, and the rows in flight stay _CHUNK_ROWS in all: the centered
    block and the one power block reduce makes from it take
    8 * _CHUNK_ROWS * (M+1) bytes each across all threads, 0.8 MB at
    M = 100. reduce returns, freeing its power block, before the next
    block is centered. These temporaries are small enough to be
    allocated on the worker threads; buffers handed in by the caller
    measured slower.

    Raises:
        ValueError: m < 1, sequence shorter than m+1, or a value not finite.
    """
    fluct = np.asarray(fluctuation, dtype=float)
    check_moment_window(m)
    if fluct.ndim != 1 or len(fluct) < m + 1:
        raise ValueError(f"need at least M+1 = {m + 1} samples, got {len(fluct)}")
    check_finite_fluctuation(fluct)
    rows = len(fluct) - m
    out = [np.empty(rows) for _ in range(tracks)]
    windows = sliding_window_view(fluct, m + 1)
    spans = split_rows(rows, _SPAN_ROWS)
    chunk = max(1, _CHUNK_ROWS // len(spans))

    def fill(span: range) -> None:
        for lo in range(span.start, span.stop, chunk):
            hi = min(lo + chunk, span.stop)
            block = windows[lo:hi]
            mean = block.mean(axis=1)
            for track, sums in zip(out, reduce(block - mean[:, None])):
                track[lo:hi] = sums / (m + 1)

    run_spans([partial(fill, span) for span in spans])
    return out


def check_moment_window(M: int) -> None:
    """Reject a moment window M that is not an integer >= 1 (a bool included)."""
    if isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M!r}")


def _product_sums(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row sums of c*c, c*(c*c) and (c*c)*(c*c), built in place in
    centered and one square block."""
    sq = centered * centered
    s2 = sq.sum(axis=1)
    centered *= sq
    s3 = centered.sum(axis=1)
    sq *= sq
    return s2, s3, sq.sum(axis=1)


def rolling_central_moment(fluctuation: np.ndarray, k: int, M: int) -> np.ndarray:
    """Trailing rolling k-th central moment.

    Value at track position p (fluctuation index p + M) is
    sum_{tau=0..M} (fluct(p+M-tau) - mean)^k / (M+1), the mean taken over
    the same M+1 samples, each term numpy's (fluct - mean)**k: acceptance
    criterion 5 pins these bits for k = 2, 3, 4. For k >= 3 they can
    differ from moment_tracks' product sums in the last bits (see the
    module docstring).

    Raises:
        ValueError: k < 2, M < 1, sequence shorter than M+1, or a value
            not finite.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    return _rolling_stats(fluctuation, M, lambda centered: ((centered**k).sum(axis=1),), 1)[0]


def moment_tracks(fluctuation: np.ndarray, M: int = 100) -> MomentTrack:
    """Rolling std/skew/kurt tracks of a fluctuation sequence.

    MA_2, MA_3 and MA_4 come from one pass per block that forms the powers
    by multiplication, no `pow` anywhere: MA_2, std and defined equal
    rolling_central_moment(..., 2, M) and its root bit for bit; kurt and
    skew differ from the `**` moments by a few ulps (see the module
    docstring), and are the same bytes at every numpy dispatch level.

    Raises:
        ValueError: M < 1, sequence shorter than M+1, or a value not finite.
    """
    ma2, ma3, ma4 = _rolling_stats(fluctuation, M, _product_sums, 3)
    # MA_2 is a mean of squares, so it is >= 0 in float arithmetic too.
    defined = ma2 > 0.0
    std = np.sqrt(ma2)
    skew = np.full_like(ma2, np.nan)
    kurt = np.full_like(ma2, np.nan)
    np.divide(ma3, ma2 * std, out=skew, where=defined)
    np.divide(ma4, ma2 * ma2, out=kurt, where=defined)
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
    return emit_table(
        ("index", "date", "std", "skew", "kurt"),
        (np.arange(lo, lo + len(track)), date_labels(dates, lo, lo + len(track)), track.std,
         (track.skew, track.defined), (track.kurt, track.defined)),
    )
