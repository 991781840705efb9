"""Sliding trend extraction and the quick-fluctuation test.

A KernelBank slides across the series; each aligned index carries the
kernel outputs on its trailing window, and the fluctuation is defined as
source minus trend there, so trend + fluctuation reconstructs the source
by construction. The oscillation score quantifies whether a fluctuation
averages out on every contiguous window of at least a minimum length.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import KernelBank
from .series_io import PriceSeries, date_labels, emit_table

QUICKLY_FLUCTUATING = "quickly_fluctuating"
NOT_QUICKLY_FLUCTUATING = "not_quickly_fluctuating"


@dataclass(frozen=True)
class Decomposition:
    """Aligned trend, derivative tracks, and fluctuation remainder.

    Arrays are compact: position a corresponds to source index a + warmup,
    warmup = W - 1, length n - W + 1. d1/d2 are None when the bank degree
    is too low to estimate them.
    """

    source: PriceSeries
    bank: KernelBank
    trend: np.ndarray
    d1: Optional[np.ndarray]
    d2: Optional[np.ndarray]
    fluctuation: np.ndarray
    warmup: int

    def __len__(self) -> int:
        return len(self.trend)

    def position(self, source_index):
        """Aligned position(s) of a source index or a non-empty integer array,
        signed or unsigned; rejects a float, a bool, an empty array and
        warm-up indices."""
        pos = _signed_indices(source_index) - self.warmup
        bad = np.extract((pos < 0) | (pos >= len(self.trend)), source_index)
        if bad.size:
            raise ValueError(
                f"source index {bad[0]} outside aligned range "
                f"{self.warmup}..{self.warmup + len(self.trend) - 1}"
            )
        return pos


def _signed_indices(t):
    """t, an integer or a non-empty integer array (signed or unsigned, of
    any width), as a Python int or an int64 array, so that index arithmetic
    on it cannot wrap.

    Raises:
        ValueError: t a float, a bool, an empty array, no integer, or a
            uint64 array holding 2**63 or more.
    """
    if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
        return int(t)
    if isinstance(t, np.ndarray) and t.dtype.kind in "iu" and t.size:
        if t.ndim == 0:
            return int(t)
        if t.dtype == np.uint64 and t.max() > np.iinfo(np.int64).max:
            raise ValueError(f"t must be below 2**63, got {t.max()}")
        return t.astype(np.int64, copy=False)
    got = f"{'a' if t.size else 'an empty'} {t.dtype} array" if isinstance(t, np.ndarray) else repr(t)
    raise ValueError(f"t must be an integer or a non-empty integer array, got {got}")


@dataclass(frozen=True)
class OscillationReport:
    """Outcome of the windowed-mean oscillation test."""

    score: float
    scale: float
    min_window: int
    threshold: float
    verdict: str


def sliding_trend(series: PriceSeries, bank: KernelBank) -> Decomposition:
    """Apply a kernel bank across a series.

    Returns:
        Decomposition with trend/d1/d2 from the trailing window at each
        aligned index and fluctuation = source - trend pointwise.

    Raises:
        ValueError: series shorter than the bank window.
    """
    w = bank.spec.window
    values = series.values
    check_window(len(values), w)

    def track(order: int) -> np.ndarray:
        out = bank.slide(values, order)
        out.setflags(write=False)
        return out

    degree = bank.spec.degree
    trend = track(0)
    d1 = track(1) if degree >= 1 else None
    d2 = track(2) if degree >= 2 else None
    # the correctly rounded difference; reconstruction is then exact up
    # to that single rounding (bit-for-bit whenever src - trend is
    # representable, within one ulp of the source where 0 <= trend <=
    # 2 * src; outside that, trend + fluct rounds at the trend's scale).
    fluct = values[w - 1 :] - trend
    fluct.setflags(write=False)
    return Decomposition(
        source=series,
        bank=bank,
        trend=trend,
        d1=d1,
        d2=d2,
        fluctuation=fluct,
        warmup=w - 1,
    )


def check_window(samples: int, window: int) -> None:
    """Reject a series of fewer samples than the window."""
    if samples < window:
        raise ValueError(f"series has {samples} samples, window needs {window}")


def oscillation_score(
    fluctuation: np.ndarray,
    min_window: int = 10,
    threshold: float = 0.05,
    source: Optional[PriceSeries] = None,
) -> OscillationReport:
    """Largest windowed mean of the fluctuation, relative to a scale.

    score = max over contiguous windows of length >= min_window of
    |window mean| / scale, scale = mean |source values| when a source is
    given, else 1. The verdict is oscillation_verdict(score, threshold).

    The score is exact, yet only lengths min_window..2*min_window-1 are
    evaluated: a longer window splits into two parts of length >=
    min_window, and its mean is a weighted average of theirs.
    """
    fluct = np.asarray(fluctuation, dtype=float)
    if fluct.ndim != 1 or len(fluct) == 0:
        raise ValueError("fluctuation must be a nonempty one-dimensional sequence")
    n = len(fluct)
    if isinstance(min_window, bool) or not isinstance(min_window, int):
        raise ValueError(f"min_window must be an integer, got {min_window!r}")
    if not 1 <= min_window <= n:
        raise ValueError(f"min_window must be in 1..{n}, got {min_window}")
    check_threshold(threshold)  # before the scan

    scale = float(np.mean(np.abs(source.values))) if source is not None else 1.0
    prefix = np.concatenate(([0.0], np.cumsum(fluct)))
    best = 0.0
    for length in range(min_window, min(2 * min_window - 1, n) + 1):
        # division by a positive length is monotone, so dividing the
        # largest |sum| yields the largest correctly rounded |mean|.
        peak = float(np.abs(prefix[length:] - prefix[:-length]).max()) / length
        if peak > best:
            best = peak
    score = best / scale
    return OscillationReport(
        score=score,
        scale=scale,
        min_window=min_window,
        threshold=threshold,
        verdict=oscillation_verdict(score, threshold),
    )


def check_threshold(threshold: float) -> None:
    """Reject a verdict threshold that is not >= 0 or not finite."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    if threshold == np.inf:
        raise ValueError(f"threshold must be finite, got {threshold!r}")


def oscillation_verdict(value: float, threshold: float) -> str:
    """quickly_fluctuating iff value <= threshold; rejects a threshold not
    >= 0 or not finite."""
    check_threshold(threshold)
    return QUICKLY_FLUCTUATING if value <= threshold else NOT_QUICKLY_FLUCTUATING


def emit_decomposition(dec: Decomposition) -> str:
    """Aligned rows as delimiter-separated text for plotting."""
    src, n = dec.source, len(dec.source)
    return emit_table(
        ("index", "date", "price", "trend", "d1", "d2", "fluctuation"),
        (np.arange(dec.warmup, n), date_labels(src.dates, dec.warmup, n),
         src.values[dec.warmup :], dec.trend, dec.d1, dec.d2, dec.fluctuation),
    )
