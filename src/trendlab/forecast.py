"""Short-horizon forecasts of the trend and moment tracks.

All forecasts are second-order Taylor extrapolations of filtered values:
the trend uses its own estimated derivatives; moment tracks are filtered
by a kernel bank first (KernelBank.slide, as for the trend). The position
classifier compares a fast-filter price forecast against the slow-filter
trend forecast inside a deadband proportional to the predicted fluctuation
std. An origin t is one index (plain float results) or an integer array
of them (array results, in one pass).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .decompose import Decomposition
from .kernels import KernelBank
from .moments import MomentTrack

ABOVE = "above"
UNDER = "under"
NO_DECISION = "no_decision"


@dataclass(frozen=True)
class ForecastPoint:
    """One horizon's forecasts, bands and position calls at an origin or array.

    origin indexes the source grid; horizon is in grid steps. deadband is
    the half-width (currency units) inside which no position is called.
    """

    origin: int
    horizon: int
    trend_hat: float
    lo: float
    hi: float
    level: float
    position: str
    deadband: float


def taylor_extrapolate(value, d1, d2, h: float):
    """value + h*d1 + (h^2/2)*d2; h >= 0 in the value's time units."""
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {h!r}")
    return value + h * d1 + 0.5 * h * h * d2


def forecast_trend(dec: Decomposition, t, h: float):
    """Extrapolate the trend h grid steps past source index t.

    Derivative orders the bank does not estimate are taken as zero.

    Raises:
        ValueError: t in the warm-up region or outside the series.
    """
    return _extrapolate((dec.trend, dec.d1, dec.d2), dec.position(t), dec.bank.spec.spacing, h)


def _extrapolate(tracks, at, spacing: float, h: float, floor: float = -np.inf):
    """Taylor step from the (value, d1, d2) tracks at positions at, None
    tracks read as zero, clamped below at floor; a float for one position."""
    value, d1, d2 = (x[at] if x is not None else 0.0 for x in tracks)
    out = np.maximum(taylor_extrapolate(value, d1, d2, h * spacing), floor)
    return out if np.ndim(at) else float(out)


def _filter_extrapolate(bank: KernelBank, seq: np.ndarray, pos, h: float, floor: float = -np.inf):
    """Filter seq with the bank on the windows ending at positions pos and
    extrapolate h steps; rejects positions without W values ending there."""
    w = bank.spec.window
    first, last = np.min(pos), np.max(pos)
    if first < 0 or last >= len(seq):
        raise ValueError(f"track position {first if first < 0 else last} outside 0..{len(seq) - 1}")
    if first - w + 1 < 0:
        raise ValueError(f"insufficient history: need {w} track values ending at {first}, have {first + 1}")
    span = seq[first - w + 1 : last + 1]  # slide entry a: the window ending at first + a
    tracks = [bank.slide(span, v) if v <= bank.spec.degree else None for v in range(3)]
    return _extrapolate(tracks, pos - first, bank.spec.spacing, h, floor)


def forecast_moments(track: MomentTrack, bank: KernelBank, t, h: float) -> tuple:
    """Filter the moment tracks and extrapolate them h steps.

    Args:
        t: track position (0-based within the track arrays) or integer
            array; the bank window must fit in defined history ending at t.

    Returns:
        (std_hat, skew_hat, kurt_hat); std_hat clamped at 0 below,
        kurt_hat clamped at 1 below. Windows containing undefined
        skew/kurt values (zero-variance stretches) yield NaN for those
        two forecasts, mirroring the track's undefined flags.

    Raises:
        ValueError: fewer than window values ending at t.
    """
    return tuple(
        _filter_extrapolate(bank, seq, t, h, floor)
        for seq, floor in ((track.std, 0.0), (track.skew, -np.inf), (track.kurt, 1.0))
    )


def confidence_band(trend_hat, std_hat, level: float = 0.95) -> tuple:
    """Symmetric band trend_hat +- z*std_hat, z the two-sided normal
    quantile for the level; degenerates to a point at std_hat = 0."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be inside (0, 1), got {level!r}")
    if np.any(std_hat < 0):
        raise ValueError(f"std_hat must be >= 0, got {float(np.min(std_hat))!r}")
    z = float(ndtri(0.5 * (1.0 + level)))
    return trend_hat - z * std_hat, trend_hat + z * std_hat


def classify_position(price_hat, trend_hat, deadband):
    """above / under / no_decision by comparing the forecasts.

    above when price_hat - trend_hat > deadband, under when
    trend_hat - price_hat > deadband, no_decision inside the band.
    """
    if np.any(deadband < 0):
        raise ValueError(f"deadband must be >= 0, got {float(np.min(deadband))!r}")
    diff = price_hat - trend_hat
    position = np.where(diff > deadband, ABOVE, np.where(-diff > deadband, UNDER, NO_DECISION))
    return position if position.ndim else str(position)


def first_origin(slow_window: int, M: int) -> int:
    """Smallest source index with the slow-side history forecast_point needs.

    The slow trend starts after W-1 samples, the moment track after M
    more, and a slow-bank window over the track needs W-1 more again.
    """
    return 2 * (slow_window - 1) + M


def first_forecast_origin(slow_window: int, fast_window: int, M: int) -> int:
    """Smallest source index where forecast_point can run: the slow
    pipeline's first_origin, and a full window of the fast bank."""
    return max(first_origin(slow_window, M), fast_window - 1)


def forecast_point(
    slow: Decomposition,
    fast: Decomposition,
    std: np.ndarray,
    t,
    h: int,
    level: float = 0.95,
    deadband_mult: float = 0.1,
) -> ForecastPoint:
    """Assemble the full forecast at one origin or an array of origins.

    slow and fast must decompose the same source; std must be the rolling
    std track of the slow fluctuation (moment_tracks(...).std, or the root
    of rolling_central_moment(..., 2, M)), with warm-up len(slow) - len(std).
    Each origin t needs t >= first_forecast_origin(W_slow, W_fast, M).

    Raises:
        ValueError: insufficient history at t.
    """
    if slow.source is not fast.source:
        raise ValueError("slow and fast decompositions must share one source series")
    if deadband_mult < 0:
        raise ValueError(f"deadband_mult must be >= 0, got {deadband_mult!r}")
    track_pos = t - slow.warmup - (len(slow) - len(std))
    std_hat = _filter_extrapolate(slow.bank, std, track_pos, h, floor=0.0)
    trend_hat = forecast_trend(slow, t, h)
    price_hat = forecast_trend(fast, t, h)
    lo, hi = confidence_band(trend_hat, std_hat, level)
    deadband = deadband_mult * std_hat
    position = classify_position(price_hat, trend_hat, deadband)
    return ForecastPoint(
        origin=t,
        horizon=h,
        trend_hat=trend_hat,
        lo=lo,
        hi=hi,
        level=level,
        position=position,
        deadband=deadband,
    )
