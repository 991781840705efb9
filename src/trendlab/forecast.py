"""Short-horizon forecasts of the trend and moment tracks.

All forecasts are second-order Taylor extrapolations of filtered values:
the trend uses its own estimated derivatives; moment tracks are filtered
by a kernel bank first. The position classifier compares a fast-filter
price forecast against the slow-filter trend forecast inside a deadband
proportional to the predicted fluctuation std.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from scipy.special import ndtri

from .decompose import Decomposition
from .kernels import KernelBank
from .moments import MomentTrack

ABOVE = "above"
UNDER = "under"
NO_DECISION = "no_decision"


@dataclass(frozen=True)
class ForecastPoint:
    """One origin/horizon forecast with its band and position call.

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


def taylor_extrapolate(value: float, d1: float, d2: float, h: float) -> float:
    """value + h*d1 + (h^2/2)*d2; h >= 0 in the value's time units."""
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {h!r}")
    return value + h * d1 + 0.5 * h * h * d2


def forecast_trend(dec: Decomposition, t: int, h: float) -> float:
    """Extrapolate the trend h grid steps past source index t.

    Derivative orders the bank does not estimate are taken as zero.

    Raises:
        ValueError: t in the warm-up region or outside the series.
    """
    pos = dec.position(t)  # rejects warm-up indices
    d1 = float(dec.d1[pos]) if dec.d1 is not None else 0.0
    d2 = float(dec.d2[pos]) if dec.d2 is not None else 0.0
    dt = dec.bank.spec.spacing
    return taylor_extrapolate(float(dec.trend[pos]), d1, d2, h * dt)


def forecast_moments(
    track: MomentTrack, bank: KernelBank, t: int, h: float
) -> tuple[float, float, float]:
    """Filter the moment tracks and extrapolate them h steps.

    Args:
        t: track position (0-based within the track arrays); the bank
            window must fit in defined history ending at t.

    Returns:
        (std_hat, skew_hat, kurt_hat); std_hat clamped at 0 below,
        kurt_hat clamped at 1 below. Windows containing undefined
        skew/kurt values (zero-variance stretches) yield NaN for those
        two forecasts, mirroring the track's undefined flags.

    Raises:
        ValueError: fewer than window values ending at t.
    """
    w = bank.spec.window
    if not 0 <= t < len(track):
        raise ValueError(f"track position {t} outside 0..{len(track) - 1}")
    if t - w + 1 < 0:
        raise ValueError(
            f"insufficient history: need {w} track values ending at {t}, have {t + 1}"
        )
    lo = t - w + 1
    dt = bank.spec.spacing
    hats = []
    for seq in (track.std, track.skew, track.kurt):
        window = seq[lo : t + 1]
        value = bank.estimate(window, 0)
        d1 = bank.estimate(window, 1) if bank.spec.degree >= 1 else 0.0
        d2 = bank.estimate(window, 2) if bank.spec.degree >= 2 else 0.0
        hats.append(taylor_extrapolate(value, d1, d2, h * dt))
    std_hat, skew_hat, kurt_hat = hats
    if not isnan(kurt_hat):
        kurt_hat = max(kurt_hat, 1.0)
    return max(std_hat, 0.0), skew_hat, kurt_hat


def confidence_band(trend_hat: float, std_hat: float, level: float = 0.95) -> tuple[float, float]:
    """Symmetric band trend_hat +- z*std_hat, z the two-sided normal
    quantile for the level; degenerates to a point at std_hat = 0."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be inside (0, 1), got {level!r}")
    if std_hat < 0:
        raise ValueError(f"std_hat must be >= 0, got {std_hat!r}")
    z = float(ndtri(0.5 * (1.0 + level)))
    return trend_hat - z * std_hat, trend_hat + z * std_hat


def classify_position(price_hat: float, trend_hat: float, deadband: float) -> str:
    """above / under / no_decision by comparing the forecasts.

    above when price_hat - trend_hat > deadband, under when
    trend_hat - price_hat > deadband, no_decision inside the band.
    """
    if deadband < 0:
        raise ValueError(f"deadband must be >= 0, got {deadband!r}")
    diff = price_hat - trend_hat
    if diff > deadband:
        return ABOVE
    if -diff > deadband:
        return UNDER
    return NO_DECISION


def first_origin(slow_window: int, M: int) -> int:
    """Smallest source index with the history forecast_point needs.

    The slow trend starts after W-1 samples, the moment track after M
    more, and a slow-bank window over the track needs W-1 more again.
    """
    return 2 * (slow_window - 1) + M


def forecast_point(
    slow: Decomposition,
    fast: Decomposition,
    track: MomentTrack,
    t: int,
    h: int,
    level: float = 0.95,
    deadband_mult: float = 0.1,
) -> ForecastPoint:
    """Assemble the full forecast at one origin.

    slow and fast must decompose the same source; track must be the
    moment track of the slow fluctuation. t is a source index with
    enough trailing history for the slow bank, the moment window, and a
    slow-bank window over the track: t >= first_origin(W_slow, M).

    Raises:
        ValueError: insufficient history at t.
    """
    if slow.source is not fast.source:
        raise ValueError("slow and fast decompositions must share one source series")
    if deadband_mult < 0:
        raise ValueError(f"deadband_mult must be >= 0, got {deadband_mult!r}")
    track_pos = t - slow.warmup - track.warmup
    std_hat, _, _ = forecast_moments(track, slow.bank, track_pos, h)
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
