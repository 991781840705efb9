"""Short-horizon forecasts of the trend and moment tracks.

All forecasts are second-order Taylor extrapolations of filtered values:
the trend uses its own estimated derivatives; moment tracks are filtered
by a kernel bank first (KernelBank.slide, as for the trend). The position
classifier compares a fast-filter price forecast against the slow-filter
trend forecast inside a deadband proportional to the predicted fluctuation
std. An origin t is one index (plain float results) or an integer array
of them (array results, in one pass); an unsigned one is made signed
before any arithmetic. A horizon h is one number of grid steps for every
origin, or an integer array of t's shape with one horizon per origin.

Inside this module and backtest, a position call is an int8 code (0 above,
1 under, 2 no_decision); the names appear only where the public API
returns or takes them (classify_position, ForecastPoint.position,
backtest.score_positions), each array of them made by one take from the
three names. forecast_point slides the std track once per call, over the
span of its origins, so a caller forecasting several horizons at the same
origins (cli's forecast table) passes the origins tiled and the horizons
repeated and slides it once. A caller whose horizons have different
origins that share their first one (backtest.walk_forward) slides it
once, for the most origins, and runs the same core on a prefix of those
slides per horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, _signed_indices
from .kernels import KernelBank
from .moments import MomentTrack

ABOVE = "above"
UNDER = "under"
NO_DECISION = "no_decision"
# the position names in code order: code k names _NAMES[k]
_NAMES = np.array([ABOVE, UNDER, NO_DECISION])
_NO_DECISION_CODE = 2


@dataclass(frozen=True)
class ForecastPoint:
    """Forecasts, bands and position calls at an origin or array of them.

    origin indexes the source grid; horizon is in grid steps, one for every
    origin or an array of origin's shape. deadband is the half-width
    (currency units) inside which no position is called.
    """

    origin: int
    horizon: int
    trend_hat: float
    lo: float
    hi: float
    level: float
    position: str
    deadband: float


def taylor_extrapolate(value, d1, d2, h):
    """value + h*d1 + (h^2/2)*d2; h >= 0 in the value's time units, a
    number or an array that broadcasts with value.

    Raises:
        ValueError: h, or an entry of it (named by value and index), is
            negative or NaN.
    """
    ok = h >= 0
    if not np.all(ok):
        if not np.ndim(h):
            raise ValueError(f"horizon must be >= 0, got {h!r}")
        bad = int(np.argmin(ok))  # flat index of the first negative or NaN entry
        raise ValueError(f"horizon must be >= 0, got {h.flat[bad].item()!r} at index {bad}")
    return value + h * d1 + 0.5 * h * h * d2


def forecast_trend(dec: Decomposition, t, h):
    """Extrapolate the trend h grid steps past source index t (h a number,
    or an array of t's shape).

    Derivative orders the bank does not estimate are taken as zero.

    Raises:
        ValueError: t not an integer or a non-empty integer array, or in
            the warm-up region or outside the series.
    """
    return _extrapolate((dec.trend, dec.d1, dec.d2), dec.position(t), dec.bank.spec.spacing, h)


def _extrapolate(tracks, at, spacing: float, h, floor: float = -np.inf):
    """Taylor step from the (value, d1, d2) tracks at positions at, None
    tracks read as zero, clamped below at floor; a float for one position."""
    value, d1, d2 = (x[at] if x is not None else 0.0 for x in tracks)
    out = np.maximum(taylor_extrapolate(value, d1, d2, h * spacing), floor)
    return out if np.ndim(at) else float(out)


def _slides(bank: KernelBank, seq: np.ndarray, pos):
    """The bank's value, d1 and d2 slides of seq (None past its degree) over
    the windows ending at first..last of positions pos, and the entry of
    each position in them; rejects positions without W values ending there."""
    w = bank.spec.window
    first, last = np.min(pos), np.max(pos)
    if first < 0 or last >= len(seq):
        raise ValueError(f"track position {first if first < 0 else last} outside 0..{len(seq) - 1}")
    if first - w + 1 < 0:
        raise ValueError(f"insufficient history: need {w} track values ending at {first}, have {first + 1}")
    span = seq[first - w + 1 : last + 1]  # slide entry a: the window ending at first + a
    return [bank.slide(span, v) if v <= bank.spec.degree else None for v in range(3)], pos - first


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
        ValueError: t not an integer or a non-empty integer array, or
            fewer than window values ending at t.
    """
    t = _signed_indices(t)
    return tuple(
        _extrapolate(*_slides(bank, seq, t), bank.spec.spacing, h, floor)
        for seq, floor in ((track.std, 0.0), (track.skew, -np.inf), (track.kurt, 1.0))
    )


def confidence_band(trend_hat, std_hat, level: float = 0.95) -> tuple:
    """Symmetric band trend_hat +- z*std_hat, z the two-sided normal
    quantile for the level; degenerates to a point at std_hat = 0."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be inside (0, 1), got {level!r}")
    if not np.all(std_hat >= 0):
        raise ValueError(f"std_hat must be >= 0, got {float(np.min(std_hat))!r}")
    z = _ndtri(0.5 * (1.0 + level))
    return trend_hat - z * std_hat, trend_hat + z * std_hat


# Inverse of the standard normal CDF: a port of Cephes ndtri.c (S. L.
# Moshier, Methods and Programs for Mathematical Functions, 1989), the
# routine behind scipy.special.ndtri. Same coefficients, branch points and
# Horner order, so it returns the same doubles without importing scipy.
# The Q denominators carry Cephes' implicit leading 1 (its p1evl): the
# first Horner step 1*x + q1 is then exactly x + q1.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """x with Phi(x) = y0 for y0 in [0, 1]; -inf at 0, inf at 1."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


def classify_position(price_hat, trend_hat, deadband):
    """above / under / no_decision by comparing the forecasts.

    above when price_hat - trend_hat > deadband, under when
    trend_hat - price_hat > deadband, no_decision inside the band (and
    where the difference is NaN).
    """
    return _names(_position_codes(price_hat, trend_hat, deadband))


def _position_codes(price_hat, trend_hat, deadband):
    """classify_position's rule as int8 codes: 0 above, 1 under, 2 no_decision."""
    if not np.all(deadband >= 0):
        raise ValueError(f"deadband must be >= 0, got {float(np.min(deadband))!r}")
    diff = price_hat - trend_hat
    return _codes(np.asarray(diff > deadband), np.asarray(-diff > deadband))


def _codes(above, under):
    """int8 position codes from boolean above and under masks that never
    both hold: 2 - 2 * above - under."""
    return 2 - 2 * above.view(np.int8) - under.view(np.int8)


def _realized_codes(fluctuation):
    """int8 codes of realized positions: 0 (above) where the fluctuation
    is > 0, else 1 (under), NaN included."""
    return (~(fluctuation > 0)).view(np.int8)


def _names(codes):
    """The position names of int8 codes: an array, or a str for one code."""
    names = _NAMES[codes]
    return names if names.ndim else str(names)


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
    h,
    level: float = 0.95,
    deadband_mult: float = 0.1,
) -> ForecastPoint:
    """Assemble the full forecast at one origin or an array of origins.

    slow and fast must decompose the same source; std must be the rolling
    std track of the slow fluctuation (moment_tracks(...).std, or the root
    of rolling_central_moment(..., 2, M)), with warm-up len(slow) - len(std).
    Each origin t needs t >= first_forecast_origin(W_slow, W_fast, M). h is
    one horizon (grid steps) for every origin, or, for an array t, an
    integer array of t's shape: entry k forecasts h[k] steps past t[k]. The
    std track is slid once, whatever the horizons.

    Raises:
        ValueError: t not an integer or a non-empty integer array; h not
            an integer or an integer array of t's shape, or negative (an
            entry named by value and index); or insufficient history at t.
    """
    if slow.source is not fast.source:
        raise ValueError("slow and fast decompositions must share one source series")
    if not deadband_mult >= 0:
        raise ValueError(f"deadband_mult must be >= 0, got {deadband_mult!r}")
    if deadband_mult == math.inf:
        raise ValueError(f"deadband_mult must be finite, got {deadband_mult!r}")
    at = _signed_indices(t)
    _check_horizon(h, at)
    trend_hat, lo, hi, codes, deadband = _forecast(
        slow, fast, _std_slides(slow, std, at), at, h, level, deadband_mult
    )
    return ForecastPoint(
        origin=t,
        horizon=h,
        trend_hat=trend_hat,
        lo=lo,
        hi=hi,
        level=level,
        position=_names(codes),
        deadband=deadband,
    )


def _check_horizon(h, at) -> None:
    """Reject h unless it is an integer, or an integer array of the shape
    of the origins at as _signed_indices gives them (an int for one)."""
    if isinstance(h, (int, np.integer)) and not isinstance(h, bool):
        return
    if isinstance(h, np.ndarray) and h.dtype.kind in "iu" and np.ndim(at) and h.shape == at.shape:
        return
    got = f"a {h.dtype} array of shape {h.shape}" if isinstance(h, np.ndarray) else repr(h)
    raise ValueError(f"h must be an integer or an integer array of t's shape {np.shape(at)}, got {got}")


def _std_slides(slow: Decomposition, std: np.ndarray, t):
    """The slow bank's slides of the std track over the windows ending at
    origins t (signed), and each origin's entry in them: see _slides."""
    return _slides(slow.bank, std, t - slow.warmup - (len(slow) - len(std)))


def _forecast(slow: Decomposition, fast: Decomposition, std_slides, t, h,
              level: float, deadband_mult: float):
    """forecast_point's arithmetic at origins t (signed) and horizons h (a
    number, or an array of t's shape): (trend_hat, lo, hi, position codes,
    deadband). std_slides is what _std_slides returns for t, or for an
    array of more origins of which t is a prefix."""
    slides, entries = std_slides
    if np.ndim(t):
        entries = entries[: len(t)]
    std_hat = _extrapolate(slides, entries, slow.bank.spec.spacing, h, floor=0.0)
    trend_hat = forecast_trend(slow, t, h)
    price_hat = forecast_trend(fast, t, h)
    lo, hi = confidence_band(trend_hat, std_hat, level)
    deadband = deadband_mult * std_hat
    return trend_hat, lo, hi, _position_codes(price_hat, trend_hat, deadband), deadband
