"""Trend extraction and forecasting with finite-window polynomial filters.

The pipeline: ingest a uniformly sampled price series, split it into a
trend plus a quickly fluctuating remainder with causal derivative
estimators, track the remainder's rolling moments, extrapolate trend and
moments over short horizons with confidence bands and above/under-trend
calls, score those calls walk-forward, and Monte-Carlo-test whether
geometric Brownian motion oscillates around its mean trend.
"""
from .backtest import (
    BacktestConfig,
    BacktestReport,
    HorizonResult,
    emit_report,
    score_positions,
    walk_forward,
)
from .decompose import (
    NOT_QUICKLY_FLUCTUATING,
    QUICKLY_FLUCTUATING,
    Decomposition,
    OscillationReport,
    emit_decomposition,
    oscillation_score,
    sliding_trend,
)
from .forecast import (
    ABOVE,
    NO_DECISION,
    UNDER,
    ForecastPoint,
    classify_position,
    confidence_band,
    forecast_moments,
    forecast_point,
    forecast_trend,
    taylor_extrapolate,
)
from .gbm import (
    NORMAL_SOURCE,
    GbmParams,
    ResidualStat,
    oscillation_probability,
    residual_integral,
    simulate_paths,
)
from .kernels import (
    EstimatorSpec,
    KernelBank,
    build_kernel_bank,
    emit_weights,
    kernel_noise_gain,
)
from .moments import MomentTrack, emit_moments, moment_tracks, rolling_central_moment
from .series_io import PriceSeries, dump_prices, load_prices

__version__ = "1.0.0"

__all__ = [
    "ABOVE",
    "BacktestConfig",
    "BacktestReport",
    "Decomposition",
    "EstimatorSpec",
    "ForecastPoint",
    "GbmParams",
    "HorizonResult",
    "KernelBank",
    "MomentTrack",
    "NORMAL_SOURCE",
    "NOT_QUICKLY_FLUCTUATING",
    "NO_DECISION",
    "OscillationReport",
    "PriceSeries",
    "QUICKLY_FLUCTUATING",
    "ResidualStat",
    "UNDER",
    "build_kernel_bank",
    "classify_position",
    "confidence_band",
    "dump_prices",
    "emit_decomposition",
    "emit_moments",
    "emit_report",
    "emit_weights",
    "forecast_moments",
    "forecast_point",
    "forecast_trend",
    "kernel_noise_gain",
    "load_prices",
    "moment_tracks",
    "oscillation_probability",
    "oscillation_score",
    "residual_integral",
    "rolling_central_moment",
    "score_positions",
    "simulate_paths",
    "sliding_trend",
    "taylor_extrapolate",
    "walk_forward",
]
