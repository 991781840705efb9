"""Walk-forward evaluation of position forecasts over a price history.

forecast_setup builds what walk_forward and the forecast command read:
the slow and fast decompositions, the slow std track and the first
origin. walk_forward slides the slow bank over the std track once per
call, over the shortest horizon's origins, of which every other
horizon's origins are a prefix. Then, in one array pass per horizon over
every origin, it forecasts the trend (slow bank), the price (fast bank),
and the fluctuation std (from a prefix of those slides), calls a
position inside the deadband rule, and scores it against the realized
sign of price minus the retrospective slow trend at the target date.
Positions stay int8 codes throughout (0 above, 1 under, 2 no_decision;
realized 0 where the fluctuation is > 0, else 1); score_positions takes
the names and scores them by the same count. Percentages, forecast
errors, band coverage, and the std track's heteroscedasticity are
aggregated per horizon.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Sequence

import numpy as np

from . import forecast as fc
from .decompose import sliding_trend
from .kernels import EstimatorSpec, build_kernel_bank
from .moments import rolling_central_moment
from .series_io import PriceSeries, emit_kv


@dataclass(frozen=True)
class BacktestConfig:
    """Experiment grid and estimator settings for one backtest."""

    horizons: tuple[int, ...] = (1, 5)
    spec_slow: EstimatorSpec = EstimatorSpec(degree=2, window=21)
    spec_fast: EstimatorSpec = EstimatorSpec(degree=2, window=7)
    M: int = 100
    level: float = 0.95
    deadband_rule: float = 0.1

    def __post_init__(self) -> None:
        if len(self.horizons) == 0:
            raise ValueError("horizons must be nonempty")
        if any(isinstance(h, bool) or not isinstance(h, int) or h < 1 for h in self.horizons):
            raise ValueError(f"horizons must be integers >= 1, got {self.horizons!r}")
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError(f"horizons must be distinct, got {self.horizons!r}")
        if isinstance(self.M, bool) or not isinstance(self.M, int) or self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be inside (0, 1), got {self.level!r}")
        if not self.deadband_rule >= 0:
            raise ValueError(f"deadband_rule must be >= 0, got {self.deadband_rule!r}")
        if self.deadband_rule == inf:
            raise ValueError(f"deadband_rule must be finite, got {self.deadband_rule!r}")

    def min_samples(self) -> int:
        """Smallest series length with a scorable origin at every horizon."""
        start = fc.first_forecast_origin(self.spec_slow.window, self.spec_fast.window, self.M)
        return start + max(self.horizons) + 1


@dataclass(frozen=True)
class HorizonResult:
    """Aggregates for one forecast horizon."""

    horizon: int
    exact_pct: float
    nodecision_pct: float
    wrong_pct: float
    rmse: float
    coverage: float
    het_ratio: float
    origins: int
    skipped: int


@dataclass(frozen=True)
class BacktestReport:
    """Per-horizon results plus the run's identifying settings."""

    series_name: str
    samples: int
    config: BacktestConfig
    results: tuple[HorizonResult, ...]


def score_positions(
    predictions: Sequence[str], realized: Sequence[str]
) -> tuple[float, float, float]:
    """Percentages (exact, nodecision, wrong) over all origins.

    Raises:
        ValueError: length mismatch, empty input, or a realized entry
            that is not above/under.
    """
    if len(predictions) != len(realized):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions, {len(realized)} realized"
        )
    if len(predictions) == 0:
        raise ValueError("nothing to score")
    pred, real = np.asarray(predictions), np.asarray(realized)
    # == masks: np.isin would sort both string arrays
    real_above, real_under = real == fc.ABOVE, real == fc.UNDER
    bad = ~(real_above | real_under)
    if bad.any():
        raise ValueError(f"realized positions must be above/under, got {real[bad].tolist()[0]!r}")
    above, under = pred == fc.ABOVE, pred == fc.UNDER
    bad = ~(above | under | (pred == fc.NO_DECISION))
    if bad.any():
        raise ValueError(f"unknown prediction {pred[bad].tolist()[0]!r}")
    return _score(fc._codes(above, under), fc._codes(real_above, real_under))


def _score(codes: np.ndarray, realized: np.ndarray) -> tuple[float, float, float]:
    """score_positions on int8 position codes and realized codes (0 above,
    1 under) of one nonzero length."""
    total = len(codes)
    exact = int(np.count_nonzero(codes == realized))
    nodecision = int(np.count_nonzero(codes == fc._NO_DECISION_CODE))
    wrong = total - nodecision - exact
    return 100.0 * exact / total, 100.0 * nodecision / total, 100.0 * wrong / total


def forecast_setup(series: PriceSeries, config: BacktestConfig):
    """Slow and fast decompositions, slow std track, and first origin.

    The banks are built from config.spec_slow and config.spec_fast as
    given; their spacing is the sample interval the forecasts step in.

    Returns:
        (slow, fast, std, start): forecast_point runs at every origin
        start..len(series)-1.

    Raises:
        ValueError: no admissible origin (series length <= start).
    """
    start = fc.first_forecast_origin(config.spec_slow.window, config.spec_fast.window, config.M)
    n = len(series)
    if n <= start:
        raise ValueError(f"series too short: need at least {start + 1} samples, got {n}")
    slow = sliding_trend(series, build_kernel_bank(config.spec_slow))
    fast = sliding_trend(series, build_kernel_bank(config.spec_fast))
    std = np.sqrt(rolling_central_moment(slow.fluctuation, 2, config.M))
    return slow, fast, std, start


def walk_forward(series: PriceSeries, config: BacktestConfig) -> BacktestReport:
    """Run the forecast pipeline at every valid origin and score it.

    Origins start where forecast_setup says; those before it from
    forecast.first_origin(W_slow, M) on, which lack a fast-bank window,
    are counted as skipped.

    Raises:
        ValueError: series shorter than config.min_samples().
    """
    n = len(series)
    need = config.min_samples()
    if n < need:
        raise ValueError(f"series too short: need at least {need} samples, got {n}")
    slow, fast, std, start = forecast_setup(series, config)
    skipped = start - fc.first_origin(config.spec_slow.window, config.M)
    # every horizon's origins are a prefix of the shortest horizon's: slide those once
    std_slides = fc._std_slides(slow, std, np.arange(start, n - min(config.horizons)))
    results = []
    for h in config.horizons:
        origins = np.arange(start, n - h)
        trend_hat, lo, hi, codes, _ = fc._forecast(
            slow, fast, std_slides, origins, h, config.level, config.deadband_rule
        )
        target = series.values[origins + h]
        realized = fc._realized_codes(slow.fluctuation[origins + h - slow.warmup])
        exact, nodecision, wrong = _score(codes, realized)
        # float_power matches the scalar d ** 2, and cumsum adds in origin
        # order, so the error sum does not depend on numpy's summation.
        sq_err = float(np.cumsum(np.float_power(trend_hat - target, 2))[-1])
        covered = int(np.count_nonzero((lo <= target) & (target <= hi)))
        stds = std[origins - slow.warmup - config.M]
        std_min, std_max = float(stds.min()), float(stds.max())
        count = len(origins)
        results.append(
            HorizonResult(
                horizon=h,
                exact_pct=exact,
                nodecision_pct=nodecision,
                wrong_pct=wrong,
                rmse=sqrt(sq_err / count),
                coverage=covered / count,
                het_ratio=(std_max / std_min) if std_min > 0 else float("inf"),
                origins=count,
                skipped=skipped,
            )
        )
        # one horizon's arrays at a time: the next forecast runs without these
        del trend_hat, lo, hi, codes, _, target, realized, stds
    return BacktestReport(
        series_name=series.name,
        samples=n,
        config=config,
        results=tuple(results),
    )


def emit_report(report: BacktestReport, format: str = "text") -> str:
    """Render a report as a human table or as flat key=value lines."""
    if format not in ("text", "structured"):
        raise ValueError(f"format must be 'text' or 'structured', got {format!r}")
    cfg = report.config
    if format == "structured":
        pairs = [
            ("series", report.series_name),
            ("samples", report.samples),
            ("slow_window", cfg.spec_slow.window),
            ("fast_window", cfg.spec_fast.window),
            ("degree", cfg.spec_slow.degree),
            ("smoothing", cfg.spec_slow.smoothing),
            ("moment_window", cfg.M),
            ("level", cfg.level),
            ("deadband_mult", cfg.deadband_rule),
        ]
        for r in report.results:
            pairs += [
                (f"h{r.horizon}.{name}", getattr(r, name))
                for name in ("exact_pct", "nodecision_pct", "wrong_pct", "rmse", "coverage",
                             "het_ratio", "origins", "skipped")
            ]
        return emit_kv(pairs)
    lines = [
        f"walk-forward backtest: {report.series_name} ({report.samples} samples)",
        f"slow window {cfg.spec_slow.window}, fast window {cfg.spec_fast.window}, "
        f"degree {cfg.spec_slow.degree}, moment window {cfg.M}, "
        f"level {cfg.level}, deadband {cfg.deadband_rule} x std",
        "",
        "horizon  exact%   nodec%   wrong%     rmse  coverage  het_ratio  origins  skipped",
    ]
    for r in report.results:
        lines.append(
            f"{r.horizon:7d}  {r.exact_pct:6.2f}  {r.nodecision_pct:7.2f}  "
            f"{r.wrong_pct:7.2f}  {r.rmse:7.3f}  {r.coverage:8.3f}  "
            f"{r.het_ratio:9.3f}  {r.origins:7d}  {r.skipped:7d}"
        )
    return "\n".join(lines) + "\n"
