"""Command-line entry point wiring the full pipeline.

One executable with subcommands (decompose, moments, forecast, backtest,
gbm). Each subcommand checks its flags before it reads the price file
(only the checks that need the file's length come after it), then
computes and returns its outputs as {file name: text}; forecast and
backtest validate their flags as one BacktestConfig and share
backtest.forecast_setup. main is the one writer: it writes every file of
a subcommand to a temp file, created by open(..., "x") (exclusive, with
the mode a plain open gives), before it renames any of them into
place, so a failed computation or write leaves no new output; only a
failed rename, which runs after every file has been written, can leave
earlier files of that subcommand behind. Given identical inputs, flags,
and seed, outputs are byte-identical across runs on one host, numpy
build and BLAS kernel: numpy's OpenBLAS picks its kernels by CPU (or by
OPENBLAS_CORETYPE), and the series outputs pass through it in the slide,
the kernel projection and the noise gain.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .backtest import BacktestConfig, emit_report, forecast_setup, walk_forward
from .decompose import (
    check_min_window, check_threshold, check_window, emit_decomposition, oscillation_score,
    oscillation_verdict, sliding_trend,
)
from .forecast import forecast_point
from .gbm import NORMAL_SOURCE, GbmParams, oscillation_probability
from .kernels import EstimatorSpec, build_kernel_bank
from .moments import check_moment_window, emit_moments, moment_tracks
from .series_io import date_labels, emit_kv, emit_table, load_prices


def _emit_all(out_dir: str, outputs: dict[str, str]) -> list[str]:
    """Write outputs (file name -> text) into out_dir; the paths written.

    Every file is first written to a temp file in out_dir, created by
    open(..., "x"), and only then renamed into place. A failed write
    removes every temp file this call created, so it leaves no new output.
    """
    os.makedirs(out_dir, exist_ok=True)
    staged: list[tuple[str, str]] = []  # (temp file, final path)
    try:
        for filename, text in outputs.items():
            tmp = os.path.join(out_dir, ".tmp-" + os.urandom(8).hex())
            with open(tmp, "x", encoding="utf-8") as handle:
                staged.append((tmp, os.path.join(out_dir, filename)))
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return [path for _, path in staged]


def _horizon_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"horizons must be comma-separated integers, got {text!r}") from exc


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="price file (delimiter-separated text with header)")
    sub.add_argument("--date-col", default="Date", help="date column name (YYYY-MM-DD dates)")
    sub.add_argument("--price-col", default="Close", help="price column name (currency units)")


def _add_kernel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--window", type=int, default=21, help="slow estimator window W (samples)")
    sub.add_argument("--degree", type=int, default=2, help="polynomial order N of the local model")
    sub.add_argument("--smoothing", type=int, default=1, help="extra integration count kappa (>= 1)")


def _add_forecast_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fast-window", type=int, default=7, help="fast price-estimator window (samples)")
    sub.add_argument("--moment-window", type=int, default=100, help="moment window M (samples)")
    sub.add_argument("--horizons", type=_horizon_list, default=(1, 5), help="forecast horizons (days, comma-separated)")
    sub.add_argument("--level", type=float, default=0.95, help="confidence level for the band, in (0, 1)")
    sub.add_argument("--deadband-mult", type=float, default=0.1, help="deadband as a multiple of predicted std")


def _slow_spec(args: argparse.Namespace) -> EstimatorSpec:
    return EstimatorSpec(degree=args.degree, window=args.window, smoothing=args.smoothing)


def _config(args: argparse.Namespace) -> BacktestConfig:
    return BacktestConfig(
        horizons=args.horizons,
        spec_slow=_slow_spec(args),
        spec_fast=replace(_slow_spec(args), window=args.fast_window),
        M=args.moment_window,
        level=args.level,
        deadband_rule=args.deadband_mult,
    )


def _cmd_decompose(args: argparse.Namespace) -> dict[str, str]:
    # before the load, the slide and the scan; min_window <= n needs the file
    check_threshold(args.oscillation_threshold)
    check_min_window(args.oscillation_min_window)
    spec = _slow_spec(args)
    series = load_prices(args.input, date_col=args.date_col, price_col=args.price_col)
    check_window(len(series), spec.window)  # before the build, whose cost grows with W
    dec = sliding_trend(series, build_kernel_bank(spec))
    report = oscillation_score(
        dec.fluctuation,
        min_window=args.oscillation_min_window,
        threshold=args.oscillation_threshold,
        source=series,
    )
    kv = emit_kv([
        ("series", series.name),
        ("samples", len(series)),
        ("window", spec.window),
        ("degree", spec.degree),
        ("smoothing", spec.smoothing),
        ("score", report.score),
        ("scale", report.scale),
        ("min_window", report.min_window),
        ("threshold", report.threshold),
        ("verdict", report.verdict),
    ])
    return {
        f"{series.name}_decomposition.csv": emit_decomposition(dec),
        f"{series.name}_oscillation.kv": kv,
    }


def _cmd_moments(args: argparse.Namespace) -> dict[str, str]:
    spec = _slow_spec(args)
    check_moment_window(args.moment_window)
    series = load_prices(args.input, date_col=args.date_col, price_col=args.price_col)
    # W - 1 samples of trend warm-up, then M + 1 for the first window
    need = spec.window + args.moment_window
    if len(series) < need:
        raise ValueError(f"series too short: need at least {need} samples, got {len(series)}")
    dec = sliding_trend(series, build_kernel_bank(spec))
    track = moment_tracks(dec.fluctuation, args.moment_window)
    text = emit_moments(track, dates=series.dates, offset=dec.warmup)
    return {f"{series.name}_moments.csv": text}


def _cmd_forecast(args: argparse.Namespace) -> dict[str, str]:
    config = _config(args)
    series = load_prices(args.input, date_col=args.date_col, price_col=args.price_col)
    slow, fast, std, start = forecast_setup(series, config)
    n = len(series)
    origins = np.arange(start, n)
    points = [
        forecast_point(slow, fast, std, origins, h, level=config.level, deadband_mult=config.deadband_rule)
        for h in config.horizons
    ]
    text = emit_table(
        ("date", "horizon", "trend_hat", "lo", "hi", "position"),
        (date_labels(series.dates, start, n) * len(points),
         np.repeat(config.horizons, len(origins)),
         *(np.concatenate([getattr(p, name) for p in points])
           for name in ("trend_hat", "lo", "hi", "position"))),
    )
    return {f"{series.name}_forecast.csv": text}


def _cmd_backtest(args: argparse.Namespace) -> dict[str, str]:
    config = _config(args)
    series = load_prices(args.input, date_col=args.date_col, price_col=args.price_col)
    report = walk_forward(series, config)
    return {
        f"{series.name}_backtest.txt": emit_report(report, "text"),
        f"{series.name}_backtest.kv": emit_report(report, "structured"),
    }


def _cmd_gbm(args: argparse.Namespace) -> dict[str, str]:
    params = GbmParams(
        mu=args.mu, sigma=args.sigma, s0=args.s0, t_end=args.t_end,
        steps=args.steps, paths=args.paths, seed=args.seed,
    )
    check_threshold(args.oscillation_threshold)  # before the ensemble runs
    stat = oscillation_probability(params, args.epsilon)
    kv = emit_kv([
        ("mu", params.mu),
        ("sigma", params.sigma),
        ("s0", params.s0),
        ("t_end", params.t_end),
        ("steps", params.steps),
        ("paths", params.paths),
        ("seed", params.seed),
        ("epsilon", stat.epsilon),
        ("p_hat", stat.p_hat),
        ("stderr", stat.stderr),
        ("threshold", args.oscillation_threshold),
        ("verdict", oscillation_verdict(stat.p_hat, args.oscillation_threshold)),
        ("generator", NORMAL_SOURCE),
    ])
    return {"gbm_stats.kv": kv}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The trendlab parser, built once per process (parse_args does not
    change it); callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="trendlab",
        description="Trend extraction, fluctuation statistics, forecasting, "
        "backtesting, and GBM oscillation tests for price series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = subs.add_parser("decompose", formatter_class=fmt,
                        help="split prices into trend + fluctuation and test the remainder")
    _add_input_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--oscillation-min-window", type=int, default=10,
                   help="smallest averaging window L_min (samples)")
    p.add_argument("--oscillation-threshold", type=float, default=0.05,
                   help="quick-fluctuation verdict threshold (fraction of scale)")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("moments", formatter_class=fmt,
                        help="rolling std/skew/kurt tracks of the fluctuation")
    _add_input_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--moment-window", type=int, default=100, help="moment window M (samples)")
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("forecast", formatter_class=fmt,
                        help="per-origin trend forecasts, bands, and position calls")
    _add_input_flags(p)
    _add_kernel_flags(p)
    _add_forecast_flags(p)
    p.set_defaults(func=_cmd_forecast)

    p = subs.add_parser("backtest", formatter_class=fmt,
                        help="walk-forward scoring of position forecasts")
    _add_input_flags(p)
    _add_kernel_flags(p)
    _add_forecast_flags(p)
    p.set_defaults(func=_cmd_backtest)

    p = subs.add_parser("gbm", formatter_class=fmt,
                        help="Monte Carlo oscillation test of geometric Brownian motion")
    p.add_argument("--mu", type=float, default=0.05, help="drift (per unit time)")
    p.add_argument("--sigma", type=float, default=0.2, help="volatility (per sqrt(time))")
    p.add_argument("--s0", type=float, default=1.0, help="initial price (currency units)")
    p.add_argument("--t-end", type=float, default=1.0, help="horizon T (time units)")
    p.add_argument("--steps", type=int, default=1000, help="grid steps on [0, T]")
    p.add_argument("--paths", type=int, default=10000, help="ensemble size")
    p.add_argument("--epsilon", type=float, default=0.05, help="residual integral threshold")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--oscillation-threshold", type=float, default=0.05,
                   help="p_hat at or below this counts as quickly fluctuating")
    p.set_defaults(func=_cmd_gbm)
    for p in subs.choices.values():  # last, so each --help lists it last
        p.add_argument("--out-dir", default=".", help="output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = _emit_all(args.out_dir, args.func(args))
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: say, gbm's grid at a huge --steps
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
