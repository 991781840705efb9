"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Each workload builds its inputs from the seed during set-up, then exposes
one round: a fixed list of operations. ``run`` times one operation and
returns a sample; ``check`` verifies its outputs outside the timed region.
The first time an operation is seen its outputs are checked in full (and
against the reference summary, when one is given); later repetitions must
reproduce them exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

import trendlab
import trendlab.cli

import checks

clock = time.perf_counter


@dataclass
class Op:
    key: str
    params: dict


@dataclass
class Sample:
    latency: float  # seconds inside the program for this operation
    parts: dict = field(default_factory=dict)  # seconds per stage or subcommand
    data: object = None  # outputs kept for the check, dropped afterwards


def write_series(path: str, n: int, rng: random.Random) -> list[float]:
    """Synthetic daily closes: GBM-like log returns plus a slow cycle.

    Dates are consecutive weekdays from 1997-07-07 (ISO); prices are
    written with repr, so loading them back is exact.
    """
    log_p = math.log(rng.uniform(5.0, 200.0))
    drift = rng.uniform(-0.0001, 0.0003)
    vol = rng.uniform(0.008, 0.025)
    amp = rng.uniform(0.03, 0.15)
    period = rng.uniform(120.0, 500.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    day = date(1997, 7, 7)
    prices = []
    lines = ["Date,Close"]
    for k in range(n):
        log_p += rng.gauss(drift, vol)
        price = math.exp(log_p + amp * math.sin(2.0 * math.pi * k / period + phase))
        prices.append(price)
        lines.append(f"{day.isoformat()},{price!r}")
        day += timedelta(days=3 if day.weekday() == 4 else 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return prices


def _stratified_lengths(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    # One length per equal slice of [lo, hi], drawn in antithetic pairs
    # (slice i at u, slice count-1-i at 1-u) and shuffled: the seed sets
    # the lengths, their order and the prices, while the total and the
    # median length, and so a round's work, stay the same for every seed.
    step = (hi - lo) / count
    lengths = [0] * count
    for i in range(count // 2):
        u = rng.random()
        lengths[i] = lo + round((i + u) * step)
        lengths[count - 1 - i] = lo + round((count - i - u) * step)
    if count % 2:
        lengths[count // 2] = lo + round((count // 2 + 0.5) * step)
    rng.shuffle(lengths)
    return lengths


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


class Workload:
    """Shared bookkeeping: first-seen outputs, their summaries, the reference."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str, reference: dict | None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = size
        self.workdir = workdir
        self.reference = reference
        self.fingerprints: dict[str, object] = {}
        self.summaries: dict[str, dict] = {}

    def verify(self, key: str, fingerprint, full_check) -> list[str]:
        """Full check and reference comparison the first time an operation
        is seen; afterwards its outputs must repeat exactly."""
        if key in self.fingerprints:
            if fingerprint != self.fingerprints[key]:
                return ["output differs from the first repetition in this run"]
            return []
        self.fingerprints[key] = fingerprint
        errors, summary = full_check()
        self.summaries[key] = summary
        if self.reference is not None:
            errors += checks.compare(summary, self.reference.get(key), key)
        return errors


# daily_batch: the paper's use, an analyst screening a universe of tickers
# through the CLI. Most time goes to the per-origin Python loop
# (forecast/backtest), file parsing and text emission; the O(n^2)
# oscillation scan is a small share here.
class DailyBatch(Workload):
    name = "daily_batch"
    SUBCOMMANDS = ("decompose", "moments", "forecast", "backtest")
    FILES = {
        "decompose": ("_decomposition.csv", "_oscillation.kv"),
        "moments": ("_moments.csv",),
        "forecast": ("_forecast.csv",),
        "backtest": ("_backtest.txt", "_backtest.kv"),
    }
    # CLI defaults: slow window, moment window, horizons, and the first origin.
    W, M, HORIZONS = 21, 100, (1, 5)
    T_MIN = 2 * (W - 1) + M
    SIZES = {"full": (10, 600, 2800), "tiny": (2, 300, 400)}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        count, lo, hi = self.SIZES[self.size]
        inputs = os.path.join(self.workdir, "inputs")
        self.out_dir = os.path.join(self.workdir, "out")
        os.makedirs(inputs)
        os.makedirs(self.out_dir)
        self.prices: dict[str, list[float]] = {}
        self.origins: dict[str, int] = {}
        self._ops = []
        for i, n in enumerate(_stratified_lengths(self.rng, count, lo, hi)):
            stem = f"T{i:03d}"
            path = os.path.join(inputs, f"{stem}.csv")
            self.prices[stem] = write_series(path, n, self.rng)
            self._ops.append(Op(stem, {"path": path, "n": n}))

    def ops(self) -> list[Op]:
        return self._ops

    def run(self, op: Op, tracer) -> Sample:
        parts = {}
        listed = []
        for sub in self.SUBCOMMANDS:
            argv = [sub, "--input", op.params["path"], "--out-dir", self.out_dir]
            sink = io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(sink):
                code = trendlab.cli.main(argv)
            parts[sub] = clock() - start
            if code != 0:
                raise RuntimeError(f"trendlab {sub} exited with {code}")
            listed += sink.getvalue().split()
        if tracer is not None:
            tracer.count("cli.files_written", len(listed))
            tracer.count("cli.bytes_written", sum(os.path.getsize(p) for p in listed))
        return Sample(sum(parts.values()), parts, listed)

    def check(self, op: Op, sample: Sample) -> list[str]:
        stem = op.key
        want = [os.path.join(self.out_dir, stem + suffix)
                for sub in self.SUBCOMMANDS for suffix in self.FILES[sub]]
        if sample.data != want:
            return [f"listed outputs {sample.data} != expected {want}"]
        texts = {}
        for path in want:
            with open(path, "rb") as handle:
                texts[path[len(self.out_dir) + len(stem) + 2:]] = handle.read()
        digest = {name: hashlib.sha256(body).hexdigest() for name, body in texts.items()}
        return self.verify(stem, digest, lambda: self._full_check(
            stem, op.params["n"], {name: body.decode("utf-8") for name, body in texts.items()}))

    def _full_check(self, stem: str, n: int, text: dict[str, str]):
        errors: list[str] = []
        summary: dict = {"samples": n}
        prices = self.prices[stem]

        rows = [line.split(",") for line in text["decomposition.csv"].splitlines()[1:]]
        if len(rows) != n - self.W + 1:
            errors.append(f"decomposition has {len(rows)} rows, want {n - self.W + 1}")
        src = [float(r[2]) for r in rows]
        trend = [float(r[3]) for r in rows]
        fluct = [float(r[6]) for r in rows]
        if src != prices[self.W - 1:]:
            errors.append("decomposition price column differs from the input file")
        errors += checks.check_reconstruction(src, trend, fluct)
        summary["decomposition"] = {"rows": len(rows), "trend_sum": math.fsum(trend),
                                    "abs_fluctuation_sum": math.fsum(map(abs, fluct))}

        kv = checks.parse_kv(text["oscillation.kv"])
        score, threshold = float(kv["score"]), float(kv["threshold"])
        errors += checks.check_verdict(score, threshold, kv["verdict"])
        summary["oscillation"] = {"score": score, "scale": float(kv["scale"]),
                                  "verdict": kv["verdict"]}

        rows = [line.split(",") for line in text["moments.csv"].splitlines()[1:]]
        want_rows = n - (self.W - 1) - self.M
        if len(rows) != want_rows:
            errors.append(f"moments has {len(rows)} rows, want {want_rows}")
        std = [float(r[2]) for r in rows]
        if any(not s >= 0.0 for s in std):
            errors.append("negative or NaN std in the moments track")
        summary["moments"] = {"rows": len(rows), "std_sum": math.fsum(std),
                              "defined": sum(1 for r in rows if r[3] != "")}

        per_h: dict[int, list] = {h: [] for h in self.HORIZONS}
        for line in text["forecast.csv"].splitlines()[1:]:
            _, h, trend_hat, lo, hi, position = line.split(",")
            per_h.setdefault(int(h), []).append((float(trend_hat), float(lo), float(hi), position))
        summary["forecast"] = {}
        for h, points in per_h.items():
            if len(points) != n - self.T_MIN:
                errors.append(f"forecast h{h} has {len(points)} rows, want {n - self.T_MIN}")
            if any(not lo <= t <= hi for t, lo, hi, _ in points):
                errors.append(f"forecast h{h}: trend_hat outside its band")
            positions = [p for *_, p in points]
            if set(positions) - {"above", "under", "no_decision"}:
                errors.append(f"forecast h{h}: unknown positions {set(positions)}")
            count = max(len(points), 1)
            summary["forecast"][f"h{h}"] = {
                "origins": len(points),
                "trend_hat_sum": math.fsum(t for t, *_ in points),
                **{f"{p}_pct": 100.0 * positions.count(p) / count
                   for p in ("above", "under", "no_decision")},
            }

        results = checks.backtest_from_kv(checks.parse_kv(text["backtest.kv"]))
        errors += checks.check_backtest(results, n, self.T_MIN)
        self.origins[stem] = sum(r["origins"] for r in results.values())
        summary["backtest"] = {f"h{h}": r for h, r in sorted(results.items())}
        return errors, summary

    def report(self, samples: list[tuple[Op, Sample]]) -> dict:
        latencies = [s.latency for _, s in samples]
        backtest_s = sum(s.parts["backtest"] for _, s in samples)
        out = {
            "series_per_s": {"value": len(samples) / sum(latencies), "unit": "1/s"},
            "series_p50_ms": {"value": _median_ms(latencies), "unit": "ms"},
            "series_tail_ms": {**tail(1e3 * x for x in latencies), "unit": "ms"},
        }
        for sub in self.SUBCOMMANDS:
            out[f"{sub}_ms"] = {"value": _median_ms([s.parts[sub] for _, s in samples]),
                                "unit": "ms"}
        origins = sum(self.origins[op.key] for op, _ in samples)
        out["origins_per_s"] = {"value": origins / backtest_s, "unit": "1/s"}
        return out


# long_history: the same series pipeline through the library API on a few
# 20,000-row series (80 years of daily bars, or intraday bars), with no
# output files. The O(n^2) oscillation scan and the moments (libm pow for
# MA3/MA4) dominate; cli and text emission do no work here.
class LongHistory(Workload):
    name = "long_history"
    # The tuned slow window of the walk-forward demo, horizons (1, 5).
    SPEC = dict(degree=2, window=121, smoothing=3)
    M, HORIZONS = 100, (1, 5)
    T_MIN = 2 * (SPEC["window"] - 1) + M
    SIZES = {"full": (2, 20_000), "tiny": (1, 1_500)}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        count, n = self.SIZES[self.size]
        self.origins: dict[str, int] = {}
        self._ops = []
        for i in range(count):
            path = os.path.join(self.workdir, f"L{i:03d}.csv")
            write_series(path, n, self.rng)
            self._ops.append(Op(f"L{i:03d}", {"path": path, "n": n}))

    def ops(self) -> list[Op]:
        return self._ops

    def run(self, op: Op, tracer) -> Sample:
        spec = trendlab.EstimatorSpec(**self.SPEC)
        config = trendlab.BacktestConfig(horizons=self.HORIZONS, spec_slow=spec, M=self.M)
        t0 = clock()
        series = trendlab.load_prices(op.params["path"])
        t1 = clock()
        dec = trendlab.sliding_trend(series, trendlab.build_kernel_bank(spec))
        t2 = clock()
        report = trendlab.oscillation_score(dec.fluctuation, source=series)
        t3 = clock()
        track = trendlab.moment_tracks(dec.fluctuation, M=self.M)
        t4 = clock()
        backtest = trendlab.walk_forward(series, config)
        t5 = clock()
        parts = {"load": t1 - t0, "trend": t2 - t1, "oscillation": t3 - t2,
                 "moments": t4 - t3, "walk_forward": t5 - t4}
        return Sample(t5 - t0, parts, (series, dec, report, track, backtest))

    def check(self, op: Op, sample: Sample) -> list[str]:
        series, dec, report, track, backtest = sample.data
        results = checks.backtest_from_report(backtest)
        summary = {
            "samples": len(series),
            "trend_sum": math.fsum(dec.trend),
            "abs_fluctuation_sum": math.fsum(np.abs(dec.fluctuation)),
            "oscillation": {"score": report.score, "scale": report.scale,
                            "verdict": report.verdict},
            "moments": {"rows": len(track), "std_sum": math.fsum(track.std),
                        "defined": int(np.count_nonzero(track.defined))},
            "backtest": {f"h{h}": r for h, r in sorted(results.items())},
        }
        self.origins[op.key] = sum(r["origins"] for r in results.values())

        def full_check():
            errors = []
            src = series.values[dec.warmup:]
            if not np.all(np.abs((dec.trend + dec.fluctuation) - src) <= np.spacing(src)):
                errors.append("trend + fluctuation does not reconstruct the source")
            errors += checks.check_verdict(report.score, report.threshold, report.verdict)
            errors += checks.check_backtest(results, len(series), self.T_MIN)
            return errors, summary

        return self.verify(op.key, summary, full_check)

    def report(self, samples: list[tuple[Op, Sample]]) -> dict:
        walk_s = sum(s.parts["walk_forward"] for _, s in samples)
        return {
            "series_per_s": {"value": len(samples) / sum(s.latency for _, s in samples),
                             "unit": "1/s"},
            "origins_per_s": {"value": sum(self.origins[op.key] for op, _ in samples) / walk_s,
                              "unit": "1/s"},
        }


# gbm_lab: only the gbm module, its block loop used two ways: as a
# streaming reduction (oscillation_probability at the CLI default and a
# sigma sweep with the sigma = 0 control) and as a materialised ensemble
# (simulate_paths + residual_integral). No series-pipeline change should
# move it; the materialised ensemble makes peak_rss_mb meaningful.
class GbmLab(Workload):
    name = "gbm_lab"
    EPSILON, MU = 0.05, 0.05
    SWEEP = (0.0, 0.05, 0.1, 0.2, 0.4)
    # (paths, steps) of the CLI-default test, of each sweep point, of the ensemble
    SIZES = {"full": ((10_000, 1_000), (4_000, 500), (2_000, 1_000)),
             "tiny": ((500, 100), (200, 50), (100, 100))}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        default, sweep, ensemble = self.SIZES[self.size]

        def params(sigma, shape):
            return trendlab.GbmParams(mu=self.MU, sigma=sigma, steps=shape[1], paths=shape[0],
                                      seed=self.rng.randrange(2**32))

        self._ops = [Op("default", {"params": params(0.2, default)})]
        self._ops += [Op(f"sigma_{s}", {"params": params(s, sweep)}) for s in self.SWEEP]
        self._ops.append(Op("ensemble", {"params": params(0.2, ensemble)}))

    def ops(self) -> list[Op]:
        return self._ops

    def run(self, op: Op, tracer) -> Sample:
        params = op.params["params"]
        start = clock()
        if op.key == "ensemble":
            paths = trendlab.simulate_paths(params)
            integrals = [trendlab.residual_integral(row, params) for row in paths]
            out = (paths, integrals)
        else:
            out = trendlab.oscillation_probability(params, self.EPSILON)
        return Sample(clock() - start, {}, out)

    def check(self, op: Op, sample: Sample) -> list[str]:
        params = op.params["params"]
        if op.key != "ensemble":
            stat = sample.data
            summary = {"p_hat": stat.p_hat, "paths": stat.paths}
            return self.verify(op.key, summary, lambda: (
                checks.check_gbm(stat.p_hat, stat.stderr, params.paths, params.sigma), summary))
        paths, integrals = sample.data
        summary = {
            "paths": params.paths,
            "final_sum": math.fsum(paths[:, -1]),
            "abs_integral_sum": math.fsum(map(abs, integrals)),
            "first_integrals": integrals[:3],
        }

        def full_check():
            errors = []
            if paths.shape != (params.paths, params.steps + 1):
                errors.append(f"ensemble shape {paths.shape}")
            if not np.all(paths[:, 0] == params.s0):
                errors.append("ensemble column 0 is not s0")
            if not np.all(np.isfinite(paths) & (paths > 0)):
                errors.append("ensemble has non-finite or non-positive prices")
            return errors, summary

        return self.verify(op.key, summary, full_check)

    def report(self, samples: list[tuple[Op, Sample]]) -> dict:
        steps = sum(op.params["params"].paths * op.params["params"].steps for op, _ in samples)
        return {"path_steps_per_s": {"value": steps / sum(s.latency for _, s in samples),
                                     "unit": "1/s"}}


WORKLOADS = {w.name: w for w in (DailyBatch, LongHistory, GbmLab)}
