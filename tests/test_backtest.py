"""Walk-forward evaluation: scoring, tallies, and report emission."""
import tracemalloc
from dataclasses import fields, replace
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.backtest import (
    BacktestConfig,
    HorizonResult,
    emit_report,
    score_positions,
    walk_forward,
)
from trendlab.decompose import sliding_trend
from trendlab.forecast import (
    ABOVE,
    NO_DECISION,
    UNDER,
    first_forecast_origin,
    first_origin,
    forecast_point,
)
from trendlab.kernels import EstimatorSpec, KernelBank, build_kernel_bank
from trendlab.moments import moment_tracks
from trendlab.series_io import PriceSeries

SMALL = BacktestConfig(
    spec_slow=EstimatorSpec(degree=2, window=5),
    spec_fast=EstimatorSpec(degree=2, window=4),
    M=6,
    horizons=(1, 2),
)
WIDE_FAST = BacktestConfig(spec_fast=EstimatorSpec(degree=2, window=200))


def random_walk(n: int, seed: int) -> PriceSeries:
    rng = np.random.default_rng(seed)
    return PriceSeries("walk", 40.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n))))


def decompositions(series: PriceSeries, config: BacktestConfig):
    slow = sliding_trend(series, build_kernel_bank(config.spec_slow))
    fast = sliding_trend(series, build_kernel_bank(config.spec_fast))
    return slow, fast, moment_tracks(slow.fluctuation, config.M)


def per_origin_walk_forward(series: PriceSeries, config: BacktestConfig):
    """The scalar per-origin loop walk_forward replaced, kept as its oracle."""
    slow, fast, track = decompositions(series, config)
    n = len(series)
    results = []
    for h in config.horizons:
        predictions, realized, stds = [], [], []
        sq_err = 0.0
        covered = skipped = 0
        for t in range(first_origin(config.spec_slow.window, config.M), n - h):
            try:
                point = forecast_point(
                    slow, fast, track.std, t, h,
                    level=config.level, deadband_mult=config.deadband_rule,
                )
            except ValueError:
                skipped += 1
                continue
            target = float(series.values[t + h])
            realized.append(ABOVE if float(slow.fluctuation[t + h - slow.warmup]) > 0 else UNDER)
            predictions.append(point.position)
            sq_err += (point.trend_hat - target) ** 2
            covered += int(point.lo <= target <= point.hi)
            stds.append(float(track.std[t - slow.warmup - track.warmup]))
        count = len(predictions)
        exact = sum(p == r for p, r in zip(predictions, realized))
        nodecision = predictions.count(NO_DECISION)
        results.append(
            HorizonResult(
                horizon=h,
                exact_pct=100.0 * exact / count,
                nodecision_pct=100.0 * nodecision / count,
                wrong_pct=100.0 * (count - exact - nodecision) / count,
                rmse=sqrt(sq_err / count),
                coverage=covered / count,
                het_ratio=max(stds) / min(stds) if min(stds) > 0 else float("inf"),
                origins=count,
                skipped=skipped,
            )
        )
    return tuple(results)


class TestBacktestConfig:
    def test_defaults(self):
        cfg = BacktestConfig()
        assert cfg.horizons == (1, 5)
        assert cfg.spec_slow.window == 21 and cfg.spec_fast.window == 7
        assert cfg.M == 100 and cfg.level == 0.95 and cfg.deadband_rule == 0.1

    def test_min_samples_counts_warmups_and_horizon(self):
        cfg = BacktestConfig()
        # slow warm-up twice (decomposition + track window), M, horizon, origin
        assert cfg.min_samples() == 2 * 20 + 100 + 5 + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="horizons must be nonempty"):
            BacktestConfig(horizons=())
        with pytest.raises(ValueError, match="horizons must be integers >= 1"):
            BacktestConfig(horizons=(0,))
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            BacktestConfig(M=0)
        for flag in (True, False):  # bool is an int subclass, but not a count
            with pytest.raises(ValueError, match=rf"horizons must be integers >= 1, got \(1, {flag}\)$"):
                BacktestConfig(horizons=(1, flag))
            with pytest.raises(ValueError, match=f"M must be an integer >= 1, got {flag}$"):
                BacktestConfig(M=flag)
        with pytest.raises(ValueError, match="level must be inside"):
            BacktestConfig(level=1.5)
        with pytest.raises(ValueError, match="deadband_rule must be >= 0"):
            BacktestConfig(deadband_rule=-1.0)
        with pytest.raises(ValueError, match="deadband_rule must be >= 0, got nan"):
            BacktestConfig(deadband_rule=float("nan"))
        with pytest.raises(ValueError, match="deadband_rule must be finite, got inf$"):
            BacktestConfig(deadband_rule=float("inf"))


class TestScorePositions:
    def test_percentages(self):
        preds = [ABOVE, UNDER, NO_DECISION, ABOVE]
        real = [ABOVE, UNDER, ABOVE, UNDER]
        exact, nodec, wrong = score_positions(preds, real)
        assert (exact, nodec, wrong) == (50.0, 25.0, 25.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="nothing to score"):
            score_positions([], [])
        with pytest.raises(ValueError):
            score_positions([ABOVE], [ABOVE, UNDER])
        with pytest.raises(ValueError, match="realized positions must be above/under"):
            score_positions([ABOVE], [NO_DECISION])
        with pytest.raises(ValueError, match="unknown prediction"):
            score_positions(["sideways"], [ABOVE])

    @settings(max_examples=200, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.sampled_from([ABOVE, UNDER, NO_DECISION]), st.sampled_from([ABOVE, UNDER])),
            min_size=1, max_size=60,
        ),
        as_arrays=st.booleans(),
    )
    def test_agrees_with_counting_the_strings(self, calls, as_arrays):
        predictions, realized = (list(column) for column in zip(*calls))
        total = len(calls)
        exact = sum(p == r for p, r in calls)
        nodecision = predictions.count(NO_DECISION)
        wrong = total - nodecision - exact
        if as_arrays:
            predictions, realized = np.array(predictions), np.array(realized)
        assert score_positions(predictions, realized) == (
            100.0 * exact / total, 100.0 * nodecision / total, 100.0 * wrong / total
        )


class TestWalkForward:
    def test_convex_trend_is_fully_predictable(self):
        t = np.arange(400)
        series = PriceSeries("exp", 30.0 * np.exp(0.002 * t))
        report = walk_forward(series, BacktestConfig())
        for result in report.results:
            assert result.exact_pct == 100.0
            assert result.nodecision_pct == 0.0
            assert result.wrong_pct == 0.0
            assert result.skipped == 0
        assert report.results[0].origins == 259
        assert report.results[1].origins == 255

    def test_origin_count_matches_admissible_range(self):
        n = 400
        series = PriceSeries("exp", 30.0 * np.exp(0.002 * np.arange(n)))
        report = walk_forward(series, BacktestConfig())
        t_min = 2 * 20 + 100
        for result in report.results:
            assert result.origins == n - result.horizon - t_min

    def test_percentages_sum_to_100(self, sinusoid_series):
        report = walk_forward(sinusoid_series, BacktestConfig())
        for result in report.results:
            total = result.exact_pct + result.nodecision_pct + result.wrong_pct
            assert total == pytest.approx(100.0, abs=1e-9)

    def test_default_window_characterization(self, sinusoid_series):
        report = walk_forward(sinusoid_series, BacktestConfig())
        by_h = {r.horizon: r for r in report.results}
        assert by_h[1].exact_pct == pytest.approx(48.3443708609, abs=1e-8)
        assert by_h[5].exact_pct == pytest.approx(48.4870848708, abs=1e-8)
        assert by_h[1].origins == 1359 and by_h[5].origins == 1355

    def test_coverage_and_het_ratio_reported(self, sinusoid_series):
        report = walk_forward(sinusoid_series, BacktestConfig())
        for result in report.results:
            assert 0.0 <= result.coverage <= 1.0
            assert result.het_ratio >= 1.0
            assert result.rmse > 0.0

    def test_spacing_invariance(self):
        t = np.arange(260)
        values = 60.0 + 5.0 * np.sin(2.0 * np.pi * t / 125.0)
        a = walk_forward(PriceSeries("s", values), BacktestConfig())
        half = BacktestConfig(
            spec_slow=EstimatorSpec(degree=2, window=21, spacing=0.5),
            spec_fast=EstimatorSpec(degree=2, window=7, spacing=0.5),
        )
        b = walk_forward(PriceSeries("s", values), half)
        for ra, rb in zip(a.results, b.results):
            assert ra.exact_pct == rb.exact_pct
            assert ra.nodecision_pct == rb.nodecision_pct

    def test_boundary_length(self):
        cfg = BacktestConfig(
            spec_slow=EstimatorSpec(degree=2, window=5),
            spec_fast=EstimatorSpec(degree=2, window=4),
            M=6,
            horizons=(1, 2),
        )
        assert cfg.min_samples() == 17
        values = 50.0 + np.linspace(0.0, 5.0, 17)
        report = walk_forward(PriceSeries("s", values), cfg)
        assert report.results[1].origins == 1
        with pytest.raises(ValueError, match="series too short: need at least 17"):
            walk_forward(PriceSeries("s", values[:16]), cfg)

    def test_fast_window_must_fit_too(self):
        cfg = BacktestConfig(
            spec_slow=EstimatorSpec(degree=2, window=5),
            spec_fast=EstimatorSpec(degree=2, window=4),
            M=6,
            horizons=(1,),
        )
        values = 50.0 + np.sin(np.arange(20.0))
        report = walk_forward(PriceSeries("s", values), cfg)
        assert report.results[0].origins == 5

    def test_no_origin_left_for_the_fast_window(self):
        # the fast window (17) outgrows the slow-side bound 2 * 4 + 6 = 14
        cfg = replace(SMALL, spec_fast=EstimatorSpec(degree=2, window=17))
        need = cfg.min_samples()
        assert need == 16 + 2 + 1
        with pytest.raises(ValueError, match=f"series too short: need at least {need} samples"):
            walk_forward(random_walk(need - 1, seed=1), cfg)
        report = walk_forward(random_walk(need, seed=1), cfg)
        assert report.results[-1].horizon == max(cfg.horizons)
        assert report.results[-1].origins == 1


class TestArrayPathMatchesPerOriginLoop:
    @pytest.mark.parametrize(
        "config, n, skipped",
        [(BacktestConfig(), 1500, 0), (SMALL, 200, 0), (WIDE_FAST, 400, 59)],
        ids=["default", "small", "wide-fast"],
    )
    def test_every_field_equals_the_loop(self, config, n, skipped):
        series = random_walk(n, seed=n)
        report = walk_forward(series, config)
        assert report.results == per_origin_walk_forward(series, config)
        for result in report.results:
            assert result.skipped == skipped
            for field in fields(result):
                assert type(getattr(result, field.name)) in (int, float)

    @pytest.mark.parametrize(
        "config", [BacktestConfig(), SMALL, WIDE_FAST], ids=["default", "small", "wide-fast"]
    )
    def test_array_forecast_point_equals_scalar_calls(self, config):
        series = random_walk(400, seed=3)
        slow, fast, track = decompositions(series, config)
        start = first_forecast_origin(config.spec_slow.window, config.spec_fast.window, config.M)
        origins = np.arange(start, len(series))
        with pytest.raises(ValueError):
            forecast_point(slow, fast, track.std, start - 1, 1)
        for h in config.horizons:
            batch = forecast_point(slow, fast, track.std, origins, h)
            assert (batch.horizon, batch.level) == (h, 0.95)
            for k, t in enumerate(origins.tolist()):
                point = forecast_point(slow, fast, track.std, t, h)
                assert type(point.trend_hat) is float and type(point.position) is str
                for name in ("origin", "trend_hat", "lo", "hi", "position", "deadband"):
                    assert getattr(point, name) == getattr(batch, name)[k]


class TestWalkForwardInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.integers(0, 3),
        slow_extra=st.integers(0, 16),
        fast_extra=st.integers(0, 40),
        M=st.integers(1, 12),
        horizons=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_percentages_and_origin_count(
        self, degree, slow_extra, fast_extra, M, horizons, extra, seed
    ):
        slow_w, fast_w = degree + 2 + slow_extra, degree + 2 + fast_extra
        config = BacktestConfig(
            horizons=tuple(horizons),
            spec_slow=EstimatorSpec(degree=degree, window=slow_w),
            spec_fast=EstimatorSpec(degree=degree, window=fast_w),
            M=M,
        )
        start = first_forecast_origin(slow_w, fast_w, M)
        n = max(config.min_samples(), start + max(horizons) + 1) + extra
        values = np.random.default_rng(seed).uniform(1.0, 100.0, n)
        series = PriceSeries("random", values)
        report = walk_forward(series, config)
        for result in report.results:
            total = result.exact_pct + result.nodecision_pct + result.wrong_pct
            assert abs(total - 100.0) <= 1e-9
            assert result.origins + result.skipped == n - result.horizon - first_origin(slow_w, M)
        assert report.results == per_origin_walk_forward(series, config)


def test_horizons_do_not_add_to_the_peak():
    # one horizon's forecast and realized arrays are held at a time; at
    # 20,000 rows they, not the moment threads' scratch, set the peak
    series = random_walk(20_000, 21)

    def peak(horizons):
        config = BacktestConfig(horizons=horizons)
        walk_forward(series, config)  # caches stay out of the peak
        tracemalloc.start()
        try:
            walk_forward(series, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak((1,))
    assert peak((1, 2, 3, 4, 5)) <= 1.02 * one


@pytest.mark.parametrize("horizons", [(1, 5, 10, 20), (20, 10, 5, 1)])
def test_std_track_is_slid_once_per_call(monkeypatch, horizons):
    # the slow and fast trends and the std track, three orders each, for
    # any number of horizons
    series = random_walk(600, 4)
    slide, orders = KernelBank.slide, []

    def counted(bank, values, order):
        orders.append(order)
        return slide(bank, values, order)

    monkeypatch.setattr(KernelBank, "slide", counted)
    counts = []
    for config in (BacktestConfig(horizons=(1,)), BacktestConfig(horizons=horizons)):
        orders.clear()
        walk_forward(series, config)
        counts.append(len(orders))
    assert counts[0] == counts[1]


class TestEmitReport:
    def setup_method(self):
        t = np.arange(400)
        self.series = PriceSeries("exp", 30.0 * np.exp(0.002 * t))
        self.report = walk_forward(self.series, BacktestConfig())

    def test_text_table(self):
        text = emit_report(self.report)
        lines = text.strip().splitlines()
        assert any("exact%" in line and "coverage" in line for line in lines)
        assert sum(1 for line in lines if line.lstrip().startswith(("1 ", "5 "))) == 2

    def test_structured_round_trip(self):
        kv = emit_report(self.report, format="structured")
        pairs = dict(
            line.split("=", 1) for line in kv.strip().splitlines() if "=" in line
        )
        assert pairs["series"] == "exp"
        assert int(pairs["samples"]) == 400
        assert int(pairs["slow_window"]) == 21
        by_h = {r.horizon: r for r in self.report.results}
        for h in (1, 5):
            assert float(pairs[f"h{h}.exact_pct"]) == by_h[h].exact_pct
            assert float(pairs[f"h{h}.rmse"]) == by_h[h].rmse
            assert int(pairs[f"h{h}.origins"]) == by_h[h].origins

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format must be 'text' or 'structured'"):
            emit_report(self.report, format="json")
