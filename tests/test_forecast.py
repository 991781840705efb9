"""Taylor forecasts, confidence bands, and the position classifier."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from trendlab.decompose import sliding_trend
from trendlab.forecast import (
    ABOVE,
    NO_DECISION,
    UNDER,
    _names,
    _ndtri,
    _realized_codes,
    classify_position,
    confidence_band,
    first_forecast_origin,
    forecast_moments,
    forecast_point,
    forecast_trend,
    taylor_extrapolate,
)
from trendlab.kernels import EstimatorSpec, build_kernel_bank
from trendlab.moments import MomentTrack, moment_tracks
from trendlab.series_io import PriceSeries

BANK = build_kernel_bank(EstimatorSpec())


def constant_kurt_track(std: np.ndarray, kurt: float = 3.0) -> MomentTrack:
    n = len(std)
    return MomentTrack(
        std=std,
        skew=np.zeros(n),
        kurt=np.full(n, kurt),
        defined=np.ones(n, dtype=bool),
        warmup=3,
    )


class TestTaylorExtrapolate:
    def test_quadratic_expansion(self):
        assert taylor_extrapolate(10.0, 2.0, 0.5, 2.0) == 15.0

    def test_zero_horizon_is_identity(self):
        assert taylor_extrapolate(3.25, 9.0, -4.0, 0.0) == 3.25

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            taylor_extrapolate(1.0, 0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="horizon must be >= 0, got nan"):
            taylor_extrapolate(1.0, 0.0, 0.0, float("nan"))

    def test_array_horizon_matches_scalar_calls(self):
        h = np.array([0.0, 1.0, 2.5, 7.0])
        got = taylor_extrapolate(np.full(4, 10.0), 2.0, np.arange(4.0), h)
        for k in range(4):
            assert got[k] == taylor_extrapolate(10.0, 2.0, float(k), float(h[k]))

    @pytest.mark.parametrize("h, message", [
        (np.array([0.0, 1.0, -2.0, np.nan]), "got -2.0 at index 2"),
        (np.array([3.0, np.nan, -1.0]), "got nan at index 1"),
        (np.array([5, 4, -1]), "got -1 at index 2"),
    ])
    def test_array_horizon_names_the_first_bad_entry(self, h, message):
        # the entry and its index, not the repr of the whole array
        with pytest.raises(ValueError, match=f"^horizon must be >= 0, {re.escape(message)}$"):
            taylor_extrapolate(np.ones(len(h)), 0.0, 0.0, h)


class TestForecastTrend:
    def test_quadratic_series_forecast_exact(self):
        t = np.arange(80.0)
        values = 100.0 + 0.5 * t + 0.01 * t**2
        dec = sliding_trend(PriceSeries("s", values), BANK)
        for origin in (30, 50, 74):
            for h in (0, 1, 5):
                want = 100.0 + 0.5 * (origin + h) + 0.01 * (origin + h) ** 2
                got = forecast_trend(dec, origin, h)
                assert abs(got - want) <= 1e-6 * abs(want)

    def test_zero_horizon_returns_trend_value(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(90.0, 110.0, 40)
        dec = sliding_trend(PriceSeries("s", values), BANK)
        assert forecast_trend(dec, 25, 0) == float(dec.trend[dec.position(25)])

    def test_warmup_origin_rejected(self):
        values = np.linspace(100.0, 110.0, 40)
        dec = sliding_trend(PriceSeries("s", values), BANK)
        with pytest.raises(ValueError, match="outside aligned range"):
            forecast_trend(dec, 10, 1)

    def test_spacing_scales_the_step(self):
        t = np.arange(80.0)
        values = 100.0 + 2.0 * t  # one unit of slope per sample
        dec1 = sliding_trend(PriceSeries("s", values), BANK)
        spec2 = EstimatorSpec(spacing=0.5)
        dec2 = sliding_trend(PriceSeries("s", values), build_kernel_bank(spec2))
        # h counts grid steps in both cases, so forecasts agree.
        assert forecast_trend(dec1, 60, 4) == pytest.approx(
            forecast_trend(dec2, 60, 4), rel=1e-9
        )


class TestForecastMoments:
    def test_linear_std_track_extrapolates(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        std = 1.0 + 0.1 * np.arange(30)
        track = constant_kurt_track(std)
        std_hat, skew_hat, kurt_hat = forecast_moments(track, bank, 29, 5)
        assert std_hat == pytest.approx(std[-1] + 0.5, rel=1e-6)
        assert skew_hat == pytest.approx(0.0, abs=1e-9)
        assert kurt_hat == pytest.approx(3.0, rel=1e-9)

    def test_array_positions_match_scalar_calls(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        std = 1.0 + np.abs(np.sin(np.arange(40.0)))
        track = constant_kurt_track(std)
        skew = track.skew.copy()
        skew[20:23] = np.nan  # undefined windows stay NaN in both forms
        track = replace(track, skew=skew)
        positions = np.array([6, 19, 21, 30, 39])
        batch = forecast_moments(track, bank, positions, 3)
        for k, t in enumerate(positions.tolist()):
            for got, want in zip(batch, forecast_moments(track, bank, t, 3)):
                assert type(want) is float
                assert np.array_equal(got[k], want, equal_nan=True)

    def test_zero_std_track_forecasts_zero(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        n = 10
        track = MomentTrack(
                std=np.zeros(n),
            skew=np.full(n, np.nan),
            kurt=np.full(n, np.nan),
            defined=np.zeros(n, dtype=bool),
            warmup=3,
        )
        std_hat, skew_hat, kurt_hat = forecast_moments(track, bank, 9, 5)
        assert std_hat == 0.0
        assert math.isnan(skew_hat) and math.isnan(kurt_hat)

    def test_std_clamped_at_zero(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        std = np.maximum(1.0 - 0.2 * np.arange(10), 0.05)
        track = constant_kurt_track(std)
        std_hat, _, _ = forecast_moments(track, bank, 9, 10)
        assert std_hat >= 0.0

    def test_kurt_clamped_at_one(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        std = np.ones(10)
        track = constant_kurt_track(std, kurt=1.0)
        _, _, kurt_hat = forecast_moments(track, bank, 9, 5)
        assert kurt_hat >= 1.0

    def test_insufficient_history_rejected(self):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=7))
        track = constant_kurt_track(np.ones(10))
        with pytest.raises(ValueError, match="insufficient history"):
            forecast_moments(track, bank, 5, 1)
        with pytest.raises(ValueError, match="track position 10 outside"):
            forecast_moments(track, bank, 10, 1)


class TestConfidenceBand:
    def test_default_level_band(self):
        lo, hi = confidence_band(100.0, 10.0)
        z = 1.959963984540054
        assert lo == pytest.approx(100.0 - 10.0 * z, rel=1e-12)
        assert hi == pytest.approx(100.0 + 10.0 * z, rel=1e-12)

    def test_band_degenerates_at_zero_std(self):
        assert confidence_band(5.0, 0.0) == (5.0, 5.0)

    def test_level_validation(self):
        for level in (0.0, 1.0):  # level 0 would give z = 0, a point band at any std
            with pytest.raises(ValueError, match=rf"level must be inside \(0, 1\), got {level}$"):
                confidence_band(1.0, 1.0, level=level)
        with pytest.raises(ValueError, match="std_hat must be >= 0"):
            confidence_band(1.0, -0.5)
        with pytest.raises(ValueError, match=r"std_hat must be >= 0, got -0\.5$"):
            confidence_band(np.ones(3), np.array([1.0, -0.5, 0.0]))
        with pytest.raises(ValueError, match="std_hat must be >= 0, got nan"):
            confidence_band(np.ones(2), np.array([1.0, np.nan]))


class TestNdtri:
    """_ndtri ports Cephes ndtri, so it must return scipy's doubles exactly."""

    @staticmethod
    def assert_bit_equal(points):
        points = np.asarray(points, dtype=float)
        got = np.array([_ndtri(float(p)) for p in points])
        np.testing.assert_array_equal(got, ndtri(points))

    def test_two_sided_levels(self):
        levels = np.concatenate([np.arange(1, 20_000) / 20_000, [0.95, 0.975, 0.995]])
        self.assert_bit_equal(0.5 * (1.0 + levels))

    def test_uniform_points(self):
        self.assert_bit_equal(np.random.default_rng(0).uniform(0.0, 1.0, 50_000))

    def test_tails(self):
        rng = np.random.default_rng(1)
        lower = 10.0 ** rng.uniform(-300.0, 0.0, 20_000)
        self.assert_bit_equal(lower)
        self.assert_bit_equal(1.0 - lower[lower > 1e-16])
        self.assert_bit_equal(1.0 - rng.uniform(0.0, 1e-16, 5_000))
        # every branch point: y = exp(-2), 1 - exp(-2), and x = 8 (about
        # y = exp(-32); sqrt(-2 log y) is exactly 8.0 at the last edge)
        edges = np.array([0.1353352832366127, 1.0 - 0.1353352832366127, math.exp(-32.0),
                          1.266416554909405e-14])
        self.assert_bit_equal(edges)
        self.assert_bit_equal(np.nextafter(edges, 0.0))
        self.assert_bit_equal(np.nextafter(edges, 1.0))

    def test_endpoints(self):
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        self.assert_bit_equal([0.0, 1.0, 5e-324, 0.5])

    def test_level_rounding_to_one(self):
        level = 1.0 - 2.0**-53  # the largest float below 1
        assert 0.5 * (1.0 + level) == 1.0
        assert _ndtri(0.5 * (1.0 + level)) == ndtri(0.5 * (1.0 + level)) == math.inf
        assert confidence_band(0.0, 1.0, level) == (-math.inf, math.inf)


class TestClassifyPosition:
    def test_three_outcomes(self):
        assert classify_position(103.0, 100.0, 1.0) == ABOVE
        assert classify_position(97.0, 100.0, 1.0) == UNDER
        assert classify_position(100.5, 100.0, 1.0) == NO_DECISION
        calls = classify_position(np.array([103.0, 97.0, 100.5]), 100.0, np.ones(3))
        assert calls.tolist() == [ABOVE, UNDER, NO_DECISION]

    def test_boundary_is_no_decision(self):
        assert classify_position(101.0, 100.0, 1.0) == NO_DECISION
        assert classify_position(99.0, 100.0, 1.0) == NO_DECISION

    def test_zero_deadband_decides_everything_off_center(self):
        assert classify_position(100.0001, 100.0, 0.0) == ABOVE
        assert classify_position(100.0, 100.0, 0.0) == NO_DECISION

    def test_zero_realized_fluctuation_is_under(self):
        fluct = np.array([0.0, -0.0, 5e-324, -5e-324])
        assert list(_names(_realized_codes(fluct))) == [UNDER, UNDER, ABOVE, UNDER]

    def test_negative_deadband_rejected(self):
        with pytest.raises(ValueError, match="deadband must be >= 0"):
            classify_position(1.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="deadband must be >= 0, got nan"):
            classify_position(np.ones(2), 1.0, np.array([0.1, np.nan]))


class TestForecastPoint:
    def setup_method(self):
        rng = np.random.default_rng(55)
        i = np.arange(260)
        values = 60.0 + 5.0 * np.sin(2.0 * np.pi * i / 125.0) + rng.normal(0.0, 0.5, 260)
        self.series = PriceSeries("s", values)
        self.slow = sliding_trend(self.series, BANK)
        self.fast = sliding_trend(
            self.series, build_kernel_bank(EstimatorSpec(degree=2, window=7))
        )
        self.track = moment_tracks(self.slow.fluctuation, M=100)

    def test_fields_match_components(self):
        t, h = 200, 1
        point = forecast_point(self.slow, self.fast, self.track.std, t, h)
        assert point.origin == t and point.horizon == h
        assert point.trend_hat == forecast_trend(self.slow, t, h)
        track_pos = t - self.slow.warmup - self.track.warmup
        std_hat, _, _ = forecast_moments(self.track, BANK, track_pos, h)
        assert point.deadband == 0.1 * std_hat
        assert (point.lo, point.hi) == confidence_band(point.trend_hat, std_hat)
        price_hat = forecast_trend(self.fast, t, h)
        assert point.position == classify_position(
            price_hat, point.trend_hat, point.deadband
        )

    def test_band_ordering(self):
        point = forecast_point(self.slow, self.fast, self.track.std, 210, 5)
        assert point.lo <= point.trend_hat <= point.hi
        assert point.level == 0.95

    def test_distinct_sources_rejected(self):
        other = sliding_trend(
            PriceSeries("other", self.series.values.copy()),
            build_kernel_bank(EstimatorSpec(degree=2, window=7)),
        )
        with pytest.raises(ValueError, match="share one source"):
            forecast_point(self.slow, other, self.track.std, 200, 1)

    def test_insufficient_history_rejected(self):
        # first admissible origin needs slow warm-up, M, and a track window
        t_min = 2 * self.slow.warmup + self.track.warmup
        forecast_point(self.slow, self.fast, self.track.std, t_min, 1)
        with pytest.raises(ValueError):
            forecast_point(self.slow, self.fast, self.track.std, t_min - 1, 1)

    def test_negative_deadband_mult_rejected(self):
        with pytest.raises(ValueError, match="deadband_mult must be >= 0"):
            forecast_point(self.slow, self.fast, self.track.std, 200, 1, deadband_mult=-0.1)
        with pytest.raises(ValueError, match="deadband_mult must be >= 0, got nan"):
            forecast_point(self.slow, self.fast, self.track.std, 200, 1, deadband_mult=float("nan"))
        with pytest.raises(ValueError, match="deadband_mult must be finite, got inf$"):
            forecast_point(self.slow, self.fast, self.track.std, 200, 1, deadband_mult=float("inf"))


def string_rule(price_hat, trend_hat, deadband):
    """The nested np.where rule classify_position was first written as."""
    diff = price_hat - trend_hat
    position = np.where(diff > deadband, ABOVE, np.where(-diff > deadband, UNDER, NO_DECISION))
    return position if position.ndim else str(position)


# few distinct values, so that ties diff == +-deadband come up often
EDGES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]
FORECASTS = st.sampled_from(EDGES) | st.floats(-1e300, 1e300)
DEADBANDS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.inf]) | st.floats(0.0, 1e300)


class TestClassifyPositionProperty:
    @settings(max_examples=200)
    @given(
        rows=st.lists(st.tuples(FORECASTS, FORECASTS, DEADBANDS), min_size=1, max_size=40),
        one_deadband=st.booleans(),
    )
    def test_agrees_with_the_string_rule(self, rows, one_deadband):
        price, trend, deadband = (np.array(column) for column in zip(*rows))
        if one_deadband:
            deadband = deadband[0]
        with np.errstate(invalid="ignore"):  # inf - inf
            got = classify_position(price, trend, deadband)
            want = string_rule(price, trend, deadband)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            for p, t, d in rows:
                call = classify_position(p, t, d)
                assert type(call) is str and call == string_rule(p, t, d)


class TestForecastOrigins:
    """forecast_point, forecast_trend and forecast_moments take an integer
    or a non-empty integer array, signed or unsigned."""

    def setup_method(self):
        rng = np.random.default_rng(56)
        self.series = PriceSeries("s", 60.0 + rng.normal(0.0, 0.5, 400))
        self.slow = sliding_trend(self.series, BANK)
        self.fast = sliding_trend(self.series, build_kernel_bank(EstimatorSpec(degree=2, window=7)))
        self.track = moment_tracks(self.slow.fluctuation, M=100)
        self.t_min = 2 * self.slow.warmup + self.track.warmup

    def call(self, name, t):
        """name's result at origins t, as a list of its fields."""
        if name == "forecast_point":
            return list(vars(forecast_point(self.slow, self.fast, self.track.std, t, 1)).values())
        if name == "forecast_trend":
            return [forecast_trend(self.slow, t, 1)]
        return list(forecast_moments(self.track, BANK, t, 1))

    @pytest.mark.parametrize("name", ["forecast_point", "forecast_trend", "forecast_moments"])
    @pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int32, np.int16])
    def test_unsigned_and_narrow_arrays_match_int64(self, name, dtype):
        # 140..239: every origin fits in a uint8, and 0 - 1 would wrap there
        origins = np.arange(self.t_min, self.t_min + 100)
        got, want = self.call(name, origins.astype(dtype)), self.call(name, origins)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_origin_is_the_callers_t(self):
        for t in (self.t_min, np.uint64(self.t_min), np.arange(self.t_min, self.t_min + 3, dtype=np.uint8)):
            assert forecast_point(self.slow, self.fast, self.track.std, t, 1).origin is t

    def test_zero_dimensional_array_is_one_origin(self):
        t = np.array(self.t_min)
        trend = forecast_trend(self.slow, t, 1)
        assert type(trend) is float and trend == forecast_trend(self.slow, self.t_min, 1)
        got = forecast_point(self.slow, self.fast, self.track.std, t, 1)
        want = forecast_point(self.slow, self.fast, self.track.std, self.t_min, 1)
        for name in ("trend_hat", "lo", "hi", "deadband"):
            assert type(getattr(got, name)) is float
            assert getattr(got, name) == getattr(want, name)
        assert got.position == want.position and got.origin is t

    @pytest.mark.parametrize("name", ["forecast_point", "forecast_trend", "forecast_moments"])
    def test_unsigned_past_int64_rejected(self, name):
        # 2**63 would wrap to a negative int64 and be reported as that
        t = np.array([self.t_min, 2**63], dtype=np.uint64)
        with pytest.raises(ValueError, match=r"^t must be below 2\*\*63, got 9223372036854775808$"):
            self.call(name, t)

    def test_one_sample_short_names_the_history(self):
        short = np.array([self.t_min - 1, self.t_min], dtype=np.uint64)
        with pytest.raises(ValueError, match="insufficient history"):
            forecast_point(self.slow, self.fast, self.track.std, short, 1)
        with pytest.raises(ValueError, match="insufficient history"):
            forecast_moments(self.track, BANK, np.array([19, 20], dtype=np.uint64), 1)

    @pytest.mark.parametrize("name", ["forecast_point", "forecast_trend", "forecast_moments"])
    @pytest.mark.parametrize("t, got", [
        (140.0, "140.0"),
        (np.float64(140.0), "np.float64(140.0)"),
        (True, "True"),
        (np.True_, "np.True_"),
        (np.array([140.0, 141.0]), "a float64 array"),
        (np.array([True, False]), "a bool array"),
        (np.array([], dtype=np.int64), "an empty int64 array"),
        (np.array([], dtype=np.uint64), "an empty uint64 array"),
    ], ids=["float", "numpy float", "bool", "numpy bool", "float array", "bool array",
            "empty", "empty unsigned"])
    def test_floats_bools_and_empty_arrays_rejected(self, name, t, got):
        message = f"t must be an integer or a non-empty integer array, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.call(name, t)


class TestForecastHorizons:
    """forecast_point takes one horizon for every origin, or an integer
    array of t's shape with one horizon per origin."""

    def setup_method(self):
        rng = np.random.default_rng(57)
        self.series = PriceSeries("s", 60.0 + np.cumsum(rng.normal(0.0, 0.5, 400)) / 10.0)
        self.slow = sliding_trend(self.series, BANK)
        self.fast = sliding_trend(self.series, build_kernel_bank(EstimatorSpec(degree=2, window=7)))
        self.std = moment_tracks(self.slow.fluctuation, M=100).std
        self.t_min = first_forecast_origin(21, 7, 100)

    def point(self, t, h, **kwargs):
        return forecast_point(self.slow, self.fast, self.std, t, h, **kwargs)

    @settings(max_examples=60)
    @given(
        horizons=st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
        first=st.integers(0, 259),
        count=st.integers(1, 40),
        level=st.sampled_from([0.5, 0.95, 0.999]),
        deadband_mult=st.sampled_from([0.0, 0.1, 3.0]),
    )
    def test_tiled_origins_equal_one_call_per_horizon(self, horizons, first, count, level,
                                                      deadband_mult):
        origins = np.arange(self.t_min + first, min(self.t_min + first + count, 400))
        flags = dict(level=level, deadband_mult=deadband_mult)
        got = self.point(np.tile(origins, len(horizons)), np.repeat(horizons, len(origins)), **flags)
        want = [self.point(origins, h, **flags) for h in horizons]
        for name in ("trend_hat", "lo", "hi", "deadband"):
            joined = np.concatenate([getattr(p, name) for p in want])
            assert getattr(got, name).tobytes() == joined.tobytes(), name
        assert got.position.tolist() == [c for p in want for c in p.position.tolist()]

    def test_unsigned_and_narrow_horizons_match_int64(self):
        origins = np.arange(self.t_min, self.t_min + 30)
        h = np.arange(30) % 7
        want = self.point(origins, h)
        for dtype in (np.uint8, np.uint64, np.int16):
            got = self.point(origins, h.astype(dtype))
            for name in ("trend_hat", "lo", "hi", "deadband"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_horizon_is_the_callers_h(self):
        h = np.array([1, 5], dtype=np.uint8)
        assert self.point(np.array([self.t_min, self.t_min]), h).horizon is h

    @pytest.mark.parametrize("t, h, got", [
        (np.arange(140, 143), np.array([1.0, 2.0, 3.0]), "a float64 array of shape (3,)"),
        (np.arange(140, 143), np.array([True, False, True]), "a bool array of shape (3,)"),
        (np.arange(140, 143), np.array([1, 2]), "a int64 array of shape (2,)"),
        (np.arange(140, 143), np.array([[1, 2, 3]]), "a int64 array of shape (1, 3)"),
        (140, np.array([1]), "a int64 array of shape (1,)"),
        (np.array(140), np.array(1), "a int64 array of shape ()"),
        (140, 1.0, "1.0"),
        (140, True, "True"),
        (np.arange(140, 143), [1, 2, 3], "[1, 2, 3]"),
    ], ids=["float array", "bool array", "short", "two-dimensional", "array h, scalar t",
            "zero-dimensional", "float", "bool", "list"])
    def test_non_integer_or_misshapen_horizons_rejected(self, t, h, got):
        shape = np.shape(t) if np.ndim(t) else ()
        message = f"h must be an integer or an integer array of t's shape {shape}, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.point(t, h)

    def test_negative_entry_named_by_value_and_index(self):
        t = np.arange(self.t_min, self.t_min + 4)
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -3\.0 at index 2$"):
            self.point(t, np.array([1, 0, -3, -1]))
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -1\.0$"):
            self.point(t, -1)
