"""Sliding decomposition and the windowed-mean oscillation score."""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendlab.decompose import (
    NOT_QUICKLY_FLUCTUATING,
    QUICKLY_FLUCTUATING,
    emit_decomposition,
    oscillation_score,
    sliding_trend,
)
from trendlab.kernels import EstimatorSpec, build_kernel_bank
from trendlab.series_io import PriceSeries

BANK = build_kernel_bank(EstimatorSpec())


def brute_force_score(fluct: np.ndarray, min_window: int) -> float:
    """Oracle: |window mean| over every window of length >= min_window."""
    n = len(fluct)
    prefix = np.concatenate(([0.0], np.cumsum(fluct)))
    best = 0.0
    for start in range(n - min_window + 1):
        ends = np.arange(start + min_window, n + 1)
        means = np.abs(prefix[ends] - prefix[start]) / (ends - start)
        best = max(best, float(means.max()))
    return best


@st.composite
def fluctuations(draw):
    n = draw(st.integers(1, 80))
    min_window = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        fluct = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), n)
    else:
        fluct = rng.integers(-3, 4, n).astype(float)
    return fluct, min_window


class TestSlidingTrend:
    @settings(max_examples=200)
    @given(level=st.floats(1e-6, 1e12),
           moves=st.lists(st.floats(0.0, 1.0), min_size=BANK.spec.window, max_size=200))
    def test_reconstruction_is_exact(self, level, moves):
        # prices in level * [1, 1 + 1 / (2 sum|w|)] keep the trend within
        # level / 2 of every source sample, so source - trend is smaller
        # than the source and rounds no coarser than it
        values = level * (1.0 + np.array(moves) / (2.0 * np.abs(BANK.weights[0]).sum()))
        dec = sliding_trend(PriceSeries("s", values), BANK)
        src = values[BANK.spec.window - 1 :]
        # fluctuation is the correctly rounded difference, bit for bit
        np.testing.assert_array_equal(dec.fluctuation, src - dec.trend)
        # so the sum misses the source by at most that one rounding
        gap = np.abs((dec.trend + dec.fluctuation) - src)
        assert np.all(gap <= np.spacing(src))

    def test_alignment_and_length(self):
        values = np.linspace(100.0, 120.0, 50)
        dec = sliding_trend(PriceSeries("s", values), BANK)
        assert dec.warmup == 20
        assert len(dec) == 30
        assert dec.position(20) == 0
        assert dec.position(49) == 29
        assert dec.position(np.array([20, 35, 49])).tolist() == [0, 15, 29]

    def test_position_rejects_warmup_indices(self):
        values = np.linspace(100.0, 120.0, 50)
        dec = sliding_trend(PriceSeries("s", values), BANK)
        with pytest.raises(ValueError, match="outside aligned range"):
            dec.position(19)
        with pytest.raises(ValueError, match="outside aligned range"):
            dec.position(50)
        with pytest.raises(ValueError, match="source index 19 outside aligned range 20..49"):
            dec.position(np.array([25, 19, 50]))

    def test_constant_series(self):
        dec = sliding_trend(PriceSeries("s", np.full(40, 3.0)), BANK)
        np.testing.assert_allclose(dec.trend, 3.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.d1, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.d2, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.fluctuation, 0.0, rtol=0, atol=1e-12)

    def test_quadratic_series_tracked_exactly(self):
        t = np.arange(60.0)
        values = 100.0 + 0.5 * t + 0.01 * t**2
        dec = sliding_trend(PriceSeries("s", values), BANK)
        idx = np.arange(20, 60)
        np.testing.assert_allclose(dec.trend, values[20:], rtol=1e-9)
        np.testing.assert_allclose(dec.d1, 0.5 + 0.02 * idx, rtol=0, atol=1e-7)
        np.testing.assert_allclose(dec.d2, 0.02, rtol=0, atol=1e-7)
        np.testing.assert_allclose(dec.fluctuation, 0.0, rtol=0, atol=1e-7)

    def test_matches_single_window_estimates(self):
        # one arithmetic: equal bits, also for short kernels, which numpy's
        # convolve sums in another order than a dot product
        rng = np.random.default_rng(8)
        values = rng.uniform(90.0, 110.0, 30)
        for bank in (BANK, build_kernel_bank(EstimatorSpec(window=5))):
            dec = sliding_trend(PriceSeries("s", values), bank)
            w = bank.spec.window
            for pos in (0, 4, 9):
                window = values[pos : pos + w]
                assert dec.trend[pos] == bank.estimate(window, 0)
                assert dec.d1[pos] == bank.estimate(window, 1)
                assert dec.d2[pos] == bank.estimate(window, 2)

    def test_low_degree_bank_omits_derivative_tracks(self):
        bank = build_kernel_bank(EstimatorSpec(degree=0, window=5))
        dec = sliding_trend(PriceSeries("s", np.full(10, 2.0)), bank)
        assert dec.d1 is None and dec.d2 is None

    def test_degree_one_bank_keeps_the_slope(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        dec = sliding_trend(PriceSeries("s", 2.0 + 0.5 * np.arange(10.0)), bank)
        assert dec.d2 is None
        np.testing.assert_allclose(dec.d1, 0.5, rtol=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="window needs 21"):
            sliding_trend(PriceSeries("s", np.full(20, 1.0)), BANK)

    def test_outputs_read_only(self):
        dec = sliding_trend(PriceSeries("s", np.full(30, 2.0)), BANK)
        with pytest.raises(ValueError):
            dec.trend[0] = 0.0
        with pytest.raises(ValueError):
            dec.fluctuation[0] = 0.0


class TestOscillationScore:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fluctuation_rejected(self, value):
        # NaN compares False, so it would give score 0.0 and a quick verdict
        fluct = np.sin(np.arange(200) / 7.0)
        fluct[50] = value
        with pytest.raises(ValueError, match=f"^fluctuation must be finite, got {value!r} at index 50$"):
            oscillation_score(fluct, min_window=10)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(15)
        fluct = rng.normal(0.0, 1.0, 100)
        report = oscillation_score(fluct, min_window=10)
        best = 0.0
        for start in range(0, 91):
            for end in range(start + 10, 101):
                best = max(best, abs(float(np.mean(fluct[start:end]))))
        assert report.score == pytest.approx(best, rel=1e-12)

    def test_zero_fluctuation_scores_zero(self):
        report = oscillation_score(np.zeros(50), min_window=10)
        assert report.score == 0.0
        assert report.verdict == QUICKLY_FLUCTUATING

    def test_alternating_signs_average_out(self):
        fluct = np.resize([1.0, -1.0], 100)
        report = oscillation_score(fluct, min_window=10, threshold=0.1)
        # worst window has odd length 11: |mean| = 1/11
        assert report.score == pytest.approx(1.0 / 11.0, rel=1e-12)
        assert report.verdict == QUICKLY_FLUCTUATING

    def test_constant_offset_fails_the_test(self):
        report = oscillation_score(np.full(50, 0.5), min_window=10, threshold=0.05)
        assert report.score == pytest.approx(0.5, rel=1e-12)
        assert report.verdict == NOT_QUICKLY_FLUCTUATING

    def test_score_at_the_threshold_is_quick(self):
        # every window mean of 0.5 is exact, so the score ties the threshold
        report = oscillation_score(np.full(50, 0.5), min_window=10, threshold=0.5)
        assert report.score == 0.5
        assert report.verdict == QUICKLY_FLUCTUATING
        report = oscillation_score(np.zeros(50), min_window=10, threshold=0.0)
        assert report.threshold == 0.0
        assert report.verdict == QUICKLY_FLUCTUATING

    def test_scale_uses_source_mean_magnitude(self):
        source = PriceSeries("s", np.full(50, 200.0))
        report = oscillation_score(np.full(50, 1.0), min_window=10, source=source)
        assert report.scale == 200.0
        assert report.score == pytest.approx(1.0 / 200.0, rel=1e-12)

    @settings(max_examples=300)
    @given(fluctuations())
    # the only maximal window has length 2L-1, the longest one evaluated
    @example((np.array([1.0, 0.0, 1.0]), 2))
    def test_matches_brute_force_oracle(self, case):
        fluct, min_window = case
        report = oscillation_score(fluct, min_window=min_window)
        assert report.score == pytest.approx(
            brute_force_score(fluct, min_window), rel=1e-12, abs=0.0
        )

    def test_long_series_bit_equal_to_oracle(self):
        fluct = np.random.default_rng(3000).normal(0.0, 1.0, 3000)
        report = oscillation_score(fluct, min_window=10)
        assert report.score == brute_force_score(fluct, 10)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            oscillation_score(np.zeros(0))
        with pytest.raises(ValueError, match="min_window must be in 1..5"):
            oscillation_score(np.zeros(5), min_window=6)
        for min_window in (0, -1):
            with pytest.raises(ValueError, match=f"min_window must be >= 1, got {min_window}$"):
                oscillation_score(np.zeros(5), min_window=min_window)
        for min_window in (2.0, 2.5, True):  # True would be scored as 1
            with pytest.raises(ValueError, match=f"min_window must be an integer, got {re.escape(repr(min_window))}$"):
                oscillation_score(np.zeros(5), min_window=min_window)
        for threshold in (float("nan"), -1.0):
            with pytest.raises(ValueError, match=f"threshold must be >= 0, got {threshold!r}"):
                oscillation_score(np.zeros(5), min_window=2, threshold=threshold)
        with pytest.raises(ValueError, match="threshold must be finite, got inf$"):
            oscillation_score(np.zeros(5), min_window=2, threshold=float("inf"))

    @pytest.mark.parametrize("threshold, message", [
        (float("inf"), "threshold must be finite, got inf$"),
        (float("nan"), "threshold must be >= 0, got nan$"),
    ])
    def test_threshold_checked_before_the_scan(self, threshold, message):
        # the scale and the prefix sums come after the check: a source the
        # scan would read is never touched
        class Untouched:
            @property
            def values(self):
                raise AssertionError("source read before the threshold was checked")

        with pytest.raises(ValueError, match=message):
            oscillation_score(np.zeros(20_000), min_window=5000, threshold=threshold,
                              source=Untouched())


class TestEmitDecomposition:
    def test_rows_reconstruct_source(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(90.0, 110.0, 30)
        dec = sliding_trend(PriceSeries("s", values), BANK)
        lines = emit_decomposition(dec).strip().splitlines()
        assert lines[0] == "index,date,price,trend,d1,d2,fluctuation"
        assert len(lines) == 1 + len(dec)
        for line in lines[1:]:
            idx, _, price, trend, d1, d2, fluct = line.split(",")
            i = int(idx)
            assert float(price) == values[i]
            assert float(trend) + float(fluct) == float(price)
            float(d1), float(d2)  # parse

    def test_dates_carried_through(self, tmp_path):
        from conftest import write_price_csv
        from trendlab.series_io import load_prices

        path = write_price_csv(tmp_path / "d.csv", np.linspace(100, 110, 25))
        dec = sliding_trend(load_prices(str(path)), BANK)
        first_row = emit_decomposition(dec).splitlines()[1].split(",")
        assert first_row[0] == "20"
        assert first_row[1] == "2020-01-21"
