"""Rolling central moments against brute-force recomputation."""
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab._spans as spans
import trendlab.moments as moments
from conftest import write_price_csv
from trendlab.cli import main
from trendlab.moments import emit_moments, moment_tracks, rolling_central_moment


def brute_force_moment(fluct: np.ndarray, k: int, M: int) -> np.ndarray:
    out = np.empty(len(fluct) - M)
    for pos in range(len(out)):
        window = fluct[pos : pos + M + 1]
        mean = window.mean()
        out[pos] = ((window - mean) ** k).sum() / (M + 1)
    return out


def brute_force_tracks(fluct: np.ndarray, M: int) -> dict[str, np.ndarray]:
    """std, skew, kurt and defined per window from product power sums."""
    ma = np.empty((3, len(fluct) - M))
    for pos in range(ma.shape[1]):
        window = fluct[pos : pos + M + 1]
        c = window - window.mean()
        ma[:, pos] = (c * c).sum(), (c * (c * c)).sum(), ((c * c) * (c * c)).sum()
    ma2, ma3, ma4 = ma / (M + 1)
    defined = ma2 > 0.0
    std = np.sqrt(ma2)
    skew = np.full_like(ma2, np.nan)
    kurt = np.full_like(ma2, np.nan)
    skew[defined] = ma3[defined] / (ma2[defined] * std[defined])
    kurt[defined] = ma4[defined] / (ma2[defined] * ma2[defined])
    return {"std": std, "skew": skew, "kurt": kurt, "defined": defined}


class TestRollingCentralMoment:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_brute_force_exactly(self, k):
        rng = np.random.default_rng(321)
        fluct = rng.normal(0.0, 1.0, 1000)
        got = rolling_central_moment(fluct, k, 100)
        np.testing.assert_array_equal(got, brute_force_moment(fluct, k, 100))

    def test_short_window_sizes(self):
        rng = np.random.default_rng(322)
        fluct = rng.normal(0.0, 1.0, 40)
        for m in (1, 2, 5):
            got = rolling_central_moment(fluct, 2, m)
            np.testing.assert_array_equal(got, brute_force_moment(fluct, 2, m))

    def test_constant_input_has_zero_moments(self):
        fluct = np.full(30, 4.5)
        for k in (2, 3, 4):
            np.testing.assert_array_equal(
                rolling_central_moment(fluct, k, 10), np.zeros(20)
            )

    def test_validation_errors(self):
        fluct = np.zeros(20)
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            rolling_central_moment(fluct, 1, 5)
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            rolling_central_moment(fluct, 2, 0)
        for flag in (True, False):  # bool is an int subclass, but not a count
            with pytest.raises(ValueError, match=f"k must be an integer >= 2, got {flag}$"):
                rolling_central_moment(fluct, flag, 5)
            with pytest.raises(ValueError, match=f"M must be an integer >= 1, got {flag}$"):
                rolling_central_moment(fluct, 2, flag)
        with pytest.raises(ValueError, match="need at least M\\+1 = 21 samples"):
            rolling_central_moment(fluct, 2, 20)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("moment", [lambda f: rolling_central_moment(f, 2, 10),
                                        lambda f: moment_tracks(f, 10)],
                             ids=["rolling_central_moment", "moment_tracks"])
    def test_non_finite_fluctuation_rejected(self, moment, value):
        fluct = np.sin(np.arange(200) / 7.0)
        fluct[50] = value
        with pytest.raises(ValueError, match=f"^fluctuation must be finite, got {value!r} at index 50$"):
            moment(fluct)


class TestChunkSize:
    @settings(max_examples=60, deadline=None)
    @given(
        n_minus_m=st.integers(1, 60),
        m=st.integers(1, 12),
        chunk_rows=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_chunk_size_equals_brute_force(self, n_minus_m, m, chunk_rows, seed):
        # chunks from one row to more than n - M, with and without a tail
        rng = np.random.default_rng(seed)
        fluct = rng.normal(0.0, 1.0, n_minus_m + m)
        fluct[: len(fluct) // 3] = 0.0  # negative, positive and zero lanes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "_CHUNK_ROWS", chunk_rows)
            for k in (2, 3, 4):
                np.testing.assert_array_equal(
                    rolling_central_moment(fluct, k, m), brute_force_moment(fluct, k, m)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        n_minus_m=st.integers(1, 60),
        m=st.integers(1, 12),
        chunk_rows=st.integers(1, 20),
        zeros=st.tuples(st.integers(0, 72), st.integers(0, 72)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tracks_equal_the_product_oracle(self, n_minus_m, m, chunk_rows, zeros, seed):
        rng = np.random.default_rng(seed)
        fluct = rng.normal(0.0, 1.0, n_minus_m + m)
        fluct[min(zeros) : max(zeros)] = 0.0  # undefined windows, anywhere
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "_CHUNK_ROWS", chunk_rows)
            track = moment_tracks(fluct, m)
        for name, want in brute_force_tracks(fluct, m).items():
            np.testing.assert_array_equal(getattr(track, name), want, err_msg=name)

    def test_no_thread_is_started(self, monkeypatch, tmp_path):
        # neither the moments nor any series subcommand, whatever the CPU count
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(spans, "_cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        fluct = np.random.default_rng(326).normal(size=20_000)
        moment_tracks(fluct, M=100)
        rolling_central_moment(fluct, 2, 100)
        i = np.arange(3000)
        src = write_price_csv(tmp_path / "prices.csv", 100 + 5 * np.sin(i / 40) + i * 7919 % 101 / 50)
        for cmd in ("decompose", "moments", "forecast", "backtest"):
            assert main([cmd, "--input", str(src), "--out-dir", str(tmp_path)]) == 0


class TestMomentTracks:
    def test_derived_tracks_consistent_with_moments(self):
        rng = np.random.default_rng(323)
        fluct = rng.normal(0.0, 2.0, 400)
        track = moment_tracks(fluct, M=50)
        ma2 = rolling_central_moment(fluct, 2, 50)
        ma3 = rolling_central_moment(fluct, 3, 50)
        ma4 = rolling_central_moment(fluct, 4, 50)
        np.testing.assert_array_equal(track.std, np.sqrt(ma2))
        np.testing.assert_allclose(track.skew, ma3 / ma2**1.5, rtol=1e-12)
        np.testing.assert_allclose(track.kurt, ma4 / ma2**2, rtol=1e-12)
        assert track.warmup == 50
        assert len(track) == 350
        assert track.defined.all()

    def test_chunk_boundaries_do_not_change_tracks(self, monkeypatch):
        # 400 windows in 7-row chunks leave a 1-row tail; the flat stretch
        # puts undefined windows across chunk boundaries as well.
        rng = np.random.default_rng(325)
        fluct = rng.normal(0.0, 1.0, 500)
        fluct[200:330] = 0.0
        full = moment_tracks(fluct)
        monkeypatch.setattr(moments, "_CHUNK_ROWS", 7)
        chunked = moment_tracks(fluct)
        assert not full.defined.all()
        for field in fields(full):
            np.testing.assert_array_equal(
                getattr(chunked, field.name), getattr(full, field.name), err_msg=field.name
            )

    def test_scratch_is_bounded_by_the_chunk_rows(self):
        # the centered block and its power, _CHUNK_ROWS rows of M+1 each,
        # besides the tracks themselves
        fluct = np.random.default_rng(327).normal(size=20_000)
        tracemalloc.start()
        try:
            track = moment_tracks(fluct, M=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(arr.nbytes for arr in (track.std, track.skew, track.kurt, track.defined))
        assert peak <= outputs + 2 * 8 * moments._CHUNK_ROWS * 101 + (1 << 20)

    def test_alternating_example(self):
        # window of 4 samples alternating +-1: mean 0, ma2 = 1, ma3 = 0.
        fluct = np.resize([1.0, -1.0], 12)
        track = moment_tracks(fluct, M=3)
        np.testing.assert_allclose(rolling_central_moment(fluct, 2, 3), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rolling_central_moment(fluct, 3, 3), 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(track.std, 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(track.skew, 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(track.kurt, 1.0, rtol=0, atol=1e-15)

    def test_zero_variance_windows_flagged_undefined(self):
        fluct = np.concatenate([np.zeros(10), np.array([1.0, -1.0, 1.0, -1.0])])
        track = moment_tracks(fluct, M=3)
        assert not track.defined[0]
        assert np.isnan(track.skew[0]) and np.isnan(track.kurt[0])
        assert track.std[0] == 0.0
        assert track.defined[-1]
        assert np.isfinite(track.skew[-1])

    def test_pearson_inequality_holds_everywhere(self):
        rng = np.random.default_rng(324)
        fluct = rng.standard_t(df=5, size=2000)
        track = moment_tracks(fluct, M=100)
        gap = track.kurt - (1.0 + track.skew**2)
        assert np.all(gap[track.defined] >= -1e-9)

    def test_gaussian_kurtosis_near_three(self):
        rng = np.random.default_rng(42)
        fluct = rng.normal(0.0, 1.0, 100_000)
        track = moment_tracks(fluct, M=100)
        assert 2.5 <= float(np.mean(track.kurt)) <= 3.5
        assert abs(float(np.mean(track.skew))) <= 0.2

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            moment_tracks(np.zeros(30), M=0)
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"M must be an integer >= 1, got {flag}$"):
                moment_tracks(np.zeros(30), M=flag)
        with pytest.raises(ValueError, match="need at least M\\+1 = 101 samples"):
            moment_tracks(np.zeros(100), M=100)


class TestEmitMoments:
    def test_header_and_blank_undefined_cells(self):
        fluct = np.concatenate([np.zeros(10), np.array([1.0, -1.0, 1.0, -1.0])])
        track = moment_tracks(fluct, M=3)
        lines = emit_moments(track).strip().splitlines()
        assert lines[0] == "index,date,std,skew,kurt"
        assert len(lines) == 1 + len(track)
        first = lines[1].split(",")
        assert first[2] == "0.0" and first[3] == "" and first[4] == ""
        last = lines[-1].split(",")
        assert float(last[2]) == track.std[-1]
        assert float(last[3]) == track.skew[-1]

    def test_offset_and_dates_applied(self):
        fluct = np.resize([1.0, -1.0], 10)
        track = moment_tracks(fluct, M=3)
        dates = tuple(f"d{i}" for i in range(40))
        lines = emit_moments(track, dates=dates, offset=20).strip().splitlines()
        first = lines[1].split(",")
        assert first[0] == "23"  # track warm-up of M shifts the first row
        assert first[1] == "d23"
