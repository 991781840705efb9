"""Causality: no output at or before an index depends on later samples."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.decompose import sliding_trend
from trendlab.forecast import first_forecast_origin, forecast_point
from trendlab.kernels import EstimatorSpec, build_kernel_bank
from trendlab.moments import moment_tracks
from trendlab.series_io import PriceSeries


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(0, 3),
    slow_extra=st.integers(0, 20),
    fast_extra=st.integers(0, 20),
    M=st.integers(1, 15),
    n=st.integers(60, 160),
    cut=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_outputs_up_to_c_ignore_later_samples(degree, slow_extra, fast_extra, M, n, cut, seed):
    rng = np.random.default_rng(seed)
    c = int(cut * (n - 2))
    values = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n)))
    perturbed = values.copy()
    perturbed[c + 1 :] = rng.uniform(1.0, 500.0, n - c - 1)
    slow_bank = build_kernel_bank(EstimatorSpec(degree=degree, window=degree + 2 + slow_extra))
    fast_bank = build_kernel_bank(EstimatorSpec(degree=degree, window=degree + 2 + fast_extra))
    start = first_forecast_origin(slow_bank.spec.window, fast_bank.spec.window, M)

    outputs = []
    for prices in (values, perturbed):
        series = PriceSeries("s", prices)
        slow, fast = sliding_trend(series, slow_bank), sliding_trend(series, fast_bank)
        track = moment_tracks(slow.fluctuation, M)
        point = forecast_point(slow, fast, track.std, np.arange(start, n), 1) if start < n else None
        outputs.append((slow, track, point))
    (slow_a, track_a, point_a), (slow_b, track_b, point_b) = outputs

    # decomposition position p and track position p - M sit at source index p + warmup
    keep = max(c - slow_a.warmup + 1, 0)
    for name in ("trend", "d1", "d2", "fluctuation"):
        a, b = getattr(slow_a, name), getattr(slow_b, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert same_bits(a[:keep], b[:keep]), name
    keep = max(c - slow_a.warmup - M + 1, 0)
    for name in ("std", "skew", "kurt", "defined"):
        assert same_bits(getattr(track_a, name)[:keep], getattr(track_b, name)[:keep]), name
    if point_a is not None:
        keep = max(c - start + 1, 0)
        for name in ("trend_hat", "lo", "hi", "deadband", "position"):
            assert same_bits(getattr(point_a, name)[:keep], getattr(point_b, name)[:keep]), name
