"""Geometric Brownian motion simulator and the residual-integral test."""
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import trendlab._spans as spans
import trendlab.gbm as gbm
from trendlab.gbm import (
    NORMAL_SOURCE,
    GbmParams,
    ResidualStat,
    oscillation_probability,
    residual_integral,
    simulate_paths,
)


def serial_ensemble(params):
    """The ensemble from the whole (paths, steps) integer matrix of one
    default_rng(seed), drawn in one piece: normals ndtri((k + 1/2) 2^-53),
    then exact log steps, cumulated from log(S / s0) = 0."""
    k = np.random.default_rng(params.seed).integers(0, 1 << 53, size=(params.paths, params.steps))
    drift, scale = params._log_step()
    log_prices = np.zeros((params.paths, params.steps + 1))
    np.cumsum(ndtri((k + 0.5) * 2.0**-53) * scale + drift, axis=1, out=log_prices[:, 1:])
    return params.s0 * np.exp(log_prices)


class TestGbmParams:
    def test_grid(self):
        params = GbmParams(mu=0.0, sigma=0.1, steps=4, t_end=2.0)
        np.testing.assert_allclose(params.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"mu must be finite, got {mu!r}"):
                GbmParams(mu=mu, sigma=0.1)
        for s0 in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="s0 must be positive and finite"):
                GbmParams(mu=0.0, sigma=0.1, s0=s0)
        for sigma in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
                GbmParams(mu=0.0, sigma=sigma)
        for t_end in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                GbmParams(mu=0.0, sigma=0.1, t_end=t_end)
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            GbmParams(mu=0.0, sigma=0.1, steps=0)
        with pytest.raises(ValueError, match="paths must be an integer >= 1"):
            GbmParams(mu=0.0, sigma=0.1, paths=0)
        for flag in (True, False):  # bool is an int subclass, but not a count
            with pytest.raises(ValueError, match=f"steps must be an integer >= 1, got {flag}$"):
                GbmParams(mu=0.0, sigma=0.1, steps=flag)
            with pytest.raises(ValueError, match=f"paths must be an integer >= 1, got {flag}$"):
                GbmParams(mu=0.0, sigma=0.1, paths=flag)
        # finite inputs whose step terms or mean trend overflow a double
        step = r"per-step log drift .* must be finite, got mu=0\.05, sigma=1e\+200, dt=0\.1$"
        with pytest.raises(ValueError, match=step):
            GbmParams(mu=0.05, sigma=1e200, steps=10)  # sigma**2 overflows
        with pytest.raises(ValueError, match=r"per-step log drift .* got mu=-1e\+308"):
            GbmParams(mu=-1e308, sigma=0.0, t_end=1e10, steps=1)  # mu * dt overflows
        trend = (r"mean trend s0 \* exp\(mu \* t_end\) must be finite, "
                 r"got mu={}, s0={}, t_end=1\.0$")
        with pytest.raises(ValueError, match=trend.format(r"1e\+300", r"1\.0")):
            GbmParams(mu=1e300, sigma=0.2, steps=10)
        with pytest.raises(ValueError, match=trend.format("710.0", r"1\.0")):
            GbmParams(mu=710.0, sigma=0.2)
        with pytest.raises(ValueError, match=trend.format(r"1\.0", r"1e\+308")):
            GbmParams(mu=1.0, sigma=0.2, s0=1e308)
        # a mean trend near the float maximum passes, and a vanishing one is finite
        GbmParams(mu=709.0, sigma=0.2, steps=10)
        GbmParams(mu=-1e300, sigma=0.2, steps=10)
        for seed in (-1, 1.5, "3", True, False):
            with pytest.raises(ValueError, match=f"seed must be None or an integer >= 0, got {seed!r}$"):
                GbmParams(mu=0.0, sigma=0.1, seed=seed)
        for seed in (None, 0, 2**128):
            GbmParams(mu=0.0, sigma=0.1, seed=seed)

    def test_trapezoid_grid_is_cached_and_read_only(self):
        params = GbmParams(mu=0.05, sigma=0.2, s0=3.0, steps=7, t_end=2.0)
        trend, dt = params._trapezoid
        assert params._trapezoid[0] is trend and params._trapezoid[1] is dt
        t = params.grid()
        np.testing.assert_array_equal(trend, 3.0 * np.exp(0.05 * t))
        np.testing.assert_array_equal(dt, np.diff(t))
        assert not trend.flags.writeable and not dt.flags.writeable
        # a parameter set that is equal but separate gets its own grid
        assert replace(params)._trapezoid[0] is not trend


def trapezoid_weights(params):
    """c_i with residual_integral(path) = sum_i c_i (path_i - s0 e^(mu t_i))."""
    dt = np.diff(params.grid())
    c = np.zeros(params.steps + 1)
    c[:-1] += dt / 2
    c[1:] += dt / 2
    return c


def residual_variance(params):
    """Var[I] = s0^2 sum_i sum_j c_i c_j e^(mu (t_i + t_j)) (e^(sigma^2 min(t_i, t_j)) - 1)
    for the trapezoid integral I of the residual, in O(steps): with
    a_i = c_i e^(mu t_i) and t increasing, the sum is
    sum_i a_i (e^(sigma^2 t_i) - 1) (a_i + 2 sum_{j > i} a_j)."""
    t = params.grid()
    a = trapezoid_weights(params) * np.exp(params.mu * t)
    later = np.append(np.cumsum(a[:0:-1])[::-1], 0.0)  # sum_{j > i} a_j
    return params.s0**2 * float(np.sum(a * np.expm1(params.sigma**2 * t) * (a + 2.0 * later)))


class TestSimulatePaths:
    def test_shape_and_start(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=16, paths=7, seed=3)
        paths = simulate_paths(params)
        assert paths.shape == (7, 17)
        np.testing.assert_array_equal(paths[:, 0], np.full(7, 1.0))

    def test_zero_volatility_is_exponential_growth(self):
        params = GbmParams(mu=0.07, sigma=0.0, s0=2.0, steps=50, paths=3, seed=0)
        paths = simulate_paths(params)
        want = 2.0 * np.exp(0.07 * params.grid())
        for row in paths:
            np.testing.assert_allclose(row, want, rtol=1e-12)

    def test_seed_reproducibility(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=64, paths=11, seed=42)
        np.testing.assert_array_equal(simulate_paths(params), simulate_paths(params))

    def test_terminal_mean_matches_theory(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=400, paths=4000, seed=9)
        terminal = simulate_paths(params)[:, -1]
        want = math.exp(0.05)
        se = want * math.sqrt((math.exp(0.04) - 1.0) / 4000)
        assert abs(float(terminal.mean()) - want) <= 4.0 * se

    def test_terminal_log_variance_matches_theory(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=400, paths=4000, seed=10)
        logs = np.log(simulate_paths(params)[:, -1])
        assert float(np.var(logs)) == pytest.approx(0.04, rel=0.15)


class TestThreadSplit:
    @settings(max_examples=100)
    @given(paths=st.integers(1, 30), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           cpus=st.integers(1, 8), chunk=st.integers(1, 200), stage=st.integers(1, 200),
           sigma=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           epsilon=st.sampled_from([0.001, 0.01, 0.05]))
    def test_any_split_equals_the_serial_stream(self, paths, steps, seed, cpus, chunk, stage, sigma,
                                                epsilon):
        params = GbmParams(mu=0.05, sigma=sigma, steps=steps, paths=paths, seed=seed)
        want = serial_ensemble(params)
        t = params.grid()
        integrals = np.trapezoid(want - params.s0 * np.exp(params.mu * t), t)
        np.testing.assert_array_equal([residual_integral(row, params) for row in want], integrals)
        p_hat = np.count_nonzero(np.abs(integrals) > epsilon) / paths
        want_stat = ResidualStat(epsilon=epsilon, p_hat=p_hat, paths=paths,
                                 stderr=math.sqrt(p_hat * (1.0 - p_hat) / paths))
        # one-row spans, so small ensembles split too and paths can fall
        # below the CPU count; stage groups of any size split the blocks,
        # with a tail; hypothesis rejects the monkeypatch fixture
        with patch.object(spans, "_cpu_count", lambda: cpus), \
                patch.object(gbm, "_SPAN_VALUES", 1), patch.object(gbm, "_CHUNK_VALUES", chunk), \
                patch.object(gbm, "_STAGE_VALUES", stage):
            np.testing.assert_array_equal(simulate_paths(params), want)
            assert oscillation_probability(params, epsilon) == want_stat

    @pytest.mark.parametrize("run", [simulate_paths, lambda p: oscillation_probability(p, 0.05)],
                             ids=["simulate_paths", "oscillation_probability"])
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_span_reaches_the_caller(self, monkeypatch, run, failing):
        real_draw = gbm._draw_rows

        def draw(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} span failed")
            real_draw(*args)

        monkeypatch.setattr(gbm, "_draw_rows", draw)
        monkeypatch.setattr(spans, "_cpu_count", lambda: 4)
        monkeypatch.setattr(gbm, "_SPAN_VALUES", 1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} span failed"):
            run(GbmParams(mu=0.05, sigma=0.2, steps=10, paths=40, seed=0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("run", [simulate_paths, lambda p: oscillation_probability(p, 0.05)],
                             ids=["simulate_paths", "oscillation_probability"])
    def test_overflow_on_a_worker_raises_and_does_not_warn(self, monkeypatch, run):
        # np.errstate is context-local and a new thread starts from the
        # default over="warn", so each span must set it on its own thread
        monkeypatch.setattr(spans, "_cpu_count", lambda: 2)
        monkeypatch.setattr(gbm, "_SPAN_VALUES", 1)
        params = GbmParams(mu=0.0, sigma=0.5, s0=1e308, steps=10, paths=2, seed=4)
        run(replace(params, paths=1))  # row 0, the caller's span, stays finite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"prices overflow a double, got s0=1e\+308, "):
                run(params)
        assert [w.message for w in caught] == []


MiB = 1 << 20


def traced_peak(run):
    """Peak bytes traced by tracemalloc while run() runs, and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestScratchBound:
    """Scratch is capped whatever the ensemble size: simulate_paths keeps one
    stage of _STAGE_VALUES normals per span beside its result, and
    oscillation_probability blocks of _CHUNK_VALUES across all threads; the
    bounds follow the constants."""

    def setup_method(self):
        # scipy.special is imported on the first draw; keep it out of the peaks
        oscillation_probability(GbmParams(mu=0.05, sigma=0.2, steps=2, paths=2, seed=0), 0.05)

    def test_oscillation_probability(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=1000, paths=10_000, seed=0)
        peak, _ = traced_peak(lambda: oscillation_probability(params, 0.05))
        assert peak <= 2 * 8 * gbm._CHUNK_VALUES + MiB

    def test_simulate_paths(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=1000, paths=2_000, seed=0)
        peak, paths = traced_peak(lambda: simulate_paths(params))
        n_spans = len(spans.split_rows(params.paths, -(-gbm._SPAN_VALUES // params.steps)))
        assert peak <= paths.nbytes + n_spans * 8 * gbm._STAGE_VALUES + MiB


class TestResidualIntegral:
    def test_zero_volatility_residual_vanishes(self):
        params = GbmParams(mu=0.05, sigma=0.0, steps=100, paths=1, seed=0)
        path = simulate_paths(params)[0]
        assert abs(residual_integral(path, params)) <= 1e-12

    def test_known_linear_residual(self):
        # injecting S(t) = reference + t makes the integral exactly 1/2
        params = GbmParams(mu=0.05, sigma=0.2, steps=100, paths=1, seed=0)
        t = params.grid()
        path = params.s0 * np.exp(params.mu * t) + t
        assert residual_integral(path, params) == pytest.approx(0.5, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=100, paths=1, seed=0)
        with pytest.raises(ValueError, match="grid mismatch"):
            residual_integral(np.ones(55), params)

    @pytest.mark.parametrize("mu, sigma, s0, t_end", [
        (0.05, 0.2, 1.0, 1.0), (0.3, 0.6, 2.5, 0.5), (-0.1, 0.05, 1.0, 3.0), (0.0, 1.0, 0.1, 1.0),
    ])
    def test_closed_form_variance_equals_the_double_sum(self, mu, sigma, s0, t_end):
        for steps in range(1, 51):
            params = GbmParams(mu=mu, sigma=sigma, s0=s0, t_end=t_end, steps=steps)
            t, c = params.grid(), trapezoid_weights(params)
            double_sum = s0**2 * float(np.sum(
                np.outer(c, c) * np.exp(mu * np.add.outer(t, t))
                * np.expm1(sigma**2 * np.minimum.outer(t, t))
            ))
            assert residual_variance(params) == pytest.approx(double_sum, rel=1e-12, abs=0.0)
            assert residual_variance(replace(params, sigma=0.0)) == 0.0

    @pytest.mark.parametrize("mu, sigma, steps, seed", [
        (0.05, 0.2, 200, 701), (0.3, 0.6, 200, 702), (-0.1, 0.05, 100, 703),
    ])
    def test_ensemble_mean_and_variance_match_the_closed_form(self, mu, sigma, steps, seed):
        # E[I] = 0 because E[S_t] = s0 e^(mu t); each moment within 4
        # standard errors, the variance's taken from the sample fourth moment
        params = GbmParams(mu=mu, sigma=sigma, steps=steps, paths=20_000, seed=seed)
        integrals = np.array([residual_integral(row, params) for row in simulate_paths(params)])
        n = len(integrals)
        centered = integrals - integrals.mean()
        variance = float(np.sum(centered**2)) / (n - 1)
        assert abs(float(integrals.mean())) <= 4.0 * math.sqrt(variance / n)
        stderr = math.sqrt((float(np.mean(centered**4)) - variance**2) / n)
        assert abs(variance - residual_variance(params)) <= 4.0 * stderr


class TestOverflow:
    def test_overflow_raises_naming_the_parameters(self):
        message = r"prices overflow a double, got s0={}, mu=0\.0, sigma=0\.5$"
        params = GbmParams(mu=0.0, sigma=0.5, s0=1e308, steps=10, paths=10, seed=0)
        with pytest.raises(ValueError, match=message.format(r"1e\+308")):
            simulate_paths(params)
        with pytest.raises(ValueError, match=message.format(r"1e\+308")):
            oscillation_probability(params, 0.05)
        # adjacent samples near the double maximum overflow the trapezoid sum
        params = GbmParams(mu=0.0, sigma=0.5, steps=10)
        with pytest.raises(ValueError, match=message.format(r"1\.0")):
            residual_integral(np.full(11, 1.7e308), params)


class TestOscillationProbability:
    def test_zero_volatility_never_exceeds(self):
        params = GbmParams(mu=0.05, sigma=0.0, steps=200, paths=500, seed=1)
        stat = oscillation_probability(params, epsilon=0.05)
        assert stat.p_hat == 0.0
        assert stat.stderr == 0.0
        assert stat.paths == 500
        assert stat.epsilon == 0.05

    def test_matches_direct_ensemble_computation(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=250, paths=800, seed=21)
        stat = oscillation_probability(params, epsilon=0.05)
        paths = simulate_paths(params)
        integrals = np.array([residual_integral(p, params) for p in paths])
        want = float(np.count_nonzero(np.abs(integrals) > 0.05)) / 800
        assert stat.p_hat == want

    def test_stderr_is_binomial(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=250, paths=800, seed=21)
        stat = oscillation_probability(params, epsilon=0.05)
        want = math.sqrt(stat.p_hat * (1.0 - stat.p_hat) / 800)
        assert stat.stderr == pytest.approx(want, rel=1e-12)

    def test_epsilon_monotonicity(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=250, paths=800, seed=22)
        loose = oscillation_probability(params, epsilon=0.5)
        tight = oscillation_probability(params, epsilon=0.01)
        assert loose.p_hat <= tight.p_hat

    def test_epsilon_validation(self):
        params = GbmParams(mu=0.05, sigma=0.2, steps=10, paths=10, seed=0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            oscillation_probability(params, epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must be finite, got inf$"):
            oscillation_probability(params, epsilon=float("inf"))

    def test_normal_source_is_documented(self):
        assert NORMAL_SOURCE == "pcg64-inverse-transform-ndtri"
