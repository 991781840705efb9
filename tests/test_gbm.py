"""Geometric Brownian motion simulator and the residual-integral test."""
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab.gbm as gbm
from trendlab.gbm import (
    NORMAL_SOURCE,
    GbmParams,
    oscillation_probability,
    residual_integral,
    simulate_paths,
)


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

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(1, 40), paths=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           sigma=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           epsilon=st.sampled_from([0.001, 0.01, 0.05]), data=st.data())
    def test_chunking_does_not_change_the_stream(self, steps, paths, seed, sigma, epsilon, data):
        params = GbmParams(mu=0.05, sigma=sigma, steps=steps, paths=paths, seed=seed)
        # hypothesis rejects function-scoped fixtures such as monkeypatch
        with patch.object(gbm, "_CHUNK_VALUES", paths * steps):
            full = simulate_paths(params)
            stat = oscillation_probability(params, epsilon)
        chunk = data.draw(st.integers(1, paths * steps + steps), label="_CHUNK_VALUES")
        with patch.object(gbm, "_CHUNK_VALUES", chunk):
            np.testing.assert_array_equal(simulate_paths(params), full)
            assert oscillation_probability(params, epsilon) == stat
        integrals = np.array([residual_integral(row, params) for row in full])
        assert stat.p_hat == np.count_nonzero(np.abs(integrals) > epsilon) / paths

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

    def test_normal_source_is_documented(self):
        assert NORMAL_SOURCE == "pcg64-inverse-transform-ndtri"
