"""Kernel bank construction: exactness, golden weights, noise gains."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.kernels import (
    EstimatorSpec,
    KernelBank,
    _density_polynomials,
    _verify_exactness,
    build_kernel_bank,
    emit_weights,
    kernel_noise_gain,
)


def offsets_for(spec: EstimatorSpec) -> np.ndarray:
    return (np.arange(spec.window) - (spec.window - 1)) * spec.spacing


class TestEstimatorSpec:
    def test_defaults(self):
        spec = EstimatorSpec()
        assert (spec.degree, spec.window, spec.spacing, spec.smoothing) == (2, 21, 1.0, 1)

    def test_degree_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            EstimatorSpec(degree=-1)
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            EstimatorSpec(degree=1.5)
        for flag in (True, False):  # bool is an int subclass, but not a count
            with pytest.raises(ValueError, match=f"degree must be a non-negative integer, got {flag}$"):
                EstimatorSpec(degree=flag, window=21)

    def test_window_must_exceed_degree_plus_one(self):
        with pytest.raises(ValueError, match="underdetermined"):
            EstimatorSpec(degree=2, window=3)
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"underdetermined: window must exceed degree \\+ 1, got window={flag} "):
                EstimatorSpec(degree=0, window=flag)
        EstimatorSpec(degree=2, window=4)  # smallest admissible

    def test_spacing_must_be_positive(self):
        for spacing in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="spacing must be positive and finite"):
                EstimatorSpec(spacing=spacing)

    def test_smoothing_must_be_positive_integer(self):
        with pytest.raises(ValueError, match="smoothing must be an integer >= 1"):
            EstimatorSpec(smoothing=0)
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"smoothing must be an integer >= 1, got {flag}$"):
                EstimatorSpec(smoothing=flag)


class TestDensityPolynomials:
    # The three properties below determine q_v uniquely: (b) and (c) put
    # q_v in (1-u)^(kappa-1) times the polynomials of degree <= N, where
    # the N+1 conditions (a) form a Gram system of a positive weight.
    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(0, 8), smoothing=st.integers(1, 6))
    def test_densities_pinned_by_reproducing_property(self, degree, smoothing):
        qs = _density_polynomials(degree, smoothing)
        assert len(qs) == degree + 1
        for v, q in enumerate(qs):
            # (a) integral_0^1 q_v u^d du = v! delta_vd, exactly.
            for d in range(degree + 1):
                got = sum(c * Fraction(1, k + d + 1) for k, c in enumerate(q))
                assert got == (math.factorial(v) if d == v else 0), (v, d)
            # (b) degree <= N + kappa - 1, stored as N + kappa coefficients.
            assert len(q) == degree + smoothing
            # (c) q_v and its first kappa-2 derivatives vanish at u = 1.
            for r in range(smoothing - 1):
                assert sum(c * math.perm(k, r) for k, c in enumerate(q)) == 0, r

    @pytest.mark.parametrize(
        "smoothing, want",
        [
            (1, [[9, -36, 30], [-36, 192, -180], [60, -360, 360]]),
            (
                3,
                [
                    [15, -120, 300, -300, 105],
                    [-90, 960, -2700, 2880, -1050],
                    [210, -2520, 7560, -8400, 3150],
                ],
            ),
        ],
    )
    def test_quadratic_densities_pinned(self, smoothing, want):
        assert _density_polynomials(2, smoothing) == [[Fraction(c) for c in q] for q in want]


class TestGoldenWeights:
    def test_linear_window3_value_weights(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=3))
        np.testing.assert_allclose(
            bank.weights[0], [-1.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], rtol=0, atol=1e-12
        )

    def test_linear_window3_slope_weights(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=3))
        np.testing.assert_allclose(
            bank.weights[1], [-0.5, 0.0, 0.5], rtol=0, atol=1e-12
        )

    def test_slope_weights_scale_with_spacing(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=3, spacing=2.0))
        np.testing.assert_allclose(
            bank.weights[1], [-0.25, 0.0, 0.25], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            bank.weights[0], [-1.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], rtol=0, atol=1e-12
        )

    def test_constant_window2_averages(self):
        bank = build_kernel_bank(EstimatorSpec(degree=0, window=2))
        np.testing.assert_allclose(bank.weights[0], [0.5, 0.5], rtol=0, atol=1e-12)


class TestExactness:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("smoothing", [1, 2, 3])
    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    def test_monomials_reproduced_at_right_edge(self, degree, smoothing, spacing):
        for window in (degree + 2, 2 * degree + 5, 21):
            spec = EstimatorSpec(
                degree=degree, window=window, spacing=spacing, smoothing=smoothing
            )
            bank = build_kernel_bank(spec)
            tau = offsets_for(spec)
            for d in range(degree + 1):
                values = tau**d
                for order in range(min(degree, 2) + 1):
                    want = float(math.factorial(order)) if d == order else 0.0
                    got = bank.estimate(values, order)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (
                        f"N={degree} W={window} kappa={smoothing} dt={spacing} "
                        f"d={d} order={order}: {got} != {want}"
                    )

    @settings(max_examples=200, deadline=None)
    @given(degree=st.integers(0, 4), extra=st.integers(0, 38), smoothing=st.integers(1, 4),
           spacing=st.floats(0.25, 4.0), data=st.data())
    def test_slide_reproduces_polynomials_at_every_order(self, degree, extra, smoothing, spacing, data):
        spec = EstimatorSpec(degree=degree, window=degree + 2 + extra, spacing=spacing,
                             smoothing=smoothing)
        bank = build_kernel_bank(spec)
        d = data.draw(st.integers(0, degree), label="d")
        poly = np.polynomial.Polynomial(
            data.draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1), label="coef"))
        n = spec.window + data.draw(st.integers(0, 10), label="extra samples")
        # the polynomial is in u = t / (W dt), so the samples stay O(1)
        scale = spec.window * spacing
        t = (np.arange(n) - (n - 1)) * spacing
        for order in range(degree + 1):
            want = poly.deriv(order)(t[spec.window - 1 :] / scale) / scale**order
            got = bank.slide(poly(t / scale), order)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), (
                f"N={degree} W={spec.window} kappa={smoothing} dt={spacing} d={d} order={order}"
            )

    def test_nan_weights_fail_the_exactness_check(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=3))
        broken = KernelBank(spec=bank.spec, weights=(bank.weights[0], np.full(3, np.nan)))
        with pytest.raises(ValueError, match="exactness violated at order 1, degree 0: got nan"):
            _verify_exactness(broken)

    def test_estimate_is_linear(self):
        bank = build_kernel_bank(EstimatorSpec())
        rng = np.random.default_rng(5)
        x = rng.normal(size=21)
        y = rng.normal(size=21)
        for order in range(3):
            lhs = bank.estimate(2.5 * x - 0.75 * y, order)
            rhs = 2.5 * bank.estimate(x, order) - 0.75 * bank.estimate(y, order)
            assert abs(lhs - rhs) <= 1e-9

    def test_constant_shift_moves_value_only(self):
        bank = build_kernel_bank(EstimatorSpec())
        rng = np.random.default_rng(6)
        x = rng.normal(size=21)
        for order, delta in ((0, 7.0), (1, 0.0), (2, 0.0)):
            got = bank.estimate(x + 7.0, order) - bank.estimate(x, order)
            assert abs(got - delta) <= 1e-9

    def test_quadratic_track_at_right_edge(self):
        # x(t) = t^2 sampled at t = 0..4; right edge carries (16, 8, 2).
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=5))
        t = np.arange(5.0)
        values = t**2
        assert abs(bank.estimate(values, 0) - 16.0) <= 1e-9
        assert abs(bank.estimate(values, 1) - 8.0) <= 1e-9
        assert abs(bank.estimate(values, 2) - 2.0) <= 1e-9


class TestNoiseGain:
    def test_linear_window3_gain_closed_form(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=3))
        want = math.sqrt(5.0 / 6.0)
        assert abs(kernel_noise_gain(bank, 0) - want) <= 1e-12

    def test_default_spec_gain_pinned(self):
        bank = build_kernel_bank(EstimatorSpec())
        assert kernel_noise_gain(bank, 0) == pytest.approx(
            0.5969052504669471, rel=1e-9
        )

    def test_extra_smoothing_gain_pinned(self):
        bank = build_kernel_bank(EstimatorSpec(smoothing=2))
        assert kernel_noise_gain(bank, 0) == pytest.approx(
            0.6662607995635109, rel=1e-9
        )

    def test_gain_matches_weight_norm(self):
        bank = build_kernel_bank(EstimatorSpec())
        for order in range(3):
            want = float(np.linalg.norm(bank.weights[order]))
            assert kernel_noise_gain(bank, order) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_output_std(self):
        bank = build_kernel_bank(EstimatorSpec())
        gain = kernel_noise_gain(bank, 0)
        rng = np.random.default_rng(1234)
        draws = rng.normal(0.0, 1.0, size=(10_000, 21))
        empirical = float(np.std(draws @ bank.weights[0]))
        assert 0.9 * gain <= empirical <= 1.1 * gain

    def test_order_out_of_range_rejected(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        with pytest.raises(ValueError, match="order must be in 0..1"):
            kernel_noise_gain(bank, 2)


class TestConditioning:
    def test_ill_conditioned_build_rejected(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            build_kernel_bank(EstimatorSpec(degree=15, window=17))

    def test_moderately_high_degree_still_builds(self):
        bank = build_kernel_bank(EstimatorSpec(degree=12, window=14))
        assert len(bank.weights) == 13
        assert abs(bank.estimate(np.ones(14), 0) - 1.0) <= 1e-6


class TestBankInterface:
    def test_estimate_rejects_wrong_length(self):
        bank = build_kernel_bank(EstimatorSpec())
        with pytest.raises(ValueError):
            bank.estimate(np.zeros(20), 0)

    def test_estimate_rejects_bad_order(self):
        bank = build_kernel_bank(EstimatorSpec(degree=0, window=4))
        with pytest.raises(ValueError, match="order must be in 0..0"):
            bank.estimate(np.zeros(4), 1)

    def test_slide_rejects_short_input_and_bad_order(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        assert bank.slide(np.arange(7.0), 1).shape == (3,)
        with pytest.raises(ValueError, match="expected at least 5 samples"):
            bank.slide(np.zeros(4), 0)
        with pytest.raises(ValueError, match="order must be in 0..1"):
            bank.slide(np.zeros(9), 2)

    def test_weights_are_read_only(self):
        bank = build_kernel_bank(EstimatorSpec())
        with pytest.raises(ValueError):
            bank.weights[0][0] = 1.0

    def test_offsets_trail_the_right_edge(self):
        spec = EstimatorSpec(degree=1, window=4, spacing=0.5)
        bank = build_kernel_bank(spec)
        np.testing.assert_allclose(bank.offsets, [-1.5, -1.0, -0.5, 0.0])

    def test_emit_weights_round_trip(self):
        bank = build_kernel_bank(EstimatorSpec())
        text = emit_weights(bank)
        lines = text.strip().splitlines()
        assert lines[0] == "offset,w_0,w_1,w_2"
        assert len(lines) == 22
        rows = [line.split(",") for line in lines[1:]]
        offsets = np.array([float(r[0]) for r in rows])
        np.testing.assert_array_equal(offsets, bank.offsets)
        for order in range(3):
            parsed = np.array([float(r[1 + order]) for r in rows])
            np.testing.assert_array_equal(parsed, bank.weights[order])
