"""Kernel bank construction: exactness, golden weights, noise gains."""
import math
import os
import platform
import re
import textwrap
import time
import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab.kernels as kernels
from conftest import run_python
from trendlab.kernels import (
    EstimatorSpec,
    KernelBank,
    _density_polynomials,
    _project,
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
        # bool is an int subclass, and a float or a numpy integer is not
        # one, but none of them is rejected as underdetermined
        for window in (True, False, 21.0, np.int64(21)):
            with pytest.raises(ValueError, match=f"window must be an integer, got {re.escape(repr(window))}$"):
                EstimatorSpec(degree=0, window=window)
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


def expand(p: list[int], smoothing: int) -> list[int]:
    """The monomial coefficients of (1-u)^(kappa-1) p(u), in exact integers."""
    q = [0] * (len(p) + smoothing - 1)
    for i, c in enumerate(p):
        for j in range(smoothing):
            q[i + j] += c * (-1) ** j * comb(smoothing - 1, j)
    return q


def square_and_multiply(base: np.ndarray, e: int) -> np.ndarray:
    """base**e by the binary powering of build_kernel_bank, products only."""
    out = 1.0 + base * 0
    while e:
        if e & 1:
            out = out * base
        base, e = base * base, e >> 1
    return out


def polyval_densities(spec: EstimatorSpec) -> list[np.ndarray]:
    """The densities q_v(u_j) = (1-u_j)^(kappa-1) p_v(u_j) on the bank's
    window times, p_v evaluated by numpy.polynomial's polyval."""
    w = spec.window
    u = (w - 1 - np.arange(w)) / (w - 1)
    weight = square_and_multiply(1.0 - u, spec.smoothing - 1)
    return [np.polynomial.polynomial.polyval(u, np.array([float(c) for c in p])) * weight
            for p in _density_polynomials(spec.degree, spec.smoothing)]


def exact_densities(spec: EstimatorSpec) -> list[list[Fraction]]:
    """q_v(u_j) in exact rationals at the bank's (rounded) window times u_j.

    A factor (1-u_j)^(kappa-1) below 2^-2000 is taken as 0: the sample is
    then below 2^-2000 * 2^1024 in size, far under any tolerance used here.
    """
    w, k = spec.window, spec.smoothing
    u = [Fraction(float(x)) for x in (w - 1 - np.arange(w)) / (w - 1)]
    factors = [Fraction(0) if 0 < 1 - x and (k - 1) * -math.log2(1 - x) > 2000 else (1 - x) ** (k - 1)
               for x in u]
    return [[f * sum(c * x**i for i, c in enumerate(p)) if f else Fraction(0)
             for f, x in zip(factors, u)]
            for p in _density_polynomials(spec.degree, k)]


def density_error(spec: EstimatorSpec) -> float:
    """Largest error of polyval_densities against exact_densities, relative
    to the largest exact sample of the same order."""
    worst = 0.0
    for got, want in zip(polyval_densities(spec), exact_densities(spec)):
        error = max(abs(float(Fraction(float(g)) - x)) for g, x in zip(got, want))
        worst = max(worst, error / max(abs(float(x)) for x in want))
    return worst


class TestDensityPolynomials:
    # p_v of degree <= N is pinned by the N+1 conditions (a), a Gram system
    # of the positive weight (1-u)^(kappa-1); q_v = (1-u)^(kappa-1) p_v
    @settings(max_examples=60)
    @given(degree=st.integers(0, 8), smoothing=st.integers(1, 6))
    def test_densities_pinned_by_reproducing_property(self, degree, smoothing):
        ps = _density_polynomials(degree, smoothing)
        assert len(ps) == degree + 1
        densities = polyval_densities(EstimatorSpec(degree=degree, window=degree + 2, smoothing=smoothing))
        for v, p in enumerate(ps):
            # (a) integral_0^1 (1-u)^(kappa-1) p_v u^d du = v! delta_vd, exactly,
            # by the Beta integrals B(i+d+1, kappa) = (i+d)! (kappa-1)! / (i+d+kappa)!
            for d in range(degree + 1):
                got = sum(c * Fraction(factorial(i + d) * factorial(smoothing - 1),
                                       factorial(i + d + smoothing)) for i, c in enumerate(p))
                assert got == (factorial(v) if d == v else 0), (v, d)
            # (b) deg p_v <= N, stored as N + 1 integer coefficients.
            assert len(p) == degree + 1 and all(type(c) is int for c in p)
            # (c) q_v and its first kappa-2 derivatives vanish at u = 1, and
            # the bank's oldest sample, at u = 1, is exactly 0 for kappa >= 2.
            q = expand(p, smoothing)
            for r in range(smoothing - 1):
                assert sum(c * math.perm(k, r) for k, c in enumerate(q)) == 0, r
            if smoothing >= 2:
                assert densities[v][0] == 0.0, v

    @pytest.mark.parametrize(
        "smoothing, want_p, want_q",
        [
            (1, [[9, -36, 30], [-36, 192, -180], [60, -360, 360]],
             [[9, -36, 30], [-36, 192, -180], [60, -360, 360]]),
            (
                3,
                [[15, -90, 105], [-90, 780, -1050], [210, -2100, 3150]],
                [
                    [15, -120, 300, -300, 105],
                    [-90, 960, -2700, 2880, -1050],
                    [210, -2520, 7560, -8400, 3150],
                ],
            ),
        ],
    )
    def test_quadratic_densities_pinned(self, smoothing, want_p, want_q):
        ps = _density_polynomials(2, smoothing)
        assert ps == want_p
        assert [expand(p, smoothing) for p in ps] == want_q


def gauss_jordan_densities(degree: int, smoothing: int) -> list[list[Fraction]]:
    """The densities as the bank once solved them: the Gram system of the
    Beta weight by Gauss-Jordan elimination in exact rationals.

    q_v = (1-u)^(kappa-1) p_v, where the coefficients c_v of p_v (degree
    <= N) solve G c_v = v! e_v for the Gram matrix of the Beta weight,
    G[i][j] = integral_0^1 u^(i+j) (1-u)^(kappa-1) du
            = (i+j)! (kappa-1)! / (i+j+kappa)!.
    """
    n, k = degree, smoothing
    # Gauss-Jordan on [G | diag(v!)]; G is positive definite, so every
    # pivot on the diagonal is nonzero and no row exchange is needed.
    rows = [
        [Fraction(factorial(i + j) * factorial(k - 1), factorial(i + j + k)) for j in range(n + 1)]
        + [Fraction(factorial(i) if j == i else 0) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    for col in range(n + 1):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n + 1):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]

    # Multiply each p_v by the binomial expansion of (1-u)^(kappa-1).
    weight = [(-1) ** j * comb(k - 1, j) for j in range(k)]
    qs = []
    for v in range(n + 1):
        q = [Fraction(0)] * (n + k)
        for i in range(n + 1):
            for j, b in enumerate(weight):
                q[i + j] += rows[i][n + 1 + v] * b
        qs.append(q)
    return qs


class TestClosedFormDensities:
    @pytest.mark.parametrize("degree", range(17))
    def test_equal_to_the_gauss_jordan_solve(self, degree):
        for smoothing in range(1, 8):
            ps = _density_polynomials(degree, smoothing)
            assert all(type(c) is int for p in ps for c in p), smoothing
            got = [expand(p, smoothing) for p in ps]
            want = gauss_jordan_densities(degree, smoothing)
            assert [len(q) for q in got] == [len(q) for q in want], smoothing
            assert got == want, smoothing


class TestHornerBound:
    @pytest.mark.parametrize("degree, smoothing",
                             [(2, 27), (2, 60), (2, 100), (4, 21), (0, 300), (2, 10**6)])
    def test_large_smoothing_builds_accurate_densities(self, degree, smoothing):
        # expanding (1-u)^(kappa-1) p_v into alternating monomials once
        # cancelled in Horner's rule, 4e3 relative at N=2, W=21, kappa=60,
        # and the bound rejected all of these; the product is accurate
        for window in (degree + 2, 21, 121):
            spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing)
            got = build_kernel_bank(spec).weights
            for v, want in enumerate(polyval_weights(spec)):
                assert got[v].tobytes() == want.tobytes(), (spec, v)
            assert density_error(spec) <= 3e-12, spec

    @pytest.mark.parametrize("smoothing", [1, 2, 3, 5, 7, 27, 60, 100, 1000, 10**6])
    def test_densities_within_3e_12_of_exact(self, smoothing):
        for degree in range(9):
            for window in sorted({degree + 2, 7, 21, 121} - set(range(degree + 2))):
                spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing)
                got = build_kernel_bank(spec).weights
                for v, want in enumerate(polyval_weights(spec)):
                    assert got[v].tobytes() == want.tobytes(), (spec, v)
                assert density_error(spec) <= 3e-12, spec

    @pytest.mark.parametrize("degree, window", [(15, 18), (16, 66)])
    def test_high_degree_rejected(self, degree, window):
        # the degree, not kappa, now makes Horner on p_v cancel
        message = (rf"^densities too inaccurate in floating point for degree {degree}, "
                   rf"smoothing 1 \(Horner error bound above 0.0001\)$")
        with pytest.raises(ValueError, match=message):
            build_kernel_bank(EstimatorSpec(degree=degree, window=window))

    def test_weight_rounding_bound_past_one_rejected(self):
        # p_0 = kappa fits a float, but gamma over 2(kappa-1) roundings is no
        # bound once k u >= 1, where k u / (1 - k u) turns negative
        with pytest.raises(ValueError, match=r"^densities too inaccurate .* smoothing 10000000000000000 "):
            build_kernel_bank(EstimatorSpec(degree=0, window=21, smoothing=10**16))

    def test_coefficients_past_the_float_range_rejected_before_float(self):
        # p_0's u^2 coefficient is near kappa^4 / 4 > 2**1024: float() would raise OverflowError
        assert max(abs(c) for c in _density_polynomials(2, 10**200)[0]) > 2**1024
        with pytest.raises(ValueError, match=f"degree 2, smoothing {10**200} "):
            build_kernel_bank(EstimatorSpec(degree=2, smoothing=10**200))

    @pytest.mark.parametrize("degree, smoothing", [(2, 26), (4, 20)])
    def test_largest_accepted_smoothing(self, degree, smoothing):
        # the largest kappa the bound accepted on the expanded densities
        build_kernel_bank(EstimatorSpec(degree=degree, window=21, smoothing=smoothing))

    def test_small_specs_accepted(self):
        for degree in range(9):
            for window in sorted({degree + 2, 21, 500}):
                for smoothing in range(1, 8):
                    build_kernel_bank(EstimatorSpec(degree=degree, window=window, smoothing=smoothing))

    def test_huge_smoothing_builds_fast(self):
        start = time.perf_counter()
        build_kernel_bank(EstimatorSpec(degree=2, window=21, smoothing=10**6))
        assert time.perf_counter() - start < 0.1


class TestSpacingRange:
    @pytest.mark.parametrize("degree, spacing", [(2, 1e-200), (2, 1e200), (4, 1e-100), (4, 1e100)])
    def test_powers_past_the_double_range_rejected_before_any_array(self, degree, spacing,
                                                                    monkeypatch):
        # spacing^N underflows to 0 (a divide by zero followed) or
        # ((W-1) * spacing)^N overflows (a float power raised OverflowError)
        def never_called(*args, **kwargs):
            raise AssertionError("an array was formed before the spacing was checked")

        monkeypatch.setattr(kernels.np, "arange", never_called)
        message = f"spacing {spacing!r} out of range for degree {degree}, window 21: "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                build_kernel_bank(EstimatorSpec(degree=degree, spacing=spacing))

    @pytest.mark.parametrize("spacing", [1e-100, 1e100])
    def test_powers_inside_the_double_range_build(self, spacing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank = build_kernel_bank(EstimatorSpec(spacing=spacing))
        assert all(np.isfinite(w).all() for w in bank.weights)


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


def polyval_raw(spec: EstimatorSpec) -> list[np.ndarray]:
    """The raw weights of polyval_densities: each density sampled on the
    window times, scaled by du and by horizon^-v, before the projection."""
    w = spec.window
    horizon = (w - 1) * spec.spacing
    return [((-1.0) ** v) * density * (1.0 / (w - 1)) / horizon**v
            for v, density in enumerate(polyval_densities(spec))]


def polyval_weights(spec: EstimatorSpec) -> tuple[np.ndarray, ...]:
    """build_kernel_bank's weights from polyval_densities, with p_v
    evaluated by numpy.polynomial's polyval, projected by the library."""
    return _project(polyval_raw(spec), spec)


def qr_projection(raws: list[np.ndarray], spec: EstimatorSpec) -> list[np.ndarray]:
    """The projection as the bank once computed it: the minimum-norm
    correction through a QR factorization of the scaled Vandermonde matrix."""
    n, w = spec.degree, spec.window
    horizon = (w - 1) * spec.spacing
    a_mat = np.vander((np.arange(w) - (w - 1)) / (w - 1), n + 1, increasing=True)
    q_fact, r_fact = np.linalg.qr(a_mat)
    weights = []
    for v, raw in enumerate(raws):
        rhs = np.zeros(n + 1)
        rhs[v] = math.factorial(v) / horizon**v
        weights.append(raw - q_fact @ np.linalg.solve(r_fact.T, a_mat.T @ raw - rhs))
    return weights


def exact_projection(raws: list[np.ndarray], spec: EstimatorSpec) -> list[list[Fraction]]:
    """The minimum-norm projection of the same float raw weights, in exact
    rationals: w_v = raw_v - A lambda_v with (A^T A) lambda_v = A^T raw_v - rhs_v
    for the monomials A[j][d] = m_j^d of the integer offsets m_j = j - W + 1,
    where rhs_v = v! / spacing^v at d = v and 0 elsewhere. Gauss-Jordan
    elimination solves for every order at once (A^T A is positive definite:
    no row exchange); a float times 2^1074 is an integer, so the sums over
    the window run in integers."""
    n, w = spec.degree, spec.window
    one = 2**1074
    a_mat = [[(j - w + 1) ** d for d in range(n + 1)] for j in range(w)]
    ints = [[int(Fraction(float(x)) * one) for x in raw] for raw in raws]
    rows = [[Fraction(sum(row[d] * row[e] for row in a_mat)) for e in range(n + 1)]
            + [Fraction(sum(row[d] * x for row, x in zip(a_mat, r)), one)
               - (factorial(v) / Fraction(spec.spacing) ** v if d == v else 0)
               for v, r in enumerate(ints)]
            for d in range(n + 1)]
    for col in range(n + 1):
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n + 1):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    out = []
    for v, r in enumerate(ints):
        lam = [row[n + 1 + v] for row in rows]
        den = math.lcm(*(x.denominator for x in lam))
        num = [x.numerator * (den // x.denominator) for x in lam]
        out.append([Fraction(x * den - one * sum(a * y for a, y in zip(row, num)), one * den)
                    for row, x in zip(a_mat, r)])
    return out


def largest_gap(got: np.ndarray, want: list[Fraction]) -> Fraction:
    return max(abs(Fraction(float(g)) - x) for g, x in zip(got, want))


# (degree, window) where the QR projection itself misses the exact one by
# more than 1e-11 of the largest weight at some kappa in 1, 2, 3, 7: by up
# to 1.4e-11 at (7, 9) and (8, 21), and 2.9e-10 at (8, 10)
QR_MISSES = [(7, 9), (8, 10), (8, 21)]


class TestProjection:
    # the bounds below were fixed before the first run
    @pytest.mark.parametrize("degree", range(9))
    def test_within_1e_11_of_the_qr_projection(self, degree):
        for window in sorted({degree + 2, 7, 21, 121, 500} - set(range(degree + 2))):
            if (degree, window) in QR_MISSES:
                continue
            for smoothing in (1, 2, 3, 7):
                for spacing in (1.0, 0.5):
                    spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing,
                                         spacing=spacing)
                    raws = polyval_raw(spec)
                    for v, (got, want) in enumerate(zip(_project(raws, spec), qr_projection(raws, spec))):
                        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), (spec, v)

    @pytest.mark.parametrize("degree, window", QR_MISSES)
    def test_closer_to_exact_than_the_qr_projection(self, degree, window):
        for smoothing in (1, 2, 3, 7):
            spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing)
            raws = polyval_raw(spec)
            exact = exact_projection(raws, spec)
            gaps = [(largest_gap(got, want), largest_gap(old, want))
                    for got, old, want in zip(_project(raws, spec), qr_projection(raws, spec), exact)]
            assert max(gap for gap, _ in gaps) < max(old for _, old in gaps), spec

    @pytest.mark.parametrize("degree", range(9))
    def test_within_64_ulps_of_the_exact_projection(self, degree):
        # 64 ulps of the order's largest exact weight, at every sample
        for window in sorted({degree + 2, 7, 21, 121} - set(range(degree + 2))):
            for smoothing in (1, 2, 3, 7):
                for spacing in (1.0, 0.5):
                    spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing,
                                         spacing=spacing)
                    raws = polyval_raw(spec)
                    for v, (got, want) in enumerate(zip(_project(raws, spec), exact_projection(raws, spec))):
                        bound = 64 * Fraction(math.ulp(float(max(map(abs, want)))))
                        assert largest_gap(got, want) <= bound, (spec, v)

    @pytest.mark.parametrize("degree, window, smoothings", [
        (13, 15, [1]), (14, 16, [1]), (15, 17, [2, 3, 5, 7, 20]), (16, 18, [2, 3, 5, 7, 20]),
        (16, 21, [2, 3, 5, 7, 20]),
    ])
    def test_specs_the_qr_projection_rejected_within_1e_12_of_exact(self, degree, window, smoothings):
        # the QR projection failed the exactness check at (13, 15) and
        # (14, 16) and was too ill-conditioned for the others
        for smoothing in smoothings:
            spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing)
            got = build_kernel_bank(spec).weights
            for v, want in enumerate(exact_projection(polyval_raw(spec), spec)):
                assert largest_gap(got[v], want) <= Fraction(1e-12) * max(map(abs, want)), (spec, v)


class TestHornerDensities:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("smoothing", [1, 2, 3, 4])
    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    def test_weights_equal_the_polyval_weights(self, degree, smoothing, spacing):
        # the same Horner recurrence as polyval, so the same bits
        for window in sorted({degree + 2, 7, 21, 121, 500}):
            spec = EstimatorSpec(degree=degree, window=window, smoothing=smoothing, spacing=spacing)
            got = build_kernel_bank(spec).weights
            for v, want in enumerate(polyval_weights(spec)):
                assert got[v].tobytes() == want.tobytes(), (spec, v)


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

    @settings(max_examples=200)
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

    @pytest.mark.parametrize("order", [True, False, 1.0, 0.0, "1"])
    def test_order_not_an_integer_rejected(self, order):
        # True would read the order-1 weights, 1.0 would fail to index them
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        with pytest.raises(ValueError, match=rf"^order must be in 0..1, got {re.escape(repr(order))}$"):
            kernel_noise_gain(bank, order)


class TestDegreeCheck:
    # the old gate, cond(R) <= 1e12 for the QR factor R of the Vandermonde
    # matrix, rejected N = 17 at every window (its smallest cond, near
    # W = 112, is 4.4e12), and the smallest cond grows with N
    @pytest.mark.parametrize("degree, window", [(17, 19), (17, 112), (40, 70)])
    def test_degree_above_16_rejected(self, degree, window):
        message = rf"^degree {degree} above 16, the highest a kernel bank is built for$"
        with pytest.raises(ValueError, match=message):
            build_kernel_bank(EstimatorSpec(degree=degree, window=window))

    @pytest.mark.parametrize("degree, window", [(17, 19), (40, 70), (2000, 2002)])
    def test_rejected_before_any_array_or_density(self, monkeypatch, degree, window):
        # the densities' big-integer products grow fast with N, and the
        # arrays with N and W; the old gate took 2.6 s to reject N = 2000
        spec = EstimatorSpec(degree=degree, window=window)

        def solve(*args):
            raise AssertionError("_density_polynomials called for a rejected spec")

        monkeypatch.setattr(kernels, "_density_polynomials", solve)
        monkeypatch.setattr(kernels, "np", None)  # any numpy call raises AttributeError
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^degree {degree} above 16"):
            build_kernel_bank(spec)
        assert time.perf_counter() - start < 0.01

    def test_moderately_high_degree_still_builds(self):
        bank = build_kernel_bank(EstimatorSpec(degree=12, window=14))
        assert len(bank.weights) == 13
        assert abs(bank.estimate(np.ones(14), 0) - 1.0) <= 1e-6
        # the old gate's cond(R) was 1.1e13 here
        build_kernel_bank(EstimatorSpec(degree=16, window=18, smoothing=2))


class TestBankInterface:
    def test_estimate_rejects_wrong_length(self):
        bank = build_kernel_bank(EstimatorSpec())
        with pytest.raises(ValueError):
            bank.estimate(np.zeros(20), 0)

    def test_estimate_rejects_bad_order(self):
        bank = build_kernel_bank(EstimatorSpec(degree=0, window=4))
        with pytest.raises(ValueError, match="order must be in 0..0"):
            bank.estimate(np.zeros(4), 1)

    @pytest.mark.parametrize("order", [True, False, 1.0, 0.0, "1"])
    def test_slide_and_estimate_reject_an_order_that_is_not_an_integer(self, order):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        message = rf"^order must be in 0..1, got {re.escape(repr(order))}$"
        with pytest.raises(ValueError, match=message):
            bank.slide(np.zeros(9), order)
        with pytest.raises(ValueError, match=message):
            bank.estimate(np.zeros(5), order)

    def test_numpy_integer_order_accepted(self):
        bank = build_kernel_bank(EstimatorSpec(degree=1, window=5))
        values = np.arange(5.0)
        assert bank.estimate(values, np.int64(1)) == bank.estimate(values, 1)
        assert kernel_noise_gain(bank, np.int64(1)) == kernel_noise_gain(bank, 1)

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


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


# the instructions each OpenBLAS kernel runs: OPENBLAS_CORETYPE forces a
# kernel whatever the CPU has, so a kernel is tried only on a CPU that has them
_CORETYPES = {
    "Prescott": ("SSE3",),
    "Sandybridge": ("AVX",),
    "Haswell": ("AVX2", "FMA3"),
    "SkylakeX": ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL"),
}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_arch_openblas(),
                    reason="OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS on x86 only")
def test_weights_do_not_depend_on_the_blas_kernel():
    # numpy's OpenBLAS picks its kernels by CPU, so a build through LAPACK
    # or a matrix product gives other bits on another CPU; the weights and
    # the noise gains are hashed under each kernel and must agree
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    coretypes = [name for name, needs in _CORETYPES.items() if all(features.get(f) for f in needs)]
    if len(coretypes) < 2:
        pytest.skip(f"this CPU runs only the OpenBLAS kernels {coretypes}")
    script = textwrap.dedent("""
        import hashlib
        from trendlab.kernels import EstimatorSpec, build_kernel_bank, kernel_noise_gain
        digest = hashlib.sha256()
        for window in (7, 21, 121):
            for degree in range(min(8, window - 2) + 1):
                for smoothing in range(1, 8):
                    for spacing in (1.0, 0.5):
                        bank = build_kernel_bank(EstimatorSpec(degree=degree, window=window,
                                                               smoothing=smoothing, spacing=spacing))
                        for order, weights in enumerate(bank.weights):
                            digest.update(weights.tobytes())
                            digest.update(repr(kernel_noise_gain(bank, order)).encode())
        print(digest.hexdigest())
    """)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    hashes = {name: run_python("-c", script, env={**env, "OPENBLAS_CORETYPE": name}) for name in coretypes}
    assert len(set(hashes.values())) == 1, hashes
