"""Finite-window weight sequences estimating a signal's value and derivatives.

The construction treats the signal on a sliding window as a degree-N
polynomial observed through noise. On normalized window time u in [0, 1],
density polynomials q_v with the reproducing property

    integral_0^1 q_v(u) u^d du = v! * delta_{v d}   for d <= N

give x^(v)(0) = integral q_v(u) x(u) du exactly for polynomial x. The
algebraic (annihilator) estimators have q_v = (1-u)^(kappa-1) p_v with
deg p_v <= N: p_v is the dual basis of the monomials under the Beta weight
(1-u)^(kappa-1), a Jacobi family (Mboup, Join & Fliess, "Numerical
differentiation with annihilators in noisy environment", Numer. Algorithms
2009), whose expansion in the Jacobi polynomials orthogonal under that
weight has integer coefficients. Each density is evaluated on the W
sample offsets as the product (1-u)^(kappa-1) * p_v(u), p_v by Horner's
rule; the weight is never expanded into monomials, whose alternating
coefficients cancel in floating point. A spec whose error bound is too
large is rejected, which the degree brings about (N = 15 at W = 18), not
kappa. The order-0 noise gain grows with kappa / W (kernel_noise_gain
reports it). The discrete weights are then projected onto the affine set
of weight sequences that reproduce monomials up to degree N exactly
(minimum-norm correction), so discrete exactness is tight.

Weights are causal: weight j multiplies the sample at offset
tau_j = (j - W + 1) * spacing, and the estimate refers to the newest
sample (the window's right edge).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .series_io import emit_table

_COND_LIMIT = 1e12
_HORNER_TOL = 1e-4


@dataclass(frozen=True)
class EstimatorSpec:
    """Parameters pinning one estimator family.

    Attributes:
        degree: polynomial order N of the local signal model (>= 0).
        window: window length W in samples; must exceed degree + 1.
        spacing: sample interval in time units (> 0).
        smoothing: extra integration count kappa (>= 1); higher values
            trade sharpness for smoother densities.
    """

    degree: int = 2
    window: int = 21
    spacing: float = 1.0
    smoothing: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.degree, bool) or not isinstance(self.degree, int) or self.degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {self.degree!r}")
        if isinstance(self.window, bool) or not isinstance(self.window, int):
            raise ValueError(f"window must be an integer, got {self.window!r}")
        if self.window <= self.degree + 1:
            raise ValueError(
                f"underdetermined: window must exceed degree + 1, got window={self.window!r} "
                f"for degree {self.degree}"
            )
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if isinstance(self.smoothing, bool) or not isinstance(self.smoothing, int) or self.smoothing < 1:
            raise ValueError(f"smoothing must be an integer >= 1, got {self.smoothing!r}")


def _check_order(order: int, degree: int) -> None:
    # bool is an int subclass, and a float cannot index the weights tuple
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not 0 <= order <= degree:
        raise ValueError(f"order must be in 0..{degree}, got {order!r}")


@dataclass(frozen=True)
class KernelBank:
    """Weight sequences w_0 .. w_N for one EstimatorSpec.

    weights[v][j] multiplies the sample at offset (j - W + 1) * spacing;
    the dot product estimates the v-th derivative at the newest sample.
    """

    spec: EstimatorSpec
    weights: tuple[np.ndarray, ...]

    @property
    def offsets(self) -> np.ndarray:
        """Sample offsets tau_j = (j - W + 1) * spacing, oldest first."""
        w = self.spec.window
        return (np.arange(w) - (w - 1)) * self.spec.spacing

    def slide(self, values: np.ndarray, order: int) -> np.ndarray:
        """Apply the order-th kernel to every W-sample window: entry a estimates
        the order-th derivative at sample a + W - 1 from values[a : a + W]."""
        _check_order(order, self.spec.degree)
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < self.spec.window:
            raise ValueError(f"expected at least {self.spec.window} samples, got shape {values.shape}")
        # convolve flips its kernel; flip back so weight j hits offset j.
        return np.convolve(values, self.weights[order][::-1], mode="valid")

    def estimate(self, values: np.ndarray, order: int) -> float:
        """Apply the order-th kernel to one window (slide's single-window case).

        Args:
            values: the W window samples, oldest first.
            order: derivative order, 0 <= order <= degree.

        Returns:
            The estimated order-th derivative at the newest sample.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.spec.window,):
            raise ValueError(
                f"expected {self.spec.window} window samples, got shape {values.shape}"
            )
        return float(self.slide(values, order)[0])


def _density_polynomials(degree: int, smoothing: int) -> list[list[int]]:
    """Integer coefficients of p_0 .. p_N, where q_v = (1-u)^(kappa-1) p_v.

    p_v = v! sum_{j=v..N} (2j+kappa) r_j[v] R_j, since the shifted Jacobi
    polynomials R_j(u) = sum_s C(j+kappa-1, j-s) C(j, s) (u-1)^s u^(j-s) are
    orthogonal under (1-u)^(kappa-1) with squared norm 1/(2j+kappa). R_j has
    the u^i coefficient r_j[i] = (-1)^(j+i) C(j, i) C(j+i+kappa-1, i).
    """
    n, k = degree, smoothing
    r = [[(-1) ** (j + i) * comb(j, i) * comb(j + i + k - 1, i) for i in range(n + 1)]
         for j in range(n + 1)]
    return [[factorial(v) * sum((2 * j + k) * r[j][v] * r[j][i] for j in range(v, n + 1))
             for i in range(n + 1)] for v in range(n + 1)]


def build_kernel_bank(spec: EstimatorSpec) -> KernelBank:
    """Construct the weight sequences for one EstimatorSpec.

    The continuous densities fix the kernel family; discretization on the
    W offsets with uniform du scaling gives raw weights; a minimum-norm
    projection onto the discrete exactness constraints removes the
    quadrature bias, so every monomial of degree <= N is reproduced at
    every derivative order to machine precision.

    Raises:
        ValueError: spec invalid, the exactness system is too
            ill-conditioned to solve reliably, or the densities' error
            bound (Horner's on p_v and the weight's rounding), relative to
            their largest sample, is above 1e-4.
    """
    n, w = spec.degree, spec.window
    dt = spec.spacing

    horizon = (w - 1) * dt
    u = (w - 1 - np.arange(w)) / (w - 1)  # u_j pairs offset tau_j with window time
    du = 1.0 / (w - 1)
    scaled = (np.arange(w) - (w - 1)) / (w - 1)  # tau_j / horizon, in [-1, 0]

    # Exactness constraints in scaled coordinates: A^T w_v = rhs_v where
    # rhs_v[d] = v! / horizon^v at d = v, else 0.
    a_mat = np.vander(scaled, n + 1, increasing=True)
    q_fact, r_fact = np.linalg.qr(a_mat)
    cond = np.linalg.cond(r_fact)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError(
            f"exactness system too ill-conditioned (cond {cond:.3g}) for degree {n}, "
            f"window {w}"
        )

    # the densities take O(N^3) big-integer products: only for a spec that passed
    k = spec.smoothing
    ps = _density_polynomials(n, k)
    inaccurate = (f"densities too inaccurate in floating point for degree {n}, smoothing {k} "
                  f"(Horner error bound above {_HORNER_TOL:g})")
    # Horner on |c_i| stays finite below this, and so does Horner on c_i
    if any(len(p) * max(map(abs, p)) > sys.float_info.max / 2 for p in ps):
        raise ValueError(inaccurate)
    # (1-u)^(kappa-1) by square-and-multiply: a product rounds alike at
    # every SIMD dispatch level, numpy's power may not
    weight, base, e = 1.0 + u * 0, 1.0 - u, k - 1
    while e:
        if e & 1:
            weight = weight * base
        base, e = base * base, e >> 1
    # gamma_k = k u / (1 - k u) with k = 2N for Horner (Higham 2002, section
    # 5.1) plus 2(kappa-1) for the weight: kappa-1 from the rounded base,
    # kappa-2 from its products and one from q = w p
    ku = 2 * (n + k - 1) * 2.0**-53
    weights = []
    for v in range(n + 1):
        # Horner's rule in the order numpy.polynomial's polyval runs it,
        # without importing that package; `total` runs it on |c_i|, and
        # gamma * weight * total bounds the density's error
        coeffs = [float(c) for c in ps[v]]
        density = coeffs[-1] + u * 0
        total = abs(coeffs[-1]) + u * 0
        for c in reversed(coeffs[:-1]):
            density = c + density * u
            total = abs(c) + total * u
        density, total = density * weight, total * weight
        if not (ku < 1 and ku / (1 - ku) * total.max() <= _HORNER_TOL * np.abs(density).max()):
            raise ValueError(inaccurate)
        raw = ((-1.0) ** v) * density * du / horizon**v
        rhs = np.zeros(n + 1)
        rhs[v] = factorial(v) / horizon**v
        resid = a_mat.T @ raw - rhs
        w_v = raw - q_fact @ np.linalg.solve(r_fact.T, resid)
        w_v.setflags(write=False)
        weights.append(w_v)

    bank = KernelBank(spec=spec, weights=tuple(weights))
    _verify_exactness(bank)
    return bank


def _verify_exactness(bank: KernelBank) -> None:
    # Defensive check of the discrete reproducing property after projection.
    n = bank.spec.degree
    tau = bank.offsets
    for v in range(n + 1):
        for d in range(n + 1):
            got = bank.weights[v] @ tau**d
            want = float(factorial(v)) if d == v else 0.0
            scale = max(1.0, abs(want), float(np.abs(bank.weights[v] * tau**d).sum()))
            if not abs(got - want) <= 1e-9 * scale:
                raise ValueError(
                    f"exactness violated at order {v}, degree {d}: got {got}, want {want}"
                )


def kernel_noise_gain(bank: KernelBank, order: int) -> float:
    """Euclidean norm of the order-th weight sequence.

    For independent zero-mean noise of standard deviation s added to the
    window samples, the estimator output noise has standard deviation
    exactly gain * s.
    """
    _check_order(order, bank.spec.degree)
    return float(np.linalg.norm(bank.weights[order]))


def emit_weights(bank: KernelBank) -> str:
    """Weights as delimiter-separated text: offset, w_0, ..., w_N per row."""
    header = ("offset", *(f"w_{v}" for v in range(bank.spec.degree + 1)))
    return emit_table(header, (bank.offsets.astype(float), *bank.weights))
