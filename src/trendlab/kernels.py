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
2009). In that space the N+1 reproducing conditions have exactly one
solution, since their matrix is the Gram matrix of a positive weight. The
densities are solved in exact rational arithmetic, discretized on the W
sample offsets, and the discrete weights are then projected onto the
affine set of weight sequences that reproduce monomials up to degree N
exactly (minimum-norm correction), so discrete exactness is tight.

Weights are causal: weight j multiplies the sample at offset
tau_j = (j - W + 1) * spacing, and the estimate refers to the newest
sample (the window's right edge).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .series_io import emit_table

_COND_LIMIT = 1e12


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
        if not isinstance(self.window, int) or self.window <= self.degree + 1:
            raise ValueError(
                f"underdetermined: window must exceed degree + 1, got window={self.window!r} "
                f"for degree {self.degree}"
            )
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if isinstance(self.smoothing, bool) or not isinstance(self.smoothing, int) or self.smoothing < 1:
            raise ValueError(f"smoothing must be an integer >= 1, got {self.smoothing!r}")


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
        if not 0 <= order <= self.spec.degree:
            raise ValueError(f"order must be in 0..{self.spec.degree}, got {order}")
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


def _density_polynomials(degree: int, smoothing: int) -> list[list[Fraction]]:
    """Exact-rational density polynomials q_0 .. q_N on u in [0, 1].

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


def build_kernel_bank(spec: EstimatorSpec) -> KernelBank:
    """Construct the weight sequences for one EstimatorSpec.

    The continuous densities fix the kernel family; discretization on the
    W offsets with uniform du scaling gives raw weights; a minimum-norm
    projection onto the discrete exactness constraints removes the
    quadrature bias, so every monomial of degree <= N is reproduced at
    every derivative order to machine precision.

    Raises:
        ValueError: spec invalid, or the exactness system is too
            ill-conditioned to solve reliably.
    """
    n, w = spec.degree, spec.window
    dt = spec.spacing
    qs = _density_polynomials(n, spec.smoothing)

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

    weights = []
    for v in range(n + 1):
        coeffs = np.array([float(c) for c in qs[v]])
        density = np.polynomial.polynomial.polyval(u, coeffs)
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
    if not 0 <= order <= bank.spec.degree:
        raise ValueError(f"order must be in 0..{bank.spec.degree}, got {order}")
    return float(np.linalg.norm(bank.weights[order]))


def emit_weights(bank: KernelBank) -> str:
    """Weights as delimiter-separated text: offset, w_0, ..., w_N per row."""
    header = ("offset", *(f"w_{v}" for v in range(bank.spec.degree + 1)))
    return emit_table(header, (bank.offsets.astype(float), *bank.weights))
