"""Geometric Brownian motion ensembles and the mean-trend oscillation test.

Paths follow the exact log-space update, so the marginal law at every
grid time is exact and the test below measures the process, not the
integrator. One routine draws each block of rows into the array that
keeps it, and one integrates the residual about the mean trend s0 e^(mu t).
The oscillation test asks how often that integral exceeds a threshold:
a residual that were quickly fluctuating would make it rare.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Optional

import numpy as np
from scipy.special import ndtri

# Normal variates are inverse-transform draws ndtri((k + 1/2) * 2^-53)
# from PCG64 integer output; recorded in emitted metadata.
NORMAL_SOURCE = "pcg64-inverse-transform-ndtri"

_CHUNK_VALUES = 4_000_000  # cap on normals materialized per block


@dataclass(frozen=True)
class GbmParams:
    """Simulation grid and process parameters.

    mu is the drift per unit time, sigma the volatility per sqrt(time),
    all four floats finite; the grid has steps intervals on [0, t_end].
    """

    mu: float
    sigma: float
    s0: float = 1.0
    t_end: float = 1.0
    steps: int = 1000
    paths: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not -inf < self.mu < inf:
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not 0 < self.s0 < inf:
            raise ValueError(f"s0 must be positive and finite, got {self.s0!r}")
        if not 0 <= self.sigma < inf:
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma!r}")
        if not 0 < self.t_end < inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not isinstance(self.paths, int) or self.paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {self.paths!r}")

    def grid(self) -> np.ndarray:
        """Sample times 0 .. t_end, steps+1 points."""
        return np.linspace(0.0, self.t_end, self.steps + 1)


@dataclass(frozen=True)
class ResidualStat:
    """Monte Carlo estimate of P(|integral of residual| > epsilon)."""

    epsilon: float
    p_hat: float
    stderr: float
    paths: int


def _draw_rows(rng: np.random.Generator, params: GbmParams, out: np.ndarray) -> None:
    """Draw the ensemble's next len(out) rows of prices into out, column 0 = s0.

    The normals get a fresh contiguous buffer (ndtri is faster there than on
    a strided view) that dies on return. 2^53 is a power of two: one uint64
    per normal, no rejection, so every split of r rows ends at one position.
    """
    dt = params.t_end / params.steps
    dlog = rng.integers(0, 1 << 53, size=(len(out), params.steps)).astype(float)
    dlog += 0.5
    dlog *= 2.0**-53
    ndtri(dlog, out=dlog)
    dlog *= params.sigma * sqrt(dt)
    dlog += (params.mu - 0.5 * params.sigma**2) * dt
    out[:, 0] = 0.0  # log(S / s0) at t = 0
    np.cumsum(dlog, axis=1, out=out[:, 1:])
    np.exp(out, out=out)
    out *= params.s0


def _residual_integrals(prices: np.ndarray, params: GbmParams) -> np.ndarray:
    """Trapezoidal integral over [0, t_end] of each row of prices minus the
    mean trend s0 * exp(mu t); the trend is subtracted from prices in place."""
    t = params.grid()
    prices -= params.s0 * np.exp(params.mu * t)
    return np.trapezoid(prices, t)


def simulate_paths(params: GbmParams) -> np.ndarray:
    """Generate the full ensemble, shape (paths, steps+1), column 0 = s0.

    Exact log-space update per step:
        S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) xi).
    Deterministic given params.seed, and the same for any _CHUNK_VALUES.
    """
    out = np.empty((params.paths, params.steps + 1))
    rng = np.random.default_rng(params.seed)
    rows = max(1, _CHUNK_VALUES // params.steps)
    for lo in range(0, params.paths, rows):
        _draw_rows(rng, params, out[lo : lo + rows])
    return out


def residual_integral(path: np.ndarray, params: GbmParams) -> float:
    """Trapezoidal integral over [0, t_end] of path minus the mean trend
    s0 * exp(mu t).

    Raises:
        ValueError: path not on the params grid.
    """
    path = np.array(path, dtype=float)
    if path.shape != (params.steps + 1,):
        raise ValueError(
            f"grid mismatch: path has shape {path.shape}, params grid needs "
            f"({params.steps + 1},)"
        )
    return float(_residual_integrals(path, params))


def oscillation_probability(params: GbmParams, epsilon: float) -> ResidualStat:
    """Fraction of paths whose residual integral exceeds epsilon in
    magnitude, with its binomial standard error.

    Streams the ensemble through one reused block of rows; results equal
    residual_integral over every row of simulate_paths, for the same seed.

    Raises:
        ValueError: epsilon <= 0.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    rng = np.random.default_rng(params.seed)
    rows = max(1, _CHUNK_VALUES // params.steps)
    block = np.empty((min(rows, params.paths), params.steps + 1))
    exceed = 0
    for lo in range(0, params.paths, rows):
        prices = block[: params.paths - lo]
        _draw_rows(rng, params, prices)
        exceed += int(np.count_nonzero(np.abs(_residual_integrals(prices, params)) > epsilon))
    p_hat = exceed / params.paths
    stderr = sqrt(p_hat * (1.0 - p_hat) / params.paths)
    return ResidualStat(epsilon=epsilon, p_hat=p_hat, stderr=stderr, paths=params.paths)
