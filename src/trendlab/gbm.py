"""Geometric Brownian motion ensembles and the mean-trend oscillation test.

Paths follow the exact log-space update, so the marginal law at every
grid time is exact and the test below measures the process, not the
integrator. The oscillation test asks how often the path's residual
about the deterministic mean trend integrates to something larger than a
threshold: a residual that were quickly fluctuating would make such
integrals rare.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator, Optional

import numpy as np
from scipy.special import ndtri

# Normal variates are inverse-transform draws ndtri((k + 1/2) * 2^-53)
# from PCG64 integer output; recorded in emitted metadata.
NORMAL_SOURCE = "pcg64-inverse-transform-ndtri"

_CHUNK_VALUES = 4_000_000  # cap on normals materialized per block


@dataclass(frozen=True)
class GbmParams:
    """Simulation grid and process parameters.

    mu is the drift per unit time, sigma the volatility per sqrt(time);
    the grid has steps intervals of size t_end / steps on [0, t_end].
    """

    mu: float
    sigma: float
    s0: float = 1.0
    t_end: float = 1.0
    steps: int = 1000
    paths: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.s0 > 0:
            raise ValueError(f"s0 must be positive, got {self.s0!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
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


def _price_blocks(params: GbmParams) -> Iterator[tuple[int, np.ndarray]]:
    """The ensemble in consecutive row blocks of at most _CHUNK_VALUES
    normals: yields (first row, block), a fresh (rows, steps+1) array of
    prices on the full grid, column 0 = s0, that the consumer may modify.

    2^53 is a power of two: one uint64 per normal, no rejection, so the
    stream position after r rows equals any other chunking of r rows.
    """
    dt = params.t_end / params.steps
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    vol = params.sigma * sqrt(dt)
    rng = np.random.default_rng(params.seed)
    rows_per_block = max(1, _CHUNK_VALUES // params.steps)
    for lo in range(0, params.paths, rows_per_block):
        rows = min(rows_per_block, params.paths - lo)
        dlog = rng.integers(0, 1 << 53, size=(rows, params.steps)).astype(float)
        dlog += 0.5
        dlog *= 2.0**-53
        ndtri(dlog, out=dlog)
        dlog *= vol
        dlog += drift
        block = np.empty((rows, params.steps + 1))
        block[:, 0] = 0.0  # log(S / s0) at t = 0
        np.cumsum(dlog, axis=1, out=block[:, 1:])
        # the suspended generator would keep it alive through the next draw
        del dlog
        np.exp(block, out=block)
        block *= params.s0
        yield lo, block


def simulate_paths(params: GbmParams) -> np.ndarray:
    """Generate the full ensemble, shape (paths, steps+1), column 0 = s0.

    Exact log-space update per step:
        S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) xi).
    Deterministic given params.seed.
    """
    out = np.empty((params.paths, params.steps + 1))
    for lo, block in _price_blocks(params):
        out[lo : lo + len(block)] = block
    return out


def residual_integral(path: np.ndarray, params: GbmParams) -> float:
    """Trapezoidal integral over [0, t_end] of path minus the mean trend
    s0 * exp(mu t).

    Raises:
        ValueError: path not on the params grid.
    """
    path = np.asarray(path, dtype=float)
    if path.shape != (params.steps + 1,):
        raise ValueError(
            f"grid mismatch: path has shape {path.shape}, params grid needs "
            f"({params.steps + 1},)"
        )
    t = params.grid()
    residual = path - params.s0 * np.exp(params.mu * t)
    return float(np.trapezoid(residual, t))


def oscillation_probability(params: GbmParams, epsilon: float) -> ResidualStat:
    """Fraction of paths whose residual integral exceeds epsilon in
    magnitude, with its binomial standard error.

    Streams the ensemble in blocks; results are identical to running
    simulate_paths and integrating every row, for the same seed.

    Raises:
        ValueError: epsilon <= 0.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    t = params.grid()
    mean_trend = params.s0 * np.exp(params.mu * t)
    exceed = 0
    for _, block in _price_blocks(params):
        block -= mean_trend
        integrals = np.trapezoid(block, t, axis=1)
        exceed += int(np.count_nonzero(np.abs(integrals) > epsilon))
    p_hat = exceed / params.paths
    stderr = sqrt(p_hat * (1.0 - p_hat) / params.paths)
    return ResidualStat(epsilon=epsilon, p_hat=p_hat, stderr=stderr, paths=params.paths)
