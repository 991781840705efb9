"""Geometric Brownian motion ensembles and the mean-trend oscillation test.

Paths follow the exact log-space update, so the marginal law at every
grid time is exact and the test below measures the process, not the
integrator. One routine draws rows into the array that keeps them, and
one integrates the residual about the mean trend s0 e^(mu t).
The oscillation test asks how often that integral exceeds a threshold:
a residual that were quickly fluctuating would make it rare.

Rows are split into contiguous spans, one thread per CPU (_spans.run_spans).
Each span draws from its own copy of the one PCG64 stream, advanced to the
span's first row, so every row gets the same normals for any thread count.
The normals pass through a stage a few rows at a time, each group
cumulated into its rows before the next is drawn. simulate_paths draws
each span straight into its rows of the result and keeps one stage of
_STAGE_VALUES normals per thread: 512 KiB each beside the result.
oscillation_probability streams each span through a reused block of
prices, blocks holding at most _CHUNK_VALUES normals across all threads,
and a stage as large as the block: 8 MiB of each per call. Both bounds
hold for any number of paths, not for any length of row: a block or a
stage holds at least one row, so the 8 MiB bound fails once steps > 2^20,
and the 512 KiB one once steps > 2^16.
The mean trend and the step widths are computed once per GbmParams.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from math import exp, inf, sqrt
from typing import Optional

import numpy as np

from ._spans import run_spans, split_rows

# Normal variates are inverse-transform draws ndtri((k + 1/2) * 2^-53)
# from PCG64 integer output; recorded in emitted metadata.
NORMAL_SOURCE = "pcg64-inverse-transform-ndtri"

_CHUNK_VALUES = 1 << 20  # cap on normals materialized per block, across all threads
_SPAN_VALUES = 1 << 17  # fewest normals (rows x steps) worth a thread of their own
_STAGE_VALUES = 1 << 16  # normals simulate_paths stages per thread (512 KiB)


@dataclass(frozen=True)
class GbmParams:
    """Simulation grid and process parameters.

    mu is the drift per unit time, sigma the volatility per sqrt(time),
    all four floats finite; the grid has steps intervals on [0, t_end].
    The per-step log drift and scale and the mean trend s0 e^(mu t) must
    be finite too, or the paths and residuals would overflow. seed is
    None (fresh entropy) or an integer >= 0.
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
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if isinstance(self.paths, bool) or not isinstance(self.paths, int) or self.paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {self.paths!r}")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                                      or self.seed < 0):
            raise ValueError(f"seed must be None or an integer >= 0, got {self.seed!r}")
        try:
            trend_end = self.s0 * exp(self.mu * self.t_end)
        except OverflowError:
            trend_end = inf
        if not trend_end < inf:
            raise ValueError(
                f"mean trend s0 * exp(mu * t_end) must be finite, got "
                f"mu={self.mu!r}, s0={self.s0!r}, t_end={self.t_end!r}"
            )
        try:
            drift, scale = self._log_step()
        except OverflowError:  # float ** raises where float * returns inf
            drift = scale = inf
        if not (-inf < drift < inf and scale < inf):
            raise ValueError(
                f"per-step log drift (mu - sigma**2 / 2) * dt and scale sigma * sqrt(dt) "
                f"must be finite, got mu={self.mu!r}, sigma={self.sigma!r}, "
                f"dt={self.t_end / self.steps!r}"
            )

    def _log_step(self) -> tuple:
        """(drift, scale) of one exact log step: (mu - sigma^2/2) dt, sigma sqrt(dt)."""
        dt = self.t_end / self.steps
        return (self.mu - 0.5 * self.sigma**2) * dt, self.sigma * sqrt(dt)

    def grid(self) -> np.ndarray:
        """Sample times 0 .. t_end, steps+1 points."""
        return np.linspace(0.0, self.t_end, self.steps + 1)

    @cached_property
    def _trapezoid(self) -> tuple:
        """(trend, dt), read-only: the mean trend s0 e^(mu t) on the grid and
        the grid's step widths, computed on first use and kept."""
        t = self.grid()
        with _no_overflow(self):
            trend = self.s0 * np.exp(self.mu * t)
        dt = np.diff(t)
        for arr in (trend, dt):
            arr.setflags(write=False)
        return trend, dt


@dataclass(frozen=True)
class ResidualStat:
    """Monte Carlo estimate of P(|integral of residual| > epsilon)."""

    epsilon: float
    p_hat: float
    stderr: float
    paths: int


@contextmanager
def _no_overflow(params: GbmParams):
    """Raise ValueError, not a warning and inf prices, when float64 overflows
    in the block arithmetic (a path far above the mean trend, from a large
    s0 or sigma)."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(
            f"prices overflow a double, got s0={params.s0!r}, mu={params.mu!r}, "
            f"sigma={params.sigma!r}"
        ) from exc


def _draw_rows(rng: np.random.Generator, params: GbmParams, out: np.ndarray,
               stage: np.ndarray) -> None:
    """Draw the ensemble's next len(out) rows of prices into out, column 0 = s0.

    stage is C-contiguous scratch of shape (g, steps) for any g >= 1: the
    normals go through it g rows at a time, each group cumulated into its
    rows of out before the next is drawn, and ndtri is faster there than
    on a strided view. random() gives k * 2^-53 for k the top 53 bits of
    one uint64, as integers(0, 2^53) does (a power-of-two range, so no
    rejection); adding 2^-54 rounds (k + 1/2) * 2^-53 as float(k) + 0.5
    then scaling would. One uint64 per normal, drawn in row order, so
    every split of r rows into blocks and stage groups ends at one stream
    position and gives each row the same normals.
    """
    # imported here, not at module top: the series subcommands draw no
    # normals, and importing scipy.special would dominate their start-up
    from scipy.special import ndtri

    drift, scale = params._log_step()
    for lo in range(0, len(out), len(stage)):
        normals = stage[: len(out) - lo]
        rng.random(out=normals)
        normals += 2.0**-54
        ndtri(normals, out=normals)
        with _no_overflow(params):
            normals *= scale
            normals += drift
            np.cumsum(normals, axis=1, out=out[lo:lo + len(normals), 1:])
    with _no_overflow(params):
        out[:, 0] = 0.0  # log(S / s0) at t = 0
        np.exp(out, out=out)
        out *= params.s0


def _residual_integrals(prices: np.ndarray, params: GbmParams, terms: np.ndarray) -> np.ndarray:
    """Trapezoidal integral over [0, t_end] of each row of prices minus the
    mean trend s0 * exp(mu t); the trend is subtracted from prices in place.

    np.trapezoid's arithmetic, ((y[1:] + y[:-1]) * dt / 2).sum(), with the
    terms written into terms (prices' shape less one column), not into
    temporaries. Multiplying by dt and then halving is kept: dt / 2 would
    round differently for subnormal terms.
    """
    trend, dt = params._trapezoid
    with _no_overflow(params):
        prices -= trend
        np.add(prices[..., 1:], prices[..., :-1], out=terms)
        terms *= dt
        terms /= 2.0
        return terms.sum(axis=-1)


def _split(params: GbmParams) -> list[tuple[np.random.Generator, range]]:
    """The ensemble's rows as run_spans takes them: (rng, span) per span of
    split_rows, each span at least _SPAN_VALUES normals.

    rng is the one PCG64 stream of params.seed advanced to the span's first
    row: row r begins at stream position r * steps (one uint64 per normal),
    reached in O(log) time. Callers allocate each span's buffers (blocks
    and stages) before run_spans starts a thread: blocks that worker
    threads allocate and free stay in the allocator's per-thread arenas,
    which made the peak RSS vary from run to run.
    """
    import scipy.special  # noqa: F401  (before any thread imports it in _draw_rows)

    params._trapezoid  # noqa: B018  (cached on this thread, read by every span)

    steps = params.steps
    seq = np.random.SeedSequence(params.seed)  # for seed=None, the one entropy draw
    return [(np.random.Generator(np.random.PCG64(seq).advance(span.start * steps)), span)
            for span in split_rows(params.paths, -(-_SPAN_VALUES // steps))]


def simulate_paths(params: GbmParams) -> np.ndarray:
    """Generate the full ensemble, shape (paths, steps+1), column 0 = s0.

    Exact log-space update per step:
        S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) xi).
    Deterministic given params.seed, and the same for any _STAGE_VALUES
    and thread count. Each span is drawn into its rows of the result
    through one stage of _STAGE_VALUES normals (one row, where a row holds
    more), so the scratch beside the result is 512 KiB per thread,
    whatever the ensemble size.
    """
    out = np.empty((params.paths, params.steps + 1))
    stage_rows = max(1, _STAGE_VALUES // params.steps)
    run_spans([partial(_draw_rows, rng, params, out[span.start:span.stop],
                       np.empty((min(stage_rows, len(span)), params.steps)))
               for rng, span in _split(params)])
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
    return float(_residual_integrals(path, params, np.empty(params.steps)))


def oscillation_probability(params: GbmParams, epsilon: float) -> ResidualStat:
    """Fraction of paths whose residual integral exceeds epsilon in
    magnitude, with its binomial standard error.

    Streams the ensemble through one reused block of rows; results equal
    residual_integral over every row of simulate_paths, for the same seed.

    Raises:
        ValueError: epsilon <= 0 or not finite.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if epsilon == inf:
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")

    def count(rng: np.random.Generator, span: range, block: np.ndarray, terms: np.ndarray) -> int:
        exceed = 0
        for lo in range(span.start, span.stop, len(block)):
            prices = block[: span.stop - lo]
            _draw_rows(rng, params, prices, terms[: len(prices)])
            integrals = _residual_integrals(prices, params, terms[: len(prices)])
            exceed += int(np.count_nonzero(np.abs(integrals) > epsilon))
        return exceed

    splits = _split(params)
    rows = max(1, _CHUNK_VALUES // len(splits) // params.steps)  # per block, _CHUNK_VALUES in all
    exceed = sum(run_spans([
        partial(count, rng, span, np.empty((min(rows, len(span)), params.steps + 1)),
                np.empty((min(rows, len(span)), params.steps)))
        for rng, span in splits
    ]))
    p_hat = exceed / params.paths
    stderr = sqrt(p_hat * (1.0 - p_hat) / params.paths)
    return ResidualStat(epsilon=epsilon, p_hat=p_hat, stderr=stderr, paths=params.paths)
