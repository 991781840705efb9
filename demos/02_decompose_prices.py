"""Trend/fluctuation decomposition of a noisy price series.

Generates a sinusoidal price path with white noise (or loads a CSV passed
as the first argument), extracts the sliding trend, and runs the
quick-fluctuation test on the remainder.

    python3 demos/02_decompose_prices.py [prices.csv]

The aligned tracks are written to demos/out/<series>_decomposition.csv.
"""
import os
import sys

import numpy as np

from trendlab import (
    EstimatorSpec,
    PriceSeries,
    build_kernel_bank,
    emit_decomposition,
    load_prices,
    oscillation_score,
    sliding_trend,
)


def synthetic_series(n: int = 750, seed: int = 7) -> PriceSeries:
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    values = 50.0 + 10.0 * np.sin(2.0 * np.pi * i / 250.0) + rng.normal(0.0, 1.0, n)
    return PriceSeries("synthetic", values)


def main() -> None:
    if len(sys.argv) > 1:
        series = load_prices(sys.argv[1])
    else:
        series = synthetic_series()
    print(f"series {series.name}: {len(series)} samples")

    bank = build_kernel_bank(EstimatorSpec(degree=2, window=21))
    dec = sliding_trend(series, bank)
    fluct = dec.fluctuation
    print(f"trend extracted over {len(dec)} aligned samples "
          f"(warm-up {dec.warmup})")
    print(f"fluctuation: mean {float(np.mean(fluct)):+.4f}, "
          f"std {float(np.std(fluct)):.4f}, "
          f"max |.| {float(np.max(np.abs(fluct))):.4f}")

    report = oscillation_score(fluct, min_window=10, threshold=0.05, source=series)
    print(f"oscillation score {report.score:.5f} against scale {report.scale:.2f} "
          f"(threshold {report.threshold}): {report.verdict}")

    # the same test on the raw series minus its global mean fails, because
    # the cycle itself does not average out over long windows
    centered = series.values - float(np.mean(series.values))
    raw = oscillation_score(centered, min_window=10, threshold=0.05, source=series)
    print(f"raw centered prices score {raw.score:.5f}: {raw.verdict}")

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{series.name}_decomposition.csv")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(emit_decomposition(dec))
    print(f"aligned tracks written to {out}")


if __name__ == "__main__":
    main()
