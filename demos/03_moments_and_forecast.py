"""Rolling fluctuation statistics and short-horizon forecasts.

Builds the moment tracks of a decomposed series, then assembles position
forecasts (above/under/no_decision) at the last admissible origin for a
range of horizons.

    python3 demos/03_moments_and_forecast.py
"""
import numpy as np

from trendlab import (
    EstimatorSpec,
    PriceSeries,
    build_kernel_bank,
    forecast_point,
    moment_tracks,
    sliding_trend,
)


def main() -> None:
    rng = np.random.default_rng(11)
    i = np.arange(600)
    values = 50.0 + 10.0 * np.sin(2.0 * np.pi * i / 250.0) + rng.normal(0.0, 1.0, 600)
    series = PriceSeries("synthetic", values)

    slow = sliding_trend(series, build_kernel_bank(EstimatorSpec(degree=2, window=21)))
    fast = sliding_trend(series, build_kernel_bank(EstimatorSpec(degree=2, window=7)))
    track = moment_tracks(slow.fluctuation, M=100)

    print(f"moment track: {len(track)} samples, "
          f"{int(np.count_nonzero(track.defined))} with defined skew/kurt")
    print(f"  std   mean {float(np.mean(track.std)):.4f}")
    print(f"  skew  mean {float(np.mean(track.skew[track.defined])):+.4f}")
    print(f"  kurt  mean {float(np.mean(track.kurt[track.defined])):.4f} "
          f"(3 for a normal fluctuation)")

    origin = len(series) - 1
    print(f"\nforecasts from origin {origin} "
          f"(price {float(series.values[origin]):.2f}):")
    print(f"{'h':>3}  {'trend_hat':>10}  {'95% band':>22}  position")
    for h in (1, 2, 3, 5, 10, 20):
        point = forecast_point(slow, fast, track.std, origin, h)
        band = f"[{point.lo:9.3f}, {point.hi:9.3f}]"
        print(f"{h:>3}  {point.trend_hat:>10.3f}  {band:>22}  {point.position}")

    print("\nwider bands at longer horizons reflect the extrapolated "
          "fluctuation std, not model confidence in the trend path.")


if __name__ == "__main__":
    main()
