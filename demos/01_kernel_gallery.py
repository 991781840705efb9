"""Gallery of finite-window estimator kernels.

Builds banks for a few (degree, window) pairs, prints their weights and
noise gains, and shows the closed-form three-sample case. Run from the
repository root:

    python3 demos/01_kernel_gallery.py

The default bank's weights are written to demos/out/kernel_weights.csv.
"""
import os

import numpy as np

from trendlab import EstimatorSpec, build_kernel_bank, emit_weights, kernel_noise_gain


def show_bank(spec: EstimatorSpec) -> None:
    bank = build_kernel_bank(spec)
    print(f"\ndegree {spec.degree}, window {spec.window}, smoothing {spec.smoothing}")
    for order, weights in enumerate(bank.weights):
        gain = kernel_noise_gain(bank, order)
        head = np.array2string(weights[:4], precision=4, separator=", ")
        tail = np.array2string(weights[-2:], precision=4, separator=", ")
        print(f"  order {order}: weights {head} .. {tail}  noise gain {gain:.4f}")


def main() -> None:
    print("three-sample linear bank (exact rational weights):")
    bank = build_kernel_bank(EstimatorSpec(degree=1, window=3))
    print("  value weights:", np.round(bank.weights[0], 12), "(thirds and sixths)")
    print("  slope weights:", np.round(bank.weights[1], 12), "(central difference)")

    for spec in (
        EstimatorSpec(degree=0, window=5),
        EstimatorSpec(degree=2, window=11),
        EstimatorSpec(degree=2, window=21),
        EstimatorSpec(degree=2, window=21, smoothing=2),
    ):
        show_bank(spec)

    print("\nlonger windows trade lag for noise suppression:")
    for window in (5, 11, 21, 41, 81):
        bank = build_kernel_bank(EstimatorSpec(degree=2, window=window))
        print(f"  window {window:3d}: value-estimate noise gain "
              f"{kernel_noise_gain(bank, 0):.4f}")

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "kernel_weights.csv")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(emit_weights(build_kernel_bank(EstimatorSpec())))
    print(f"\ndefault bank written to {out}")


if __name__ == "__main__":
    main()
