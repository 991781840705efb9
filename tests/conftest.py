"""Shared helpers: synthetic series construction, price-file writing and
child processes."""
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import trendlab
from trendlab.series_io import PriceSeries


def synthetic_sinusoid(n: int = 1500, seed: int = 7) -> PriceSeries:
    """Sinusoidal trend (period 250, amplitude 10) plus unit white noise."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    values = 50.0 + 10.0 * np.sin(2.0 * np.pi * i / 250.0) + rng.normal(0.0, 1.0, n)
    return PriceSeries("synthetic", values)


def write_price_csv(path, values, price_col="Close", date_col="Date", delimiter=","):
    """Write sequential daily dates and full-precision prices; returns path."""
    d0 = date(2020, 1, 1)
    lines = [f"{date_col}{delimiter}{price_col}"]
    for k, v in enumerate(values):
        day = (d0 + timedelta(days=k)).isoformat()
        lines.append(f"{day}{delimiter}{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_python(*args, env=None, cwd=None):
    """Run python with args in a child process that imports this trendlab,
    RuntimeWarning an error there, under env (default: this process's);
    assert it exits 0 and return its stdout."""
    env = os.environ if env is None else env
    package_root = str(Path(trendlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env={**env, "PYTHONPATH": path}, cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture
def sinusoid_series() -> PriceSeries:
    return synthetic_sinusoid()
