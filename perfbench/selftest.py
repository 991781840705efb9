"""The benchmark's own tests: smoke runs at a tiny size and checker tests.

Kept out of the library's test suite on purpose (the file name does not
match pytest's default pattern); run them with

    python -m pytest -q perfbench/selftest.py

They make no timing asserts.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import trendlab  # noqa: E402
import trendlab.cli  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Workload metrics of the report line, beyond the end-to-end ones.
REPORT_METRICS = {
    "daily_batch": {"series_per_s": "1/s", "series_p50_ms": "ms", "series_tail_ms": "ms",
                    "decompose_ms": "ms", "moments_ms": "ms", "forecast_ms": "ms",
                    "backtest_ms": "ms", "origins_per_s": "1/s", "failed_frac": "ratio"},
    "long_history": {"series_per_s": "1/s", "origins_per_s": "1/s", "failed_frac": "ratio"},
    "gbm_lab": {"path_steps_per_s": "1/s", "failed_frac": "ratio"},
}


def _run(workload: str, trace: int, capsys) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    report, result = _run(workload, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert report["traced_rounds"] >= 1
        assert (ROOT / report["spans_file"]).is_file()
    else:
        for name, unit in REPORT_METRICS[workload].items():
            assert report["metrics"][name]["unit"] == unit
        assert report["seed"] == 5
        assert {"python", "numpy", "scipy", "nproc", "cpu_model", "blas_threads"} <= set(
            report["environment"])


def test_tracer_restores_every_name():
    originals = (trendlab.load_prices, trendlab.cli.main, trendlab.KernelBank.estimate,
                 trendlab.cli.forecast_point, trendlab.backtest.sliding_trend)
    tracer = tracing.Tracer()
    tracer.install()
    assert trendlab.cli.load_prices is not originals[0]
    assert trendlab.series_io.load_prices is trendlab.cli.load_prices
    tracer.uninstall()
    assert (trendlab.load_prices, trendlab.cli.main, trendlab.KernelBank.estimate,
            trendlab.cli.forecast_point, trendlab.backtest.sliding_trend) == originals


def test_corrupted_backtest_report_counts_as_failure(tmp_path, monkeypatch):
    emit = trendlab.cli.emit_report

    def corrupted(report, format="text"):
        text = emit(report, format)
        if format != "structured":
            return text
        wrong = float(checks.parse_kv(text)["h1.wrong_pct"])
        return text.replace(f"h1.wrong_pct={wrong!r}", f"h1.wrong_pct={wrong + 1.0!r}")

    workload = workloads.DailyBatch(5, "tiny", str(tmp_path), None)
    monkeypatch.setattr(trendlab.cli, "emit_report", corrupted)
    result = run.run_round(workload, None)
    assert result["failed"] == result["attempted"] == len(workload.ops())
    assert any("not 100" in f for f in result["failures"])


def test_checker_flags_percentages_not_summing_to_100():
    good = {1: {"exact_pct": 50.0, "nodecision_pct": 10.0, "wrong_pct": 40.0,
                "coverage": 0.9, "origins": 400, "skipped": 0}}
    assert checks.check_backtest(good, n=541, t_min=140) == []
    bad = {1: {**good[1], "wrong_pct": 40.5}}
    assert any("not 100" in e for e in checks.check_backtest(bad, n=541, t_min=140))
    assert checks.check_backtest(good, n=542, t_min=140)  # origins off by one


def test_reference_tolerances():
    want = {"origins": 200, "exact_pct": 50.0, "rmse": 2.0, "skipped": 0, "verdict": "x"}
    assert checks.compare(dict(want), want) == []
    assert checks.compare({**want, "exact_pct": 50.0 + 100 / 200}, want) == []  # one origin
    assert checks.compare({**want, "exact_pct": 50.0 + 2 * 100 / 200}, want)
    assert checks.compare({**want, "rmse": 2.0 * (1 + 1e-12)}, want) == []
    assert checks.compare({**want, "rmse": 2.0 * (1 + 1e-6)}, want)
    assert checks.compare({**want, "skipped": 1}, want)
    assert checks.compare({**want, "verdict": "y"}, want)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gbm_lab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout == ""
