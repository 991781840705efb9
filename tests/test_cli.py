"""Command-line entry points: outputs, exit codes, and atomicity."""
import contextlib
import errno
import io
import os
import platform
import stat
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python, write_price_csv
from trendlab import cli
from trendlab import forecast as fc
from trendlab.backtest import BacktestConfig, forecast_setup
from trendlab.cli import build_parser, main
from trendlab.forecast import forecast_point
from trendlab.series_io import date_labels, emit_table, load_prices


def never_called(*args, **kwargs):
    raise AssertionError("ran before the flags were checked")


def read_kv(path):
    return dict(
        line.split("=", 1)
        for line in path.read_text().strip().splitlines()
        if "=" in line
    )


@pytest.fixture
def noisy_csv(tmp_path):
    rng = np.random.default_rng(19)
    i = np.arange(300)
    values = 60.0 + 5.0 * np.sin(2.0 * np.pi * i / 125.0) + rng.normal(0.0, 0.5, 300)
    return write_price_csv(tmp_path / "prices.csv", values)


class TestDecompose:
    def test_outputs_written(self, noisy_csv, tmp_path, capsys):
        rc = main([
            "decompose", "--input", str(noisy_csv), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        csv_path = tmp_path / "prices_decomposition.csv"
        kv_path = tmp_path / "prices_oscillation.kv"
        assert csv_path.exists() and kv_path.exists()
        out = capsys.readouterr().out
        assert str(csv_path) in out and str(kv_path) in out

    def test_rows_reconstruct_price(self, noisy_csv, tmp_path):
        main(["decompose", "--input", str(noisy_csv), "--out-dir", str(tmp_path)])
        lines = (tmp_path / "prices_decomposition.csv").read_text().strip().splitlines()
        assert lines[0] == "index,date,price,trend,d1,d2,fluctuation"
        assert len(lines) == 1 + 300 - 20
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) + float(parts[6]) == pytest.approx(
                float(parts[2]), abs=1e-9
            )

    def test_constant_prices_have_zero_fluctuation(self, tmp_path):
        path = write_price_csv(tmp_path / "flat.csv", np.full(60, 5.0))
        main(["decompose", "--input", str(path), "--out-dir", str(tmp_path)])
        lines = (tmp_path / "flat_decomposition.csv").read_text().strip().splitlines()
        fluct = np.array([float(line.split(",")[6]) for line in lines[1:]])
        assert np.max(np.abs(fluct)) <= 1e-9

    def test_oscillation_kv_fields(self, noisy_csv, tmp_path):
        main(["decompose", "--input", str(noisy_csv), "--out-dir", str(tmp_path)])
        kv = read_kv(tmp_path / "prices_oscillation.kv")
        assert kv["series"] == "prices"
        assert int(kv["samples"]) == 300
        assert float(kv["score"]) >= 0.0
        assert kv["verdict"] in ("quickly_fluctuating", "not_quickly_fluctuating")

    def test_window_flag_changes_alignment(self, noisy_csv, tmp_path):
        main([
            "decompose", "--input", str(noisy_csv), "--window", "11",
            "--out-dir", str(tmp_path),
        ])
        lines = (tmp_path / "prices_decomposition.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 300 - 10
        assert lines[1].split(",")[0] == "10"

    @pytest.mark.parametrize("value, message", [
        ("inf", "threshold must be finite, got inf"),
        ("nan", "threshold must be >= 0, got nan"),
        ("-1", "threshold must be >= 0, got -1.0"),
    ])
    def test_invalid_threshold_exits_2(self, noisy_csv, tmp_path, capsys, monkeypatch, value,
                                       message):
        # checked before the bank is built and slid
        monkeypatch.setattr("trendlab.cli.build_kernel_bank", never_called)
        monkeypatch.setattr("trendlab.cli.sliding_trend", never_called)
        rc = main(["decompose", "--input", str(noisy_csv), "--oscillation-threshold", value,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.glob("prices_*")) == []

    @pytest.mark.parametrize("smoothing", ["100", "1100"])
    def test_large_smoothing_exits_0_with_finite_output(self, noisy_csv, tmp_path, smoothing):
        # the expanded densities once cancelled at 100, putting |fluctuation|
        # near 3.7e16 on prices near 60, and overflowed float() at 1100
        rc = main(["decompose", "--input", str(noisy_csv), "--smoothing", smoothing,
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "prices_decomposition.csv").read_text().strip().splitlines()[1:]
        cells = np.array([[float(c) for c in row.split(",")[2:]] for row in rows])
        assert len(rows) == 280 and np.isfinite(cells).all()
        # order-0 noise gains 12.3 and 133 on noise of std 0.5, not 3.7e16
        assert np.abs(cells[:, 0] - cells[:, 1]).max() < 1e3

    def test_smoothing_past_the_float_range_exits_2(self, noisy_csv, tmp_path, capsys):
        smoothing = str(10**200)
        rc = main(["decompose", "--input", str(noisy_csv), "--smoothing", smoothing,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: densities too inaccurate in floating point for degree 2, "
                       f"smoothing {smoothing} (Horner error bound above 0.0001)\n")
        assert list(tmp_path.glob("prices_*")) == []

    def test_window_checked_against_the_file_before_the_build(self, noisy_csv, tmp_path, capsys,
                                                               monkeypatch):
        # a bank of 2,000,000 weights once took 1.3 s and 305 MB to build
        # before this message
        monkeypatch.setattr("trendlab.cli.build_kernel_bank", never_called)
        rc = main(["decompose", "--input", str(noisy_csv), "--window", "2000000",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: series has 300 samples, window needs 2000000\n"
        assert list(tmp_path.glob("prices_*")) == []


class TestMoments:
    def test_moments_csv(self, noisy_csv, tmp_path):
        rc = main(["moments", "--input", str(noisy_csv), "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "prices_moments.csv").read_text().strip().splitlines()
        assert lines[0] == "index,date,std,skew,kurt"
        # 300 samples - slow warm-up 20 - moment warm-up 100
        assert len(lines) == 1 + 180
        first = lines[1].split(",")
        assert first[0] == "120"
        assert first[1] == "2020-04-30"
        assert float(first[2]) > 0.0

    @pytest.mark.parametrize("m", [280, 500])
    def test_too_short_for_the_moment_window_names_the_file_length(self, m, noisy_csv, tmp_path, capsys):
        # 21 - 1 samples of trend warm-up and M + 1 for the first window;
        # the fluctuation has 300 - 20 = 280 samples, not the file's 300
        rc = main(["moments", "--input", str(noisy_csv), "--moment-window", str(m), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: series too short: need at least {21 + m} samples, got 300\n"
        assert list(tmp_path.glob("prices_*")) == []

    @pytest.mark.parametrize("window, m", [("2000000", "100"), ("21", "2000000")])
    def test_lengths_checked_before_the_build(self, window, m, noisy_csv, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("trendlab.cli.build_kernel_bank", never_called)
        rc = main(["moments", "--input", str(noisy_csv), "--window", window, "--moment-window", m,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        need = int(window) + int(m)
        assert capsys.readouterr().err == f"error: series too short: need at least {need} samples, got 300\n"
        assert list(tmp_path.glob("prices_*")) == []

    def test_longest_moment_window_leaves_one_row(self, noisy_csv, tmp_path):
        rc = main(["moments", "--input", str(noisy_csv), "--moment-window", "279", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len((tmp_path / "prices_moments.csv").read_text().splitlines()) == 2


class TestForecast:
    def test_forecast_csv(self, noisy_csv, tmp_path):
        rc = main(["forecast", "--input", str(noisy_csv), "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "prices_forecast.csv").read_text().strip().splitlines()
        assert lines[0] == "date,horizon,trend_hat,lo,hi,position"
        assert len(lines) == 1 + 2 * (300 - 140)
        for line in lines[1:]:
            _, h, trend_hat, lo, hi, position = line.split(",")
            assert h in ("1", "5")
            assert float(lo) <= float(trend_hat) <= float(hi)
            assert position in ("above", "under", "no_decision")

    def test_horizons_flag(self, noisy_csv, tmp_path):
        main([
            "forecast", "--input", str(noisy_csv), "--horizons", "2",
            "--out-dir", str(tmp_path),
        ])
        lines = (tmp_path / "prices_forecast.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + (300 - 140)
        assert all(line.split(",")[1] == "2" for line in lines[1:])

    def test_first_origin_rows_rejected_and_one_more_runs(self, tmp_path, capsys):
        # the default windows put the first origin at 2 * 20 + 100 = 140
        values = 50.0 + np.sin(np.arange(141.0))
        short = write_price_csv(tmp_path / "short.csv", values[:140])
        assert main(["forecast", "--input", str(short), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: series too short: need at least 141 samples, got 140\n"
        path = write_price_csv(tmp_path / "one.csv", values)
        assert main(["forecast", "--input", str(path), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "one_forecast.csv").read_text().strip().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["2020-05-20", "1"], ["2020-05-20", "5"]]


def per_horizon_forecast(args):
    """The forecast table the per-horizon way: one forecast_point call per
    horizon at the same origins, each field joined across horizons by
    np.concatenate, then emit_table. The oracle for _cmd_forecast."""
    config = cli._config(args)
    series = load_prices(args.input, date_col=args.date_col, price_col=args.price_col)
    slow, fast, std, start = forecast_setup(series, config)
    n = len(series)
    origins = np.arange(start, n)
    points = [
        forecast_point(slow, fast, std, origins, h, level=config.level, deadband_mult=config.deadband_rule)
        for h in config.horizons
    ]
    text = emit_table(
        ("date", "horizon", "trend_hat", "lo", "hi", "position"),
        (date_labels(series.dates, start, n) * len(points),
         np.repeat(config.horizons, len(origins)),
         *(np.concatenate([getattr(p, name) for p in points])
           for name in ("trend_hat", "lo", "hi", "position"))),
    )
    return {f"{series.name}_forecast.csv": text}


def random_walk_csv(path, n, seed):
    rng = np.random.default_rng(seed)
    return write_price_csv(path, 40.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n))))


class TestOneForecastPass:
    """trendlab forecast makes one forecast_point call for every horizon."""

    @pytest.mark.parametrize("flags", [
        [],
        ["--horizons", "20,1,7"],
        ["--degree", "0", "--window", "5", "--fast-window", "3"],
        ["--fast-window", "200"],
    ], ids=["defaults", "unsorted horizons", "degree 0", "wide fast window"])
    def test_table_equals_the_per_horizon_oracle(self, flags, tmp_path):
        path = random_walk_csv(tmp_path / "walk.csv", 3000, 31)
        argv = ["forecast", "--input", str(path), *flags, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        want = per_horizon_forecast(build_parser().parse_args(argv))["walk_forecast.csv"]
        assert (tmp_path / "walk_forecast.csv").read_bytes() == want.encode()

    def test_one_call_and_one_std_slide_for_four_horizons(self, noisy_csv, tmp_path, monkeypatch):
        # one call and one slide of the std track, whatever the number of horizons
        calls, slid, slides = [], [], fc._slides

        def counted_point(*args, **kwargs):
            calls.append(args)
            return forecast_point(*args, **kwargs)

        def counted_slides(bank, seq, pos):
            slid.append(len(seq))
            return slides(bank, seq, pos)

        monkeypatch.setattr(cli, "forecast_point", counted_point)
        monkeypatch.setattr(fc, "_slides", counted_slides)
        argv = ["forecast", "--input", str(noisy_csv), "--horizons", "1,5,10,20", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        std = forecast_setup(load_prices(str(noisy_csv)), BacktestConfig())[2]
        assert len(calls) == 1 and slid == [len(std)]

    def test_peak_below_the_per_horizon_oracle(self, tmp_path):
        # the oracle holds every horizon's arrays and their concatenated
        # copies at once; the bound was fixed before the first run
        path = random_walk_csv(tmp_path / "walk.csv", 20_000, 32)
        args = build_parser().parse_args(["forecast", "--input", str(path), "--horizons", "1,5"])

        def peak(run):
            run(args)  # caches stay out of the peak
            tracemalloc.start()
            try:
                run(args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(cli._cmd_forecast) <= 0.9 * peak(per_horizon_forecast)


class TestBacktest:
    def test_reports_written(self, noisy_csv, tmp_path):
        rc = main(["backtest", "--input", str(noisy_csv), "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "prices_backtest.txt").read_text()
        assert "exact%" in text
        kv = read_kv(tmp_path / "prices_backtest.kv")
        total = (
            float(kv["h1.exact_pct"])
            + float(kv["h1.nodecision_pct"])
            + float(kv["h1.wrong_pct"])
        )
        assert total == pytest.approx(100.0, abs=1e-9)
        assert int(kv["slow_window"]) == 21

    def test_too_short_series_fails_cleanly(self, tmp_path, capsys):
        path = write_price_csv(tmp_path / "short.csv", np.full(50, 5.0) + np.arange(50))
        rc = main(["backtest", "--input", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "series too short" in err
        assert not (tmp_path / "short_backtest.txt").exists()
        assert not (tmp_path / "short_backtest.kv").exists()


class TestForecastAndBacktestShareTheConfigChecks:
    @pytest.mark.parametrize("sub", ["forecast", "backtest"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--horizons", "0"], "horizons must be integers >= 1, got (0,)"),
            (["--horizons=-1"], "horizons must be integers >= 1, got (-1,)"),
            (["--horizons", "1,1"], "horizons must be distinct, got (1, 1)"),
            (["--deadband-mult", "-1"], "deadband_rule must be >= 0, got -1.0"),
            (["--deadband-mult", "nan"], "deadband_rule must be >= 0, got nan"),
            (["--deadband-mult", "inf"], "deadband_rule must be finite, got inf"),
            (["--level", "1.5"], "level must be inside (0, 1), got 1.5"),
            (["--moment-window", "0"], "M must be an integer >= 1, got 0"),
        ],
    )
    def test_invalid_flags_exit_2_with_one_message(self, sub, flags, message, noisy_csv, tmp_path, capsys):
        rc = main([sub, "--input", str(noisy_csv), *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.glob("prices_*")) == []

    @pytest.mark.parametrize("sub, need", [("forecast", 2 * 20 + 400 + 1), ("backtest", 2 * 20 + 400 + 5 + 1)])
    def test_too_short_for_the_moment_window(self, sub, need, noisy_csv, tmp_path, capsys):
        rc = main([sub, "--input", str(noisy_csv), "--moment-window", "400", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: series too short: need at least {need} samples, got 300\n"


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--window", "1"], "underdetermined: window must exceed degree + 1, got window=1 for degree 2"),
    (["decompose", "--oscillation-min-window", "0"], "min_window must be >= 1, got 0"),
    (["moments", "--window", "1"], "underdetermined: window must exceed degree + 1, got window=1 for degree 2"),
    (["moments", "--moment-window", "0"], "M must be an integer >= 1, got 0"),
    (["forecast", "--level", "1.5"], "level must be inside (0, 1), got 1.5"),
    (["forecast", "--moment-window", "0"], "M must be an integer >= 1, got 0"),
    (["backtest", "--horizons", "1,1"], "horizons must be distinct, got (1, 1)"),
])
def test_flags_checked_before_the_price_file_is_read(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("trendlab.cli.load_prices", never_called)
    rc = main([*argv, "--input", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


class TestWideFastWindow:
    def test_forecast_and_backtest_share_the_first_origin(self, tmp_path):
        rng = np.random.default_rng(23)
        values = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 400)))
        path = write_price_csv(tmp_path / "wide.csv", values)
        flags = ["--input", str(path), "--fast-window", "200", "--out-dir", str(tmp_path)]
        assert main(["forecast", *flags]) == 0
        assert main(["backtest", *flags]) == 0
        # the fast window pushes the first origin from 2*20 + 100 = 140 to 199
        rows = (tmp_path / "wide_forecast.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2 * (400 - 199)
        assert rows[0].startswith("2020-07-18,1,")  # 2020-01-01 + 199 days
        kv = read_kv(tmp_path / "wide_backtest.kv")
        for h in (1, 5):
            assert kv[f"h{h}.skipped"] == "59"
            assert kv[f"h{h}.origins"] == str(400 - h - 199)


class TestGbm:
    def test_stats_kv(self, tmp_path):
        rc = main([
            "gbm", "--steps", "200", "--paths", "400", "--seed", "5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        kv = read_kv(tmp_path / "gbm_stats.kv")
        assert float(kv["mu"]) == 0.05
        assert float(kv["sigma"]) == 0.2
        assert int(kv["paths"]) == 400
        assert int(kv["seed"]) == 5
        assert 0.0 <= float(kv["p_hat"]) <= 1.0
        assert kv["generator"] == "pcg64-inverse-transform-ndtri"
        assert kv["verdict"] in ("quickly_fluctuating", "not_quickly_fluctuating")

    def test_zero_volatility_verdict(self, tmp_path):
        main([
            "gbm", "--sigma", "0", "--steps", "100", "--paths", "50",
            "--out-dir", str(tmp_path),
        ])
        kv = read_kv(tmp_path / "gbm_stats.kv")
        assert float(kv["p_hat"]) == 0.0
        assert kv["verdict"] == "quickly_fluctuating"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma", "nan"], "sigma must be >= 0 and finite, got nan"),
            (["--mu", "nan"], "mu must be finite, got nan"),
            (["--s0", "inf"], "s0 must be positive and finite, got inf"),
            (["--t-end", "inf"], "t_end must be positive and finite, got inf"),
            (["--oscillation-threshold", "nan"], "threshold must be >= 0, got nan"),
            (["--oscillation-threshold", "inf"], "threshold must be finite, got inf"),
            (["--epsilon", "inf"], "epsilon must be finite, got inf"),
            (["--epsilon", "nan"], "epsilon must be positive, got nan"),
            (["--sigma", "1e200"], "per-step log drift (mu - sigma**2 / 2) * dt and scale "
             "sigma * sqrt(dt) must be finite, got mu=0.05, sigma=1e+200, dt=0.1"),
            (["--mu", "1e300"], "mean trend s0 * exp(mu * t_end) must be finite, got "
             "mu=1e+300, s0=1.0, t_end=1.0"),
            (["--s0", "1e308", "--mu", "0", "--sigma", "0.5"],
             "prices overflow a double, got s0=1e+308, mu=0.0, sigma=0.5"),
            (["--seed", "-1"], "seed must be None or an integer >= 0, got -1"),
        ],
    )
    def test_invalid_parameters_exit_2(self, flags, message, tmp_path, capsys):
        rc = main(["gbm", "--steps", "10", "--paths", "10", *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_steps_too_many_to_allocate_exit_2(self, tmp_path, capsys):
        # the grid of 10^15 + 1 times alone would take 7 PiB: numpy refuses
        # it at once, before any normal is drawn
        rc = main(["gbm", "--steps", "1000000000000000", "--paths", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, message", [
        ("inf", "threshold must be finite, got inf"),
        ("nan", "threshold must be >= 0, got nan"),
        ("-1", "threshold must be >= 0, got -1.0"),
    ])
    def test_invalid_threshold_exits_2_before_the_ensemble(self, value, message, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.setattr("trendlab.cli.oscillation_probability", never_called)
        rc = main(["gbm", "--oscillation-threshold", value, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o027, 0o640)])
def test_outputs_get_the_mode_open_gives_under_the_umask(noisy_csv, tmp_path, monkeypatch, umask,
                                                         mode):
    def no_umask(mask):  # it is process-wide: a writer that flips it races every other thread
        raise AssertionError("os.umask called")

    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        for cmd in ("decompose", "moments", "forecast", "backtest"):
            assert main([cmd, "--input", str(noisy_csv), "--out-dir", str(out)]) == 0
        assert main(["gbm", "--steps", "10", "--paths", "10", "--out-dir", str(out)]) == 0
    finally:
        monkeypatch.undo()
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert len(modes) == 7
    assert set(modes.values()) == {mode}, modes


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


class TestImportPath:
    def test_series_subcommands_never_load_scipy(self, noisy_csv, tmp_path):
        # importing scipy.special takes longer than processing a small
        # series; only the GBM draw may load it. numpy.ma, numpy.polynomial
        # and concurrent.futures cost start-up that no series subcommand
        # needs either
        script = textwrap.dedent("""
            import sys
            import trendlab, trendlab.cli
            src, out = sys.argv[1:]
            for cmd in ("decompose", "moments", "forecast", "backtest"):
                assert trendlab.cli.main([cmd, "--input", src, "--out-dir", out]) == 0
            assert "scipy" not in sys.modules
            assert "numpy.ma" not in sys.modules
            assert "numpy.polynomial" not in sys.modules
            assert "concurrent.futures" not in sys.modules
            # the kernel densities are integers, no longer exact rationals
            assert "fractions" not in sys.modules
            assert "decimal" not in sys.modules
            argv = ["gbm", "--steps", "20", "--paths", "30", "--out-dir", out]
            assert trendlab.cli.main(argv) == 0
        """)
        run_python("-c", script, str(noisy_csv), str(tmp_path))
        assert (tmp_path / "gbm_stats.kv").exists()


def _same_files(a, b):
    """The relative names of the files under a, which must be those under b
    with the same bytes."""
    names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


def _run_every_subcommand(src, out, env):
    """Run the five subcommands on src in one child process with env, and
    decompose and backtest again at --smoothing 5 into out/smoothing-5."""
    script = textwrap.dedent("""
        import sys
        import trendlab.cli
        src, out = sys.argv[1:]
        for cmd in ("decompose", "moments", "forecast", "backtest"):
            assert trendlab.cli.main([cmd, "--input", src, "--out-dir", out]) == 0
        assert trendlab.cli.main(["gbm", "--out-dir", out]) == 0
        for cmd in ("decompose", "backtest"):
            argv = [cmd, "--input", src, "--smoothing", "5", "--out-dir", out + "/smoothing-5"]
            assert trendlab.cli.main(argv) == 0
    """)
    run_python("-c", script, str(src), str(out), env=env)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86 ones")
def test_outputs_do_not_depend_on_the_numpy_dispatch_level(tmp_path):
    # NPY_DISABLE_CPU_FEATURES keeps numpy off its AVX-512 loops (on a host
    # without AVX-512 it changes nothing). moment_tracks forms its powers by
    # multiplication, not numpy's pow, whose last bits on negative bases
    # depend on the level, and so do the kernel weights (1-u)^(kappa-1),
    # which --smoothing 5 makes real products; every file matches byte for
    # byte.
    i = np.arange(2000)
    src = write_price_csv(tmp_path / "prices.csv", 100 + 5 * np.sin(i / 40) + i * 7919 % 101 / 50)
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    native, levelled = tmp_path / "native", tmp_path / "no-avx512"
    _run_every_subcommand(src, native, env)
    _run_every_subcommand(src, levelled, {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    assert len(_same_files(native, levelled)) == 11


def test_series_subcommands_call_no_numpy_linalg(noisy_csv, tmp_path):
    # LAPACK and BLAS pick their kernels by CPU, and their code pages add to
    # the resident set of every run; a child whose numpy.linalg functions
    # all raise must write the bytes an unpatched child writes
    script = textwrap.dedent("""
        import sys
        import numpy.linalg
        import trendlab.cli
        src, out, patch = sys.argv[1:]

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"numpy.linalg.{name} called")
            return call

        refused = []
        for name in dir(numpy.linalg) if patch else ():
            obj = getattr(numpy.linalg, name)
            # the exception class stays, so an except clause naming it still works
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type):
                setattr(numpy.linalg, name, refuse(name))
                refused.append(name)
        assert not patch or {"qr", "solve", "cond", "norm"} <= set(refused), refused
        for cmd in ("decompose", "moments", "forecast", "backtest"):
            assert trendlab.cli.main([cmd, "--input", src, "--out-dir", out]) == 0
    """)
    refused, plain = tmp_path / "refused", tmp_path / "plain"
    run_python("-c", script, str(noisy_csv), str(refused), "patch")
    run_python("-c", script, str(noisy_csv), str(plain), "")
    assert len(_same_files(refused, plain)) == 6


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="the affinity mask holds one CPU, so there is no other split")
def test_gbm_bytes_on_one_cpu_equal_those_on_all(tmp_path):
    # the one-CPU child takes _cpu_count from its restricted mask and draws
    # on the caller's thread alone; at 3001 x 2000 the CLI streams each span
    # through several blocks plus a tail, with other block boundaries on
    # one CPU than on all, and simulate_paths, which no subcommand calls,
    # materialises the ensemble through its stage groups. Each hashed
    # ensemble splits into two spans or more on all CPUs: 40000 x 7 takes
    # 2 spans of at least ceil(2^17 / 7) = 18,725 rows, 20000 x 7 took one
    script = textwrap.dedent("""
        import hashlib, os, sys
        import trendlab._spans, trendlab.cli
        from trendlab.gbm import GbmParams, _split, simulate_paths
        out, cpu = sys.argv[1:]
        if cpu:
            os.sched_setaffinity(0, {int(cpu)})
            assert trendlab._spans._cpu_count() == 1
        for name, flags in (("default", []), ("3001x250", ["--paths", "3001", "--steps", "250"]),
                            ("3001x2000", ["--paths", "3001", "--steps", "2000"])):
            assert trendlab.cli.main(["gbm", *flags, "--out-dir", os.path.join(out, name)]) == 0
        with open(os.path.join(out, "simulate_paths.sha256"), "w") as handle:
            for paths, steps in ((3001, 2000), (40000, 7)):
                params = GbmParams(mu=0.05, sigma=0.2, steps=steps, paths=paths, seed=0)
                assert cpu or len(_split(params)) >= 2, (paths, steps)
                ensemble = simulate_paths(params)
                handle.write(f"{paths} {steps} {hashlib.sha256(ensemble.tobytes()).hexdigest()}\\n")
    """)
    one, every = tmp_path / "one-cpu", tmp_path / "all-cpus"
    run_python("-c", script, str(one), str(min(os.sched_getaffinity(0))))
    run_python("-c", script, str(every), "")
    assert len(_same_files(one, every)) == 4


class TestErrorHandling:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main([
            "decompose", "--input", str(tmp_path / "nope.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_price_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,10\n2021-01-02,-3\n")
        rc = main(["decompose", "--input", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "non-positive price" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, message", [
        ('"' + "1" * 140_000 + '"', "line 3: field larger than field limit"),
        ("1\x002", "line 3: line contains NUL"),
    ])
    def test_malformed_line_exits_2_naming_it(self, tmp_path, capsys, cell, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"Date,Close\n2021-01-01,10\n2021-01-02,{cell}\n")
        rc = main(["moments", "--input", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} {message}") and "Traceback" not in err
        assert list(tmp_path.glob("bad_*")) == []

    def test_failed_rename_exits_2_and_leaves_no_temp_file(self, noisy_csv, tmp_path, capsys,
                                                            monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot rename onto {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        rc = main(["decompose", "--input", str(noisy_csv), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error: cannot rename onto" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_write_exits_2_and_leaves_no_new_file(self, noisy_csv, tmp_path, capsys,
                                                          monkeypatch):
        opened = []

        def staging_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            opened.append(path)
            if len(opened) == 2:  # the second output file: the disk is full
                def write(text):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                handle.write = write
            return handle

        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("an earlier file\n")
        monkeypatch.setattr("trendlab.cli.open", staging_open, raising=False)
        rc = main(["decompose", "--input", str(noisy_csv), "--out-dir", str(out)])
        assert rc == 2
        assert len(opened) == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["keep.txt"]

    def test_taken_temp_name_exits_2_and_keeps_that_file(self, noisy_csv, tmp_path, capsys,
                                                         monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        taken = out / (".tmp-" + "ab" * 8)
        taken.write_text("not this run's\n")
        monkeypatch.setattr(os, "urandom", lambda n: b"\xab" * n)
        rc = main(["decompose", "--input", str(noisy_csv), "--out-dir", str(out)])
        assert rc == 2
        assert os.strerror(errno.EEXIST) in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == [taken.name]
        assert taken.read_text() == "not this run's\n"

    def test_horizons_that_are_not_integers_exit_2(self, noisy_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--input", str(noisy_csv), "--horizons", "1,x", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "horizons must be comma-separated integers, got '1,x'" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_invalid_spec_flag_combination(self, noisy_csv, tmp_path, capsys):
        rc = main([
            "decompose", "--input", str(noisy_csv), "--window", "3",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "underdetermined" in capsys.readouterr().err


_ROWS = 700  # n of the flag property's price file
_FLOATS = ["0", "-1", "nan", "inf", "-inf"]
_COUNTS = ["0", "-1"]


@pytest.fixture(scope="module")
def rows_csv(tmp_path_factory):
    rng = np.random.default_rng(29)
    values = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, _ROWS)))
    return write_price_csv(tmp_path_factory.mktemp("flags") / "prices.csv", values)


@st.composite
def cli_flags(draw):
    """A subcommand and its flags, each value drawn from a small grid of
    edge values or left at its default. paths x steps stays at most 10^5,
    but for one run of 10^15 steps that can never be allocated."""
    sub = draw(st.sampled_from(["decompose", "moments", "forecast", "backtest", "gbm"]))
    argv = [sub]

    def flag(name, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv.append(f"--{name}={value}")

    if sub == "gbm":
        paths, steps = draw(st.sampled_from([
            (10, 10), (1, 1), (100, 1000), (0, 10), (-1, 10), (10, 0), (10, -1), (1, 10**15),
        ]))
        argv += [f"--paths={paths}", f"--steps={steps}"]
        for name in ("mu", "sigma", "s0", "t-end", "epsilon", "oscillation-threshold"):
            flag(name, _FLOATS)
        flag("seed", _COUNTS)
        return argv
    # windows at N + 1, N + 2, n and n + 1 for the degree N drawn (2 by
    # default), and a degree whose rejection once took seconds
    kernels = [(degree, window) for degree in (None, 0, -1)
               for window in (None, *_COUNTS, *((degree or 2) + k for k in (1, 2)), _ROWS, _ROWS + 1)]
    degree, window = draw(st.sampled_from([*kernels, (300, 400)]))
    argv += [f"--{name}={value}" for name, value in (("degree", degree), ("window", window))
             if value is not None]
    flag("smoothing", [*_COUNTS, 3, 100, 10**200])
    if sub == "decompose":
        flag("oscillation-min-window", [*_COUNTS, _ROWS, _ROWS + 1])
        flag("oscillation-threshold", _FLOATS)
    else:
        flag("moment-window", [*_COUNTS, _ROWS, _ROWS + 1])
    if sub in ("forecast", "backtest"):
        flag("fast-window", [*_COUNTS, 3, 4, _ROWS, _ROWS + 1])
        flag("horizons", ["1,1", "5,1,5", *_COUNTS, _ROWS])
        flag("level", [*_FLOATS, "1"])
        flag("deadband-mult", _FLOATS)
    return argv


@settings(max_examples=60)
@given(flags=cli_flags())
@example(flags=["gbm", "--paths=1", f"--steps={10**15}"])
@example(flags=["decompose", "--degree=300", "--window=400"])
def test_any_drawn_flags_exit_0_or_2_with_one_error_line(rows_csv, flags):
    argv = [flags[0]] + ([] if flags[0] == "gbm" else ["--input", str(rows_csv)]) + flags[1:]
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, "--out-dir", out])
        assert rc in (0, 2)
        if rc == 2:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, text
            assert os.listdir(out) == []


class TestDeterminism:
    def test_decompose_runs_are_byte_identical(self, noisy_csv, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            main(["decompose", "--input", str(noisy_csv), "--out-dir", str(out)])
        for name in ("prices_decomposition.csv", "prices_oscillation.kv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
