"""Price file parsing, validation, and serialization."""
import math

import numpy as np
import pytest

from conftest import write_price_csv
from trendlab.series_io import PriceSeries, date_labels, dump_prices, load_prices


class TestPriceSeries:
    def test_basic_construction(self):
        s = PriceSeries("acme", np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3
        assert s.spacing == 1.0
        assert s.values.dtype == np.float64

    def test_values_are_read_only(self):
        s = PriceSeries("acme", np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            PriceSeries("acme", np.ones((2, 2)))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            PriceSeries("acme", np.array([1.0]))

    def test_rejects_non_positive_price(self):
        with pytest.raises(ValueError, match="non-positive price"):
            PriceSeries("acme", np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="non-positive price"):
            PriceSeries("acme", np.array([1.0, -3.0]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_price(self, bad):
        with pytest.raises(ValueError, match=r"non-finite price .* at index 1"):
            PriceSeries("acme", np.array([1.0, bad, 2.0]))

    def test_rejects_non_positive_spacing(self):
        with pytest.raises(ValueError, match="spacing must be positive"):
            PriceSeries("acme", np.array([1.0, 2.0]), spacing=0.0)

    def test_date_label_falls_back_to_index(self):
        s = PriceSeries("acme", np.array([1.0, 2.0]))
        assert list(date_labels(s.dates, 1, 2)) == ["1"]
        t = PriceSeries("acme", np.array([1.0, 2.0]), dates=("2020-01-01", "2020-01-02"))
        assert list(date_labels(t.dates, 1, 2)) == ["2020-01-02"]


class TestLoadPrices:
    def test_load_simple_file(self, tmp_path):
        path = write_price_csv(tmp_path / "acme.csv", [10.0, 10.5, 11.25])
        s = load_prices(str(path))
        assert s.name == "acme"
        np.testing.assert_array_equal(s.values, [10.0, 10.5, 11.25])
        assert s.dates[0] == "2020-01-01"

    def test_custom_columns_and_delimiter(self, tmp_path):
        path = tmp_path / "alt.csv"
        path.write_text("Day;Last;Volume\n2021-03-01;5.5;100\n2021-03-02;6.5;200\n")
        s = load_prices(str(path), date_col="Day", price_col="Last", delimiter=";")
        np.testing.assert_array_equal(s.values, [5.5, 6.5])

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("Date,Open,Close\n2021-01-01,9,10\n2021-01-02,10,11\n")
        s = load_prices(str(path))
        np.testing.assert_array_equal(s.values, [10.0, 11.0])

    def test_name_override(self, tmp_path):
        path = write_price_csv(tmp_path / "raw.csv", [1.0, 2.0])
        assert load_prices(str(path), name="renamed").name == "renamed"

    def test_unparsable_date_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,10\nnot-a-date,11\n")
        with pytest.raises(ValueError, match=r"row 3: unparsable date"):
            load_prices(str(path))

    def test_unparsable_price_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,ten\n2021-01-02,11\n")
        with pytest.raises(ValueError, match=r"row 2: unparsable price"):
            load_prices(str(path))

    def test_non_positive_price_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,10\n2021-01-02,-1\n")
        with pytest.raises(ValueError, match="non-positive price"):
            load_prices(str(path))

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_price_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"Date,Close\n2021-01-01,10\n2021-01-02,{bad}\n")
        with pytest.raises(ValueError, match=r"row 3: non-finite price"):
            load_prices(str(path))

    def test_non_monotone_dates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-05,10\n2021-01-02,11\n")
        with pytest.raises(ValueError, match="non-monotone dates"):
            load_prices(str(path))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Price\n2021-01-01,10\n2021-01-02,11\n")
        with pytest.raises(ValueError, match="Close"):
            load_prices(str(path))

    def test_single_data_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,10\n")
        with pytest.raises(ValueError, match="need at least 2 data rows"):
            load_prices(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_prices(str(path))


class TestDumpPrices:
    def test_round_trip_preserves_values_and_dates(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.uniform(50.0, 150.0, 40)
        path = write_price_csv(tmp_path / "orig.csv", values)
        s = load_prices(str(path))
        out = tmp_path / "dumped.csv"
        out.write_text(dump_prices(s))
        again = load_prices(str(out), name=s.name)
        np.testing.assert_array_equal(again.values, s.values)
        assert again.dates == s.dates
