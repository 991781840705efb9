"""Price file parsing, validation, and serialization."""
import csv
import dataclasses
import io
import math
import re
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab.series_io as series_io
from conftest import write_price_csv
from trendlab.series_io import PriceSeries, date_labels, dump_prices, load_prices


def dictreader_load_prices(path, date_col="Date", price_col="Close", delimiter=",", name=None):
    """The csv.DictReader loader load_prices replaced, kept as its oracle.

    It differs from load_prices only where that tightened the input: on
    Python 3.11+ date.fromisoformat also accepts basic and week dates,
    and a repeated column silently keeps its last copy.
    """
    values = []
    dates = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        fields = [f.strip() for f in reader.fieldnames]
        if date_col not in fields or price_col not in fields:
            raise ValueError(
                f"{path}: missing column(s); have {fields}, need {date_col!r} and {price_col!r}"
            )
        for row_no, row in enumerate(reader, start=2):  # header is row 1
            raw = {(k.strip() if k else k): v for k, v in row.items()}
            try:
                day = date.fromisoformat(raw[date_col].strip())
            except (ValueError, AttributeError, KeyError) as exc:
                raise ValueError(f"{path} row {row_no}: unparsable date {raw.get(date_col)!r}") from exc
            try:
                price = float(raw[price_col])
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path} row {row_no}: unparsable price {raw.get(price_col)!r}"
                ) from exc
            if not math.isfinite(price):
                raise ValueError(f"{path} row {row_no}: non-finite price {price!r}")
            if not price > 0:
                raise ValueError(f"{path} row {row_no}: non-positive price {price!r}")
            if dates and day <= dates[-1]:
                raise ValueError(
                    f"{path} row {row_no}: non-monotone dates ({day} after {dates[-1]})"
                )
            dates.append(day)
            values.append(price)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    label = name if name is not None else path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return PriceSeries(name=label, values=np.array(values), dates=tuple(d.isoformat() for d in dates))


class TestPriceSeries:
    def test_basic_construction(self):
        s = PriceSeries("acme", np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3
        assert s.dates is None
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

    def test_sample_interval_is_not_a_series_field(self):
        # kernels.EstimatorSpec.spacing is its one owner
        assert [f.name for f in dataclasses.fields(PriceSeries)] == ["name", "values", "dates"]
        with pytest.raises(TypeError):
            PriceSeries("acme", np.array([1.0, 2.0]), spacing=0.5)

    def test_rejects_dates_of_another_length(self):
        with pytest.raises(ValueError, match="dates length 1 does not match values length 2$"):
            PriceSeries("acme", np.array([1.0, 2.0]), dates=("2020-01-01",))

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

    @pytest.mark.parametrize("name, label", [
        ("acme.csv", "acme"), ("a.b.csv", "a.b"), ("noext", "noext"), (".hidden", ".hidden"),
    ])
    def test_default_name_is_the_base_name_without_extension(self, tmp_path, name, label):
        path = write_price_csv(tmp_path / name, [1.0, 2.0])
        assert load_prices(str(path)).name == label

    @pytest.mark.parametrize("bad", ["20200102", "2020-W01-1", "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0662"])
    def test_dates_outside_the_grammar_rejected(self, tmp_path, bad):
        # basic and week dates parse with date.fromisoformat on Python
        # 3.11+ only; Arabic-Indic digits match \d but not [0-9]
        path = tmp_path / "bad.csv"
        path.write_text(f"Date,Close\n2020-01-01,10\n{bad},11\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"row 3: unparsable date"):
            load_prices(str(path))

    @pytest.mark.parametrize("header", ["Date,Close,Close", "Close,Date, Close ", "Date,Close,Date"])
    def test_repeated_column_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n2021-01-01,10,11\n2021-01-02,11,12\n")
        with pytest.raises(ValueError, match="repeated column"):
            load_prices(str(path))

    def test_unparsable_date_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,10\nnot-a-date,11\n")
        with pytest.raises(ValueError, match=r"row 3: unparsable date"):
            load_prices(str(path))

    def test_year_zero_rejected(self, tmp_path):
        # matches the YYYY-MM-DD grammar, but the calendar starts at year 1
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n0000-01-01,10\n2021-01-02,11\n")
        with pytest.raises(ValueError, match=r"row 2: unparsable date '0000-01-01'$"):
            load_prices(str(path))

    def test_unparsable_price_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2021-01-01,ten\n2021-01-02,11\n")
        with pytest.raises(ValueError, match=r"row 2: unparsable price"):
            load_prices(str(path))

    @pytest.mark.parametrize("bad", ["1_000", " 1_0.5 ", "\u0661\u0662", "1\u0662", "\uff11\uff12"])
    def test_prices_outside_the_grammar_rejected(self, tmp_path, bad):
        # float() reads each of these: underscores, Arabic-Indic and
        # fullwidth digits
        float(bad)
        path = tmp_path / "bad.csv"
        path.write_text(f"Date,Close\n2020-01-01,10\n2020-01-02,{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"row 3: unparsable price {re.escape(repr(bad))}$"):
            load_prices(str(path))

    def test_padded_prices_accepted(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("Date,Close\n2020-01-01, 10 \n2020-01-02,\u00a011.5\u2003\n", encoding="utf-8")
        np.testing.assert_array_equal(load_prices(str(path)).values, [10.0, 11.5])

    def test_first_faulty_row_is_reported(self, tmp_path):
        # the column is checked once per file, yet an earlier row's
        # literal still wins over a later row's fault, and a row's
        # literal over its sign
        path = tmp_path / "bad.csv"
        path.write_text("Date,Close\n2020-01-01,10\n2020-01-02,1_1\n2020-01-03,-1\n")
        with pytest.raises(ValueError, match="row 3: unparsable price '1_1'$"):
            load_prices(str(path))
        path.write_text("Date,Close\n2020-01-01,10\n2020-01-02,-1_1\n")
        with pytest.raises(ValueError, match="row 3: unparsable price '-1_1'$"):
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

    @pytest.mark.parametrize("text, line", [
        ('Date,Close\n2020-01-01,10\n2020-01-02,"' + "1" * 140_000 + '"\n', 3),
        # a quoted cell over several lines is named by the line it ends on
        ('Date,Close\n2020-01-01,10\n\n2020-01-02,"1\n' + "1" * 140_000 + '"\n', 5),
        ('"Date' + " " * 140_000 + '",Close\n2020-01-01,10\n', 1),
        # quote-free text: the column pass hands an oversize field to the row pass
        ("Date,Close\n2020-01-01,10\n2020-01-02," + "1" * 140_000 + "\n", 3),
        ("Date" + " " * 140_000 + ",Close\n2020-01-01,10\n", 1),
    ])
    def test_csv_errors_become_value_errors_naming_the_line(self, tmp_path, text, line):
        path = tmp_path / "big.csv"
        path.write_text(text)
        limit = csv.field_size_limit()
        message = f"{re.escape(str(path))} line {line}: field larger than field limit \\({limit}\\)$"
        with pytest.raises(ValueError, match=message) as exc:
            load_prices(str(path))
        assert isinstance(exc.value.__cause__, csv.Error)

    @pytest.mark.parametrize("header, row, line", [
        ("Date,Close", "2020-01-03,1\x002", 5), ("Date,Close", "2020-01-03,12\x00", 5),
        ("Date,Close", "20\x0020-01-03,12", 5), ("Date,Close", "2020-01-03\x00,12", 5),
        ("Date,Close", "2020-0x-03,1\x002", 5), ("Date,Close", "2020-01-03,12,x\x00", 5),
        ("Date,Close,Vol\x00ume", "2020-01-03,12,1", 1), ("Da\x00te,Close", "2020-01-03,12", 1),
    ])
    def test_nul_in_date_or_price_cell_has_one_message_on_every_python(self, tmp_path, header,
                                                                      row, line):
        # the csv reader of Python 3.10 raises on a NUL byte anywhere, later
        # ones pass it into the cell; the file is checked before its rows
        path = tmp_path / "nul.csv"
        path.write_text(f"{header}\n2020-01-01,10\n\n2020-01-02,11\n{row}\n2020-01-04,13\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} line {line}: line contains NUL$"):
            load_prices(str(path))

    @pytest.mark.parametrize("data, line, reason", [
        (b"Date,Close\n2020-01-01,10\n2020-01-02,\xff1\n", 3, "invalid start byte"),
        (b"Date,Close\r\n2020-01-01,10\r\n\r\n2020-01-02,1\xff\r\n", 4, "invalid start byte"),
        (b"Date,Close\r2020-01-01,10\r2020-01-02,\xed\xa0\x80\r", 3, "invalid continuation byte"),
        (b"\xef\xbb\xbfDate,Close\n2020-01-01,10\n2020-01-02,11\xe2\x82", 3, "unexpected end of data"),
        # only CR LF, CR and LF end a line, as for the csv reader, not the
        # other line breaks str.splitlines knows
        ("Date,Close,x\n2020-01-01,10,\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\n".encode()
         + b"2020-01-02,\x80\n", 3, "invalid start byte"),
    ])
    def test_bytes_that_are_not_utf8_are_named_by_their_line(self, tmp_path, data, line, reason):
        path = tmp_path / "latin.csv"
        path.write_bytes(data)
        message = f"{re.escape(str(path))} line {line}: not UTF-8 text \\({reason}\\)$"
        with pytest.raises(ValueError, match=message) as exc:
            load_prices(str(path))
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        plain = write_price_csv(tmp_path / "plain.csv", [10.0, 10.5, 11.25])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_prices(str(plain), name="s"), load_prices(str(marked), name="s")
        assert (a.name, a.values.tobytes(), a.dates) == (b.name, b.values.tobytes(), b.dates)
        # anywhere else U+FEFF stays in its cell, and it is not whitespace
        marked.write_text("\ufeffDate,Close\n2020-01-01,10\n\ufeff2020-01-02,11\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"row 3: unparsable date '\\ufeff2020-01-02'$"):
            load_prices(str(marked))

    def test_earlier_bad_price_wins_over_a_later_malformed_line(self, tmp_path):
        # rows are checked as they are read, before the csv reader reaches
        # a later field over its size limit
        path = tmp_path / "bad.csv"
        path.write_text('Date,Close\n2020-01-01,1_0\n2020-01-02,"' + "1" * 140_000 + '"\n')
        with pytest.raises(ValueError, match="row 2: unparsable price '1_0'$"):
            load_prices(str(path))
        # but a NUL byte anywhere rejects the file before any row is read
        path.write_text("Date,Close\n2020-01-01,1_0\n2020-01-02,1\x002\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} line 3: line contains NUL$"):
            load_prices(str(path))


def _variant(text, variant):
    """text, a Date,Close file, written another way that reads the same."""
    lines = text.split("\n")
    if variant == "crlf":
        return text.replace("\n", "\r\n")
    if variant == "lone CR":
        return text.replace("\n", "\r")
    if variant == "mixed LF/CRLF":
        return "".join(line + ("\r\n" if k % 2 else "\n") for k, line in enumerate(lines[:-1]))
    if variant == "mixed CR/CRLF":
        return "".join(line + ("\r\n" if k % 2 else "\r") for k, line in enumerate(lines[:-1]))
    if variant == "lone CR with blank lines":
        return _variant(_variant(text, "blank lines"), "lone CR")
    if variant == "CRLF with blank lines":
        return _variant(_variant(text, "blank lines"), "crlf")
    if variant == "padded CRLF":
        return _variant(_variant(text, "padded"), "crlf")
    if variant == "quoted":
        return "\n".join(",".join(f'"{c}"' for c in line.split(",")) if line else "" for line in lines)
    if variant == "bom":
        return "\ufeff" + text
    if variant == "padded":
        return "\n".join(",".join(f" {c}\t" for c in line.split(",")) if line else "" for line in lines)
    if variant == "blank lines":
        return "\n\n".join(lines)
    if variant == "volume in some rows":
        return "\n".join(line + (",7" if k % 3 == 0 else "") if line else "" for k, line in enumerate(lines))
    if variant == "date last":
        return "\n".join(",".join(line.split(",")[::-1]) for line in lines)
    raise AssertionError(variant)


def _same_series(a, b):
    return (a.name, a.values.tobytes(), a.dates) == (b.name, b.values.tobytes(), b.dates)


def _count_row_passes(monkeypatch):
    """Wrap series_io._row_pass; the list it appends each call's arguments to."""
    calls, real = [], series_io._row_pass

    def row_pass(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series_io, "_row_pass", row_pass)
    return calls


def _scratch(path):
    """The series load_prices reads from path, and its traced peak beyond
    what it keeps."""
    load_prices(str(path))  # imports and caches stay out of the peak
    tracemalloc.start()
    try:
        series = load_prices(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return series, peak - kept


class TestColumnPass:
    @pytest.mark.parametrize("variant", [
        None, "crlf", "mixed LF/CRLF", "CRLF with blank lines", "padded CRLF", "lone CR",
        "mixed CR/CRLF", "lone CR with blank lines", "bom", "padded", "blank lines",
        "volume in some rows", "date last",
    ])
    def test_row_loop_runs_only_on_failure(self, tmp_path, monkeypatch, variant):
        # 3,000 rows span several blocks
        path = write_price_csv(tmp_path / "prices.csv", np.random.default_rng(8).uniform(1, 99, 3000))
        want = load_prices(str(path))
        if variant is not None:
            path.write_bytes(_variant(path.read_text(), variant).encode())
        calls = _count_row_passes(monkeypatch)
        assert _same_series(load_prices(str(path)), want)
        assert calls == [], "row loop entered for a well-formed file"

    def test_quoted_text_loads_through_the_row_pass(self, tmp_path, monkeypatch):
        path = write_price_csv(tmp_path / "prices.csv", np.random.default_rng(8).uniform(1, 99, 3000))
        want = load_prices(str(path))
        path.write_bytes(_variant(path.read_text(), "quoted").encode())
        calls = _count_row_passes(monkeypatch)
        assert _same_series(load_prices(str(path)), want)
        assert len(calls) == 1

    @pytest.mark.parametrize("text, date_col, message, row_passes", [
        ("Date\rClose\r\n2020-01-01\r10\r\n2020-01-02\r11\r\n", "Date",
         "missing column(s); have ['Date'], need 'Date' and 'Close'", 0),
        ("Date\rClose\n2020-01-01\r10\n2020-01-02\r11\n", "Close",
         "missing column(s); have ['Date'], need 'Close' and 'Close'", 0),
        ("Close\r10\r11\r", "Close", "row 2: unparsable date '10'", 1),
    ], ids=["CRLF", "LF", "one column"])
    def test_cr_delimiter_keeps_the_csv_readers_result(self, tmp_path, monkeypatch, text, date_col,
                                                       message, row_passes):
        # the csv reader ends a line at a CR before it looks for the
        # delimiter, so a CR delimiter splits no row; the column pass
        # reads the CR as a line end too, so a header fault raises there
        path = tmp_path / "cr.csv"
        path.write_bytes(text.encode())
        calls = _count_row_passes(monkeypatch)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:? {re.escape(message)}$"):
            load_prices(str(path), date_col=date_col, delimiter="\r")
        assert len(calls) == row_passes

    def test_scratch_is_bounded_by_the_file_and_one_block(self, tmp_path):
        # beside the series it returns, a load of plain text holds the
        # file's bytes and its text, then the text, one block's cells and
        # the column arrays
        path = write_price_csv(tmp_path / "long.csv", np.random.default_rng(9).uniform(1, 99, 20_000))
        series, scratch = _scratch(path)
        assert len(series) == 20_000
        assert scratch <= 2 * path.stat().st_size + 8 * series_io._BLOCK_CHARS

    def test_crlf_scratch_is_bounded_by_the_file_and_one_block(self, tmp_path):
        # CRLF text adds its copy with LF line ends to the plain text's scratch
        path = write_price_csv(tmp_path / "long.csv", np.random.default_rng(9).uniform(1, 99, 20_000))
        path.write_bytes(_variant(path.read_text(), "crlf").encode())
        series, scratch = _scratch(path)
        assert len(series) == 20_000
        assert scratch <= 3 * path.stat().st_size + 8 * series_io._BLOCK_CHARS

    @pytest.mark.parametrize("variant", ["lone CR", "mixed CR/CRLF"])
    def test_cr_scratch_is_bounded_by_the_file_and_one_block(self, tmp_path, variant):
        # as for CRLF text: its copy with LF line ends, made from the text
        # in two replaces, the second from the first's copy
        path = write_price_csv(tmp_path / "long.csv", np.random.default_rng(9).uniform(1, 99, 20_000))
        path.write_bytes(_variant(path.read_text(), variant).encode())
        series, scratch = _scratch(path)
        assert len(series) == 20_000
        assert scratch <= 3 * path.stat().st_size + 8 * series_io._BLOCK_CHARS


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


@st.composite
def price_files(draw):
    """Text of a price file plus its delimiter: ISO dates, extra columns,
    padded and quoted cells, blank lines, short and long rows, and at most
    one corrupted row."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    extras = draw(st.lists(st.sampled_from(["Open", "Volume", "note", ""]), max_size=3))
    layout = draw(st.permutations(["Date", "Close", *(f"x{i}" for i in range(len(extras)))]))
    pad = st.sampled_from(["", " ", "  "] + ([] if delimiter == "\t" else ["\t"]))
    names = {"Date": "Date", "Close": "Close", **{f"x{i}": e for i, e in enumerate(extras)}}
    header = [draw(pad) + names[c] + draw(pad) for c in layout]

    n = draw(st.integers(0, 12))
    day = date(2020, 1, 1) + timedelta(days=draw(st.integers(0, 3000)))
    rows = []
    for _ in range(n):
        day += timedelta(days=draw(st.integers(1, 5)))
        price = draw(st.floats(0.01, 1e6, allow_nan=False))
        text = draw(st.sampled_from([repr(price), f"{price:.2f}", f"{price:.6e}"]))
        cells = {"Date": draw(pad) + day.isoformat() + draw(pad),
                 "Close": draw(pad) + text + draw(pad)}
        cells.update({f"x{i}": draw(st.sampled_from(["1", "a b", "", f"q{delimiter}q"]))
                      for i in range(len(extras))})
        rows.append([cells[c] for c in layout])

    corrupt = draw(st.sampled_from([None, None, "Date", "Close", "order"]))
    if corrupt == "order" and len(rows) >= 2:  # the date of an earlier row again
        k = draw(st.integers(1, len(rows) - 1))
        j = layout.index("Date")
        rows[k][j] = rows[draw(st.integers(0, k - 1))][j]
    elif corrupt in ("Date", "Close") and rows:
        k = draw(st.integers(0, len(rows) - 1))
        bad = {
            "Date": ["not-a-date", "2020-02-30", "2021-13-01", "", "2020/01/02", "   "],
            "Close": ["ten", "", "inf", "-inf", "nan", " NaN ", "0", "-1.5", "0.0", "1e400"],
        }[corrupt]
        rows[k][layout.index(corrupt)] = draw(st.sampled_from(bad))
    if rows and draw(st.sampled_from([False, False, True])):  # a short or a long row
        k = draw(st.integers(0, len(rows) - 1))
        cut = draw(st.integers(1, len(layout) + 2))
        rows[k] = (rows[k] + ["extra", "more"])[:cut]

    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for i, row in enumerate([header, *rows]):
        # blank lines, rarely before the header
        if draw(st.sampled_from([False] * (8 if i == 0 else 2) + [True])):
            lines += [""] * draw(st.integers(1, 2))
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter, quoting=quoting, lineterminator="").writerow(row)
        lines.append(buf.getvalue())
    return terminator.join(lines) + terminator, delimiter


def _outcome(load, path, delimiter):
    try:
        s = load(path, delimiter=delimiter)
    except ValueError as exc:
        return ("error", str(exc))
    return ("series", s.name, s.values.tobytes(), s.dates)


@settings(max_examples=300, deadline=None)
@given(price_files())
def test_reader_matches_the_dictreader_oracle(file):
    text, delimiter = file
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prices.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_prices, path, delimiter) == _outcome(dictreader_load_prices, path, delimiter)


@st.composite
def damaged_price_files(draw):
    """Bytes of a price file with a NUL, a byte that is not UTF-8 or a
    quote inserted, and perhaps cut short, plus its delimiter."""
    text, delimiter = draw(price_files())
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    damage = draw(st.sampled_from([b"\0", b"\xff", b"\x80", b"\xe2\x82", b"\xed\xa0\x80", b'"']))
    data = data[:at] + damage + data[at:]
    return data[: draw(st.integers(at, len(data)))], delimiter


def _loads_or_names_the_path(data, delimiter):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prices.csv")
        Path(path).write_bytes(data)
        try:
            load_prices(path, delimiter=delimiter)
        except ValueError as exc:  # UnicodeDecodeError is one too
            assert str(exc).startswith(path), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_any_bytes_load_or_fail_naming_the_path(data):
    _loads_or_names_the_path(data, ",")


@settings(max_examples=300, deadline=None)
@given(damaged_price_files())
def test_damaged_price_files_load_or_fail_naming_the_path(file):
    _loads_or_names_the_path(*file)
