"""Ingest and the chunked writers against their row-at-a-time references.

load_csv reads a file once and checks each record as it reads it; it must
return the series scalar_oracle.load_csv, the row loop with one statement
per check, returns, or raise its error with the same type, line and
message. The writers format WRITE_CHUNK rows per call and must match
scalar_oracle's csv.writer writers, one row at a time, byte for byte. Most
cases sit at chunk edges.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import scalar_oracle
from pairtrade import backtest, ingest
from pairtrade.backtest import (
    LEDGER_COLUMNS,
    WRITE_CHUNK,
    Ledger,
    _has_runs,
    run_backtest,
    write_ledger_csv,
    write_plot_csv,
)
from pairtrade.domain import PriceSeries
from pairtrade.ingest import FormatError, load_csv
from pairtrade.synthetic import OUPairSpec, generate_pair

SPEC = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, mu_true=0.0, gamma_cap=0.05)
WRITE_ROWS = [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1, 2 * WRITE_CHUNK + 3]
# every fifth label holds nothing to quote; the others a comma, a double
# quote, a line feed or a carriage return
SUFFIXES = ("", ",x", ' "q"', "\nz", "\r")


def quoted_dates(n):
    return [f"{i:06d}{SUFFIXES[i % len(SUFFIXES)]}" for i in range(n)]


def odd_ledger(rows, first=40, seed=0):
    """A Ledger of random columns with NaN, +-inf and -0.0 strewn through
    every float column, and dates that need quoting."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name in LEDGER_COLUMNS:
        if name == "k":
            columns[name] = np.arange(first, first + rows)
        elif name == "date":
            columns[name] = tuple(quoted_dates(first + rows)[first:])
        elif name == "active":
            columns[name] = rng.random(rows) < 0.5
        else:
            col = rng.standard_normal(rows) * 10.0 ** rng.integers(-12, 12, rows)
            col[::7] = math.nan
            col[1::11] = math.inf
            col[2::13] = -math.inf
            col[3::17] = -0.0
            columns[name] = col
    return Ledger(**columns)


def halted_run(rows):
    """A backtest of rows periods whose account goes below zero near
    min(rows, WRITE_CHUNK) - 10 and stays flat from there on."""
    base = generate_pair(OUPairSpec(**SPEC, seed=7), rows + 40)
    ledger, _ = run_backtest(base)
    # p2 jumps 30-fold after a period that holds it short
    at = int(np.flatnonzero(ledger.n2[: min(rows, WRITE_CHUNK) - 10] < 0.0)[-1])
    p2 = base.p2.copy()
    p2[int(ledger.k[at]) + 1:] *= 30.0
    series = PriceSeries(quoted_dates(rows + 40), base.p1, p2)
    ledger, _ = run_backtest(series)
    assert ledger.value[at + 1] <= 0.0
    assert not ledger.active[at + 1:].any() and not ledger.n1[at + 1:].any()
    return series, ledger


def check_writers(tmp_path, series, ledger, initial_value=10_000.0):
    """Both files as the row-at-a-time writers write them."""
    rows = scalar_oracle.ledger_rows(ledger)
    write_ledger_csv(ledger, tmp_path / "ledger.csv")
    scalar_oracle.write_ledger_csv(rows, tmp_path / "ledger-ref.csv")
    write_plot_csv(tmp_path / "plot.csv", series, ledger, initial_value)
    scalar_oracle.write_plot_csv(tmp_path / "plot-ref.csv", series, rows, initial_value)
    for name in ("ledger", "plot"):
        got, ref = ((tmp_path / f"{name}{end}.csv").read_bytes() for end in ("", "-ref"))
        assert got == ref, name


class TestWriters:
    @pytest.mark.parametrize("rows", WRITE_ROWS)
    def test_odd_columns(self, tmp_path, rows):
        # the plot takes its value column from the ledger, after 40 flat rows
        rng = np.random.default_rng(1)
        series = PriceSeries(quoted_dates(rows + 40), *rng.uniform(1.0, 2.0, (2, rows + 40)))
        check_writers(tmp_path, series, odd_ledger(rows))

    @pytest.mark.parametrize("rows", WRITE_ROWS)
    def test_halted_run(self, tmp_path, rows):
        check_writers(tmp_path, *halted_run(rows))

    def test_empty_ledger(self, tmp_path):
        series = PriceSeries(quoted_dates(40), np.ones(40), np.ones(40))
        check_writers(tmp_path, series, odd_ledger(0), initial_value=10_000)
        assert (tmp_path / "ledger.csv").read_text() == ",".join(LEDGER_COLUMNS) + "\n"

    def test_ledger_memory_is_one_chunk(self, tmp_path):
        # the writer holds one chunk of formatted rows at a time, so its
        # peak does not grow with the ledger (it grew 26.1 MiB from 20k to
        # 80k rows when every column was turned into a list at once)
        peaks = []
        for rows in (20_000, 80_000):
            ledger = odd_ledger(rows)
            tracemalloc.start()
            try:
                write_ledger_csv(ledger, tmp_path / "ledger.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20



# NaNs with different bits, all written "nan": quiet, with a payload,
# negative, and signalling
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001],
                dtype=np.int64).view(np.float64)


def run_ledger(rows, col):
    """odd_ledger(rows) with col, a float column of rows values, as its
    beta, mu, n1 and value, so that the plot's value column has it too."""
    return dataclasses.replace(odd_ledger(rows), beta=col, mu=col.copy(), n1=col.copy(),
                               value=col.copy())


def runs_of(values, length, rows):
    """Each of values repeated length times, cycled to rows entries."""
    runs = np.repeat(np.asarray(values, dtype=float), length)
    return np.resize(runs, rows)


class TestWriterRuns:
    """A numeric column where at least half the values have the bits of the
    value before them is formatted once per run, and consecutive such
    columns as one field; each case is checked against the csv.writer
    writers."""

    def check(self, tmp_path, col, runs=True):
        col = np.asarray(col, dtype=float)
        assert _has_runs(col) is runs
        series = PriceSeries(quoted_dates(len(col) + 40), np.ones(len(col) + 40),
                             np.ones(len(col) + 40))
        check_writers(tmp_path, series, run_ledger(len(col), col))

    def test_minus_zero_next_to_zero(self, tmp_path):
        # equal under ==, but written "-0" and "0"
        self.check(tmp_path, runs_of([0.0, -0.0, -0.0, 0.0, 1.5], 3, 100))

    def test_nans_with_different_bits(self, tmp_path):
        self.check(tmp_path, runs_of(NANS, 3, 100))

    def test_runs_of_infinities(self, tmp_path):
        self.check(tmp_path, runs_of([math.inf, -math.inf, math.inf, 2.0], 4, 100))

    def test_run_across_the_chunk_edge(self, tmp_path):
        col = runs_of(np.arange(10.0), 5, 2 * WRITE_CHUNK + 3)
        col[WRITE_CHUNK - 50 : WRITE_CHUNK + 50] = 0.125
        self.check(tmp_path, col)

    @pytest.mark.parametrize("rows", [1, 2, WRITE_CHUNK + 1])
    def test_one_value(self, tmp_path, rows):
        # one row has no value before it, so no run
        self.check(tmp_path, np.full(rows, -2.5e-300), runs=rows > 1)

    @pytest.mark.parametrize("rows", [100, 101])
    @pytest.mark.parametrize("repeats, runs", [(-1, False), (0, True), (1, True)])
    def test_half_cut(self, tmp_path, rows, repeats, runs):
        # distinct values but for a first run that repeats its value
        # (rows + 1) // 2 + repeats times: runs from half the rows on
        col = np.linspace(1.0, 2.0, rows)
        col[: (rows + 1) // 2 + repeats + 1] = 1.0
        self.check(tmp_path, col, runs)

    def test_empty_ledger(self, tmp_path):
        self.check(tmp_path, np.array([]), runs=False)

    def check_fields(self, tmp_path, monkeypatch, **cols):
        """odd_ledger with active alternating, so that it has no runs, and
        cols in place of the columns they name, written as the csv.writer
        writers write it; returns the format of each run field of the
        ledger, chunk after chunk."""
        rows = len(next(iter(cols.values())))
        ledger = dataclasses.replace(odd_ledger(rows), **{"active": np.arange(rows) % 2 == 0,
                                                          **cols})
        series = PriceSeries(quoted_dates(rows + 40), np.ones(rows + 40), np.ones(rows + 40))
        check_writers(tmp_path, series, ledger)
        formats = []

        def recording(cols, fmt):
            formats.append(fmt)
            return run_texts(cols, fmt)

        run_texts = backtest._run_texts
        monkeypatch.setattr(backtest, "_run_texts", recording)
        write_ledger_csv(ledger, tmp_path / "fields.csv")
        assert (tmp_path / "fields.csv").read_bytes() == (tmp_path / "ledger.csv").read_bytes()
        return formats

    def test_merged_field_breaks_where_either_column_does(self, tmp_path, monkeypatch):
        # runs of 5 and runs of 3: one field, a new text at every break of
        # either column
        threshold, beta = runs_of(np.arange(20.0), 5, 100), runs_of(np.arange(34.0) + 0.5, 3, 100)
        assert _has_runs(threshold) and _has_runs(beta)
        fields = self.check_fields(tmp_path, monkeypatch, threshold=threshold, beta=beta)
        assert fields == ["%.10g,%.10g"]

    def test_column_without_runs_splits_the_field(self, tmp_path, monkeypatch):
        # run, non-run, run: two fields of one column each
        fields = self.check_fields(tmp_path, monkeypatch, threshold=runs_of(np.arange(20.0), 5, 100),
                                   mu=runs_of(np.arange(25.0), 4, 100))
        assert fields == ["%.10g", "%.10g"]

    @pytest.mark.parametrize("length, runs", [(1, False), (4, True)])
    def test_active_runs(self, tmp_path, monkeypatch, length, runs):
        # runs of flags, or flags that alternate
        active = np.resize(np.repeat([True, False], length), 100)
        assert _has_runs(active) is runs
        fields = self.check_fields(tmp_path, monkeypatch, active=active)
        assert fields == ["%d"] * runs

    def test_merged_field_across_the_chunk_edge(self, tmp_path, monkeypatch):
        # every estimate column breaks at its own rows, and one run of all
        # of them spans the chunk edge
        rows = 2 * WRITE_CHUNK + 3
        names = ("threshold", "beta", "mu", "gamma", "eta")
        cols = {name: runs_of(np.arange(rows) * (i + 1.5), i + 2, rows)
                for i, name in enumerate(names)}
        for col in cols.values():
            col[WRITE_CHUNK - 50 : WRITE_CHUNK + 50] = -0.0
        fields = self.check_fields(tmp_path, monkeypatch, **cols)
        assert fields == [",".join(["%.10g"] * len(names))] * 3

    @pytest.mark.parametrize("mu", [runs_of([0.0, -0.0, -0.0, 0.0, 1.5], 3, 100),
                                    runs_of(NANS, 4, 100)], ids=["signed-zeros", "nans"])
    def test_signed_zeros_and_nans_in_a_merged_field(self, tmp_path, monkeypatch, mu):
        # -0.0 next to 0.0, or NaNs of different bits, in the middle member
        # break the field as any other change of bits does; one case each,
        # since a NaN that broke every row would hide a missed signed zero
        fields = self.check_fields(tmp_path, monkeypatch, beta=runs_of([0.5, 2.0], 10, 100),
                                   mu=mu, gamma=runs_of([0.25], 100, 100))
        assert fields == ["%.10g,%.10g,%.10g"]


HEADER = "date,p1,p2"
# records per pass of the column parser load_csv once had: the ingest cases
# keep their faults and blank lines at its chunk edges
READ_CHUNK = 512


def good_rows(n):
    rng = np.random.default_rng(3)
    prices = rng.uniform(1.0, 200.0, (n, 2)).tolist()
    return [f"{i:06d},{a!r},{b!r}" for i, (a, b) in enumerate(prices)]


def write_lines(path, lines, encoding="utf-8"):
    path.write_text("".join(f"{line}\n" for line in [HEADER, *lines]), encoding=encoding)
    return path


def same_outcome(path):
    """load_csv on path raises what the row loop raises, or returns the
    same series."""
    try:
        expected = scalar_oracle.load_csv(path)
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            load_csv(path)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        assert getattr(got.value, "line_no", None) == getattr(err, "line_no", None)
        return err
    assert load_csv(path) == expected
    return None


# the faults a record can hold, each a function of (its date, the date before)
FAULTS = {
    "two fields": lambda d, prev: f"{d},1.5",
    "four fields": lambda d, prev: f"{d},1.5,2.5,3.5",
    "empty date": lambda d, prev: " ,1.5,2.5",
    "p1 not a number": lambda d, prev: f"{d},1.5x,2.5",
    "p2 not a number": lambda d, prev: f"{d},1.5,",
    "p1 nan": lambda d, prev: f"{d},nan,2.5",
    "p2 inf": lambda d, prev: f"{d},1.5,inf",
    "p1 -inf": lambda d, prev: f"{d},-inf,2.5",
    "p2 zero": lambda d, prev: f"{d},1.5,0",
    "p1 negative": lambda d, prev: f"{d},-1.5,2.5",
    "date repeated": lambda d, prev: f"{prev},1.5,2.5",
    "date decreasing": lambda d, prev: f"{prev[:-1]},1.5,2.5",
}


class TestIngest:
    # records READ_CHUNK and 2 READ_CHUNK - 1 are the first and the last of
    # the second chunk; blank lines can take the place of the records before
    @pytest.mark.parametrize("blank", [0, 3])
    @pytest.mark.parametrize("at", [READ_CHUNK, 2 * READ_CHUNK - 1])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_at_chunk_edge(self, tmp_path, fault, at, blank):
        lines = good_rows(2 * READ_CHUNK + 5)
        date, prev = lines[at].split(",")[0], lines[at - blank - 1].split(",")[0]
        lines[at] = FAULTS[fault](date, prev)
        lines[at - blank:at] = [""] * blank
        err = same_outcome(write_lines(tmp_path / "bad.csv", lines))
        assert err is not None
        assert f"line {at + 2}:" in str(err)

    @pytest.mark.parametrize("fault", sorted(set(FAULTS) - {"date repeated", "date decreasing"}))
    def test_fault_in_first_row(self, tmp_path, fault):
        # an empty first date still sorts before every other date
        lines = good_rows(READ_CHUNK + 5)
        lines[0] = FAULTS[fault](lines[0].split(",")[0], None)
        assert "line 2:" in str(same_outcome(write_lines(tmp_path / "bad.csv", lines)))

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # a date out of order in the first chunk comes before a bad number
        # in the second
        lines = good_rows(2 * READ_CHUNK)
        lines[10] = lines[9]
        lines[READ_CHUNK + 7] = "000000,oops,1"
        assert "line 12:" in str(same_outcome(write_lines(tmp_path / "bad.csv", lines)))

    def test_csv_error_after_a_fault(self, tmp_path):
        # the csv module's own error, in a later chunk, does not hide a
        # fault before it
        lines = good_rows(2 * READ_CHUNK)
        lines[100] = "000100,0,1"
        lines[READ_CHUNK + 1] = "x" * 200_000 + ",1,1"
        assert "line 102:" in str(same_outcome(write_lines(tmp_path / "bad.csv", lines)))

    def test_decode_error_after_a_fault(self, tmp_path):
        # bytes that are not UTF-8 at the end of the file, which the decoder
        # reaches after the fault, do not hide it
        def with_bad_bytes(lines):
            path = write_lines(tmp_path / "bad.csv", lines)
            with path.open("ab") as fh:
                fh.write(b"\xff\xfe,1,1\n")
            return path

        lines = good_rows(2 * READ_CHUNK)
        with pytest.raises(UnicodeDecodeError):
            with_bad_bytes(lines).read_text(encoding="utf-8")
        # without a fault, the decoder's own error
        assert isinstance(same_outcome(with_bad_bytes(lines)), UnicodeDecodeError)
        lines[100] = "000100,0,1"
        assert "line 102:" in str(same_outcome(with_bad_bytes(lines)))

    def test_file_opened_once(self, tmp_path, monkeypatch):
        # a faulty file is not read a second time to word its error
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(ingest, "open", recording_open, raising=False)
        for fault in [None, *sorted(FAULTS)]:
            lines = good_rows(READ_CHUNK + 5)
            if fault is not None:
                date, prev = (lines[i].split(",")[0] for i in (READ_CHUNK, READ_CHUNK - 1))
                lines[READ_CHUNK] = FAULTS[fault](date, prev)
            path = write_lines(tmp_path / "once.csv", lines)
            opened.clear()
            same_outcome(path)
            assert opened == [path], fault

    @pytest.mark.parametrize("rows", [READ_CHUNK - 1, READ_CHUNK, 2 * READ_CHUNK + 1])
    def test_good_file_with_blank_lines(self, tmp_path, rows):
        lines = good_rows(rows)
        # at least one whole chunk of nothing but blank lines
        lines[rows // 2:rows // 2] = [""] * (2 * READ_CHUNK)
        lines[1:1] = ["", ""]
        lines.append("")
        path = write_lines(tmp_path / "good.csv", lines)
        assert same_outcome(path) is None
        assert len(load_csv(path)) == rows

    def test_byte_order_mark(self, tmp_path):
        path = write_lines(tmp_path / "bom.csv", good_rows(READ_CHUNK + 5), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfdate")
        assert same_outcome(path) is None

    def test_quoted_dates(self, tmp_path):
        # a quoted line break makes one record of two lines
        lines = [f'"{i:06d},x\n""q""",{i + 1},{i + 2}' for i in range(READ_CHUNK + 9)]
        path = write_lines(tmp_path / "quoted.csv", lines)
        assert same_outcome(path) is None
        assert load_csv(path).dates[5] == '000005,x\n"q"'

    @pytest.mark.parametrize("lines", [[], [""] * (READ_CHUNK + 2)])
    def test_header_only(self, tmp_path, lines):
        err = same_outcome(write_lines(tmp_path / "empty.csv", lines))
        assert isinstance(err, FormatError) and str(err) == "no data rows"

    def test_series_from_checked_columns(self, tmp_path):
        # load_csv builds the series from the columns it has checked
        lines = good_rows(READ_CHUNK + 5)
        series = load_csv(write_lines(tmp_path / "good.csv", lines))
        assert type(series.dates) is tuple and all(type(d) is str for d in series.dates)
        for prices in (series.p1, series.p2):
            assert prices.dtype == np.float64 and prices.ndim == 1
            assert not prices.flags.writeable
            with pytest.raises(ValueError):
                prices[0] = 1.0
        dates, p1, p2 = zip(*(line.split(",") for line in lines))
        assert series == PriceSeries(dates, [float(x) for x in p1], [float(x) for x in p2])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert str(same_outcome(path)) == "empty file"
