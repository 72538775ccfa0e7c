"""CSV loading and declared price corrections."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairtrade.domain import DomainError
from pairtrade.ingest import (
    AdjustmentRule,
    FormatError,
    OrderingError,
    RowError,
    apply_adjustments,
    load_csv,
)

HEADER = "date,p1,p2\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "prices.csv"
    path.write_text(header + body)
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "2020-01-02,100.5,50.25\n2020-01-03,101,49\n")
        series = load_csv(path)
        assert len(series) == 2
        assert series.dates == ("2020-01-02", "2020-01-03")
        assert series.p1.tolist() == [100.5, 101.0]
        assert series.p2.tolist() == [50.25, 49.0]

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet exports start the file with a UTF-8 byte-order mark
        path = tmp_path / "prices.csv"
        path.write_text(HEADER + "2020-01-02,100.5,50.25\n2020-01-03,101,49\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfdate,p1,p2")
        series = load_csv(path)
        assert series.dates == ("2020-01-02", "2020-01-03")
        assert series.p1.tolist() == [100.5, 101.0]

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "2020-01-02,1,2\n\n2020-01-03,3,4\n\n")
        assert len(load_csv(path)) == 2

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "2020-01-03,3,4\n", header="p1,p2,date\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_wrong_arity(self, tmp_path):
        path = write(tmp_path, "2020-01-02,1,2\n2020-01-03,3\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line_no == 3

    def test_non_numeric_price(self, tmp_path):
        path = write(tmp_path, "2020-01-02,1,2\n2020-01-03,oops,4\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line_no == 3
        assert "p1" in str(exc.value)

    def test_zero_price_names_line(self, tmp_path):
        path = write(tmp_path, "2020-01-02,1,2\n2020-01-03,3,0\n2020-01-04,5,6\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line_no == 3
        assert "p2" in str(exc.value)

    def test_negative_price(self, tmp_path):
        path = write(tmp_path, "2020-01-02,-1,2\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line_no == 2

    def test_non_finite_price(self, tmp_path):
        path = write(tmp_path, "2020-01-02,inf,2\n")
        with pytest.raises(RowError):
            load_csv(path)

    def test_dates_out_of_order(self, tmp_path):
        path = write(tmp_path, "2020-01-03,1,2\n2020-01-02,3,4\n")
        with pytest.raises(OrderingError):
            load_csv(path)

    def test_duplicate_date(self, tmp_path):
        path = write(tmp_path, "2020-01-02,1,2\n2020-01-02,3,4\n")
        with pytest.raises(OrderingError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")


class TestAdjustmentRule:
    def test_validation(self):
        AdjustmentRule(stock=1, effective_index=0, factor=0.5)
        with pytest.raises(DomainError):
            AdjustmentRule(stock=3, effective_index=0, factor=0.5)
        with pytest.raises(DomainError):
            AdjustmentRule(stock=1, effective_index=-1, factor=0.5)
        with pytest.raises(DomainError):
            AdjustmentRule(stock=1, effective_index=0, factor=0.0)
        with pytest.raises(DomainError):
            AdjustmentRule(stock=1, effective_index=1.5, factor=0.5)


class TestApplyAdjustments:
    def test_split_example(self):
        # a 4:1 split observed at index 2: earlier raw prices are scaled down
        # so the boundary return is zero for a flat underlying
        series = make([10.0, 10.0, 10.0], [100.0, 100.0, 25.0])
        out = apply_adjustments(series, [AdjustmentRule(stock=2, effective_index=2, factor=0.25)])
        assert out.p2.tolist() == [25.0, 25.0, 25.0]
        assert out.p1.tolist() == [10.0, 10.0, 10.0]

    def test_prefix_only(self):
        series = make([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1.0])
        out = apply_adjustments(series, [AdjustmentRule(stock=1, effective_index=2, factor=0.5)])
        assert out.p1.tolist() == [0.5, 1.0, 4.0, 8.0]

    def test_identity_factor(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        out = apply_adjustments(series, [AdjustmentRule(stock=1, effective_index=1, factor=1.0)])
        assert out.p1.tolist() == series.p1.tolist()

    def test_stacked_rules_compose(self):
        series = make([100.0, 100.0, 100.0], [1.0, 1.0, 1.0])
        rules = [
            AdjustmentRule(stock=1, effective_index=2, factor=0.5),
            AdjustmentRule(stock=1, effective_index=1, factor=0.5),
        ]
        out = apply_adjustments(series, rules)
        assert out.p1.tolist() == [25.0, 50.0, 100.0]

    def test_index_zero_is_noop(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        out = apply_adjustments(series, [AdjustmentRule(stock=2, effective_index=0, factor=9.0)])
        assert out.p2.tolist() == [3.0, 4.0]

    def test_index_at_length_scales_all(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        out = apply_adjustments(series, [AdjustmentRule(stock=2, effective_index=2, factor=0.5)])
        assert out.p2.tolist() == [1.5, 2.0]

    def test_index_past_length(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(DomainError):
            apply_adjustments(series, [AdjustmentRule(stock=1, effective_index=3, factor=0.5)])

    def test_original_untouched(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        apply_adjustments(series, [AdjustmentRule(stock=1, effective_index=1, factor=2.0)])
        assert series.p1.tolist() == [1.0, 2.0]

    def test_no_rules_returns_equal_series(self):
        series = make([1.0, 2.0], [3.0, 4.0])
        assert apply_adjustments(series, []) == series

    @given(
        factor=st.floats(0.1, 10.0),
        effective_index=st.integers(0, 5),
        stock=st.sampled_from([1, 2]),
    )
    def test_positivity_and_length_preserved(self, factor, effective_index, stock):
        series = make([1.0, 2.5, 3.0, 4.0, 0.5], [9.0, 8.0, 7.0, 6.0, 5.0])
        rule = AdjustmentRule(stock=stock, effective_index=effective_index, factor=factor)
        out = apply_adjustments(series, [rule])
        assert len(out) == len(series)
        assert np.all(out.p1 > 0) and np.all(out.p2 > 0)
        assert out.dates == series.dates
        untouched = out.p2 if stock == 1 else out.p1
        original = series.p2 if stock == 1 else series.p1
        assert untouched.tolist() == original.tolist()


def make(p1, p2):
    from pairtrade.domain import PriceSeries

    return PriceSeries([f"{i:06d}" for i in range(len(p1))], p1, p2)
