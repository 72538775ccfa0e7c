"""CSV ingestion and declared price-correction adjustments.

Input files have the exact header `date,p1,p2`, one observation per row,
strictly increasing date labels, and strictly positive finite prices.
Corrections (splits, reverse splits, bad prints) are declared as explicit
rules and applied by scaling all prices of one stock before a given index.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .domain import DomainError, PriceSeries, check_number, check_positive

EXPECTED_HEADER = ("date", "p1", "p2")


class FormatError(ValueError):
    """The file is structurally wrong: bad header, wrong arity, no data."""


class RowError(ValueError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class OrderingError(ValueError):
    """Date labels are not strictly increasing."""


@dataclass(frozen=True)
class AdjustmentRule:
    """Scale all prices of one stock strictly before effective_index by factor.

    Returns at and after the boundary are computed from adjusted prices, so a
    rule that corrects a split removes the artificial jump return.
    """

    stock: int
    effective_index: int
    factor: float

    def __post_init__(self) -> None:
        check_number("stock", self.stock)
        if self.stock not in (1, 2):
            raise DomainError(f"stock must be 1 or 2, got {self.stock!r}")
        index = self.effective_index
        if isinstance(index, bool) or not (isinstance(index, int) and index >= 0):
            raise DomainError(f"effective_index must be a non-negative integer, got {index!r}")
        check_positive("factor", self.factor)


def _read_header(reader) -> None:
    """Consume the header record; FormatError unless it is date,p1,p2."""
    header = next(reader, None)
    if header is None:
        raise FormatError("empty file")
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise FormatError(
            f"expected header {','.join(EXPECTED_HEADER)!r}, got {','.join(header)!r}"
        )


def load_csv(path) -> PriceSeries:
    """Parse a price CSV; raises FormatError / RowError / OrderingError.

    A leading UTF-8 byte-order mark, as spreadsheet exports write it, is skipped.
    Each record is checked as it is read: the error names the first faulty line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader)
        dates: list[str] = []
        p1: list[float] = []
        p2: list[float] = []
        last = ""  # sorts before every date but the empty one
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                date, a, b = row
                x = float(a)
                y = float(b)
            except ValueError:
                raise _row_fault(line_no, row, last) from None
            date = date.strip()
            if not (0.0 < x < math.inf and 0.0 < y < math.inf and last < date):
                raise _row_fault(line_no, row, last)
            dates.append(date)
            p1.append(x)
            p2.append(y)
            last = date
    if not dates:
        raise FormatError("no data rows")
    return PriceSeries(dates, p1, p2)


def _row_fault(line_no: int, row: list[str], last: str) -> ValueError:
    """The first fault, in load_csv's order, of a record after the date last."""
    if len(row) != 3:
        return RowError(line_no, f"expected 3 fields, got {len(row)}")
    date = row[0].strip()
    if not date:
        return RowError(line_no, "empty date")
    for name, text in (("p1", row[1]), ("p2", row[2])):
        try:
            x = float(text)
        except ValueError:
            return RowError(line_no, f"{name} is not a number: {text!r}")
        if not 0.0 < x < math.inf:
            return RowError(line_no, f"{name} must be finite and positive, got {text!r}")
    return OrderingError(f"line {line_no}: date {date!r} does not increase over {last!r}")


def apply_adjustments(series: PriceSeries, rules) -> PriceSeries:
    """Apply correction rules in order; each returns a new adjusted series.

    An effective_index of 0 is a no-op; an index equal to the series length
    scales the whole path. Indices beyond the length raise DomainError.
    """
    p1 = series.p1.copy()
    p2 = series.p2.copy()
    for rule in rules:
        if rule.effective_index > len(series):
            raise DomainError(
                f"effective_index {rule.effective_index} exceeds series length {len(series)}"
            )
        target = p1 if rule.stock == 1 else p2
        target[: rule.effective_index] *= rule.factor
    return PriceSeries(series.dates, p1, p2)
