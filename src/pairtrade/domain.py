"""Core value types shared by every other module, and the checks of scalar
arguments that every public entry point uses.

Prices are strictly positive reals. A price path is a date-labelled pair of
price arrays. Per-period relative returns X_i(k) = p_i(k+1)/p_i(k) - 1 are
always > -1 for positive prices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A value violates a basic domain requirement, e.g. a non-positive price."""


class LengthError(ValueError):
    """A series is too short for the requested computation."""


def finite(x) -> bool:
    """math.isfinite(x), but False for an int beyond the float range, where
    math.isfinite raises OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_number(name: str, x) -> None:
    """Reject a bool (Python's or numpy's), which math and numpy would take
    as 0 or 1."""
    if np.asarray(x).dtype == bool:
        raise DomainError(f"{name} must be a number, got {x!r}")


def check_finite(name: str, x) -> None:
    """Reject a bool and a number that is not finite."""
    check_number(name, x)
    if not finite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


def check_float(name: str, x) -> None:
    """Reject a bool and an int beyond the float range; NaN and the
    infinities pass."""
    check_number(name, x)
    try:
        float(x)
    except OverflowError:
        raise DomainError(f"{name} must lie in the float range, got {x!r}") from None


def check_non_negative(name: str, x) -> None:
    """Reject a bool, NaN, an int beyond the float range and anything < 0;
    +inf passes."""
    check_float(name, x)
    if not x >= 0.0:
        raise DomainError(f"{name} must be non-negative, got {x!r}")


def check_positive(name: str, x) -> None:
    """Reject a bool and anything but a finite number > 0."""
    check_number(name, x)
    if not (finite(x) and x > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {x!r}")


def check_fraction(name: str, x) -> None:
    """Reject a bool and anything outside the open interval (0, 1)."""
    check_number(name, x)
    if not (finite(x) and 0.0 < x < 1.0):
        raise DomainError(f"{name} must lie in (0, 1), got {x!r}")


def check_count(name: str, n, least: int, error: type[ValueError] = DomainError) -> None:
    """Reject anything but an int (not a bool) of at least least."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise error(f"{name} must be at least {least}, got {n}")


def check_seed(seed) -> None:
    """Reject anything but a non-negative int, the seeds SeedSequence takes."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class PricePoint:
    """One joint observation of the two prices."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, x in (("p1", self.p1), ("p2", self.p2)):
            if type(x) is bool or not (isinstance(x, (int, float)) and finite(x) and x > 0.0):
                raise DomainError(f"{name} must be a finite positive number, got {x!r}")


class PriceSeries:
    """Immutable date-labelled pair of strictly positive price paths.

    Dates are opaque labels that must be strictly increasing under string
    comparison; they are never parsed. ISO-8601 dates satisfy this.
    """

    __slots__ = ("dates", "p1", "p2")

    def __init__(self, dates, p1, p2) -> None:
        dates = tuple(map(str, dates))
        p1 = np.asarray(p1, dtype=float).copy()
        p2 = np.asarray(p2, dtype=float).copy()
        if p1.ndim != 1 or p2.ndim != 1:
            raise DomainError("price arrays must be one-dimensional")
        if not (len(dates) == p1.size == p2.size):
            raise LengthError(
                f"length mismatch: {len(dates)} dates, {p1.size} p1, {p2.size} p2"
            )
        if len(dates) == 0:
            raise LengthError("a price series needs at least one observation")
        for arr, name in ((p1, "p1"), (p2, "p2")):
            if not np.all(np.isfinite(arr) & (arr > 0.0)):
                bad = int(np.argmin(np.isfinite(arr) & (arr > 0.0)))
                raise DomainError(f"{name}[{bad}] = {arr[bad]!r} is not a finite positive price")
        if not all(map(operator.lt, dates, dates[1:])):
            i = next(i for i in range(1, len(dates)) if not dates[i - 1] < dates[i])
            raise DomainError(
                f"dates must be strictly increasing, got {dates[i - 1]!r} before {dates[i]!r}"
            )
        p1.flags.writeable = False
        p2.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    def __setattr__(self, name, value):
        raise AttributeError("PriceSeries is immutable")

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (
            self.dates == other.dates
            and np.array_equal(self.p1, other.p1)
            and np.array_equal(self.p2, other.p2)
        )

    def window(self, start: int, stop: int) -> "PriceSeries":
        """Sub-series over [start, stop): slices of this already checked
        series, so the price arrays are read-only views."""
        if not (0 <= start < stop <= len(self)):
            raise LengthError(f"window [{start}, {stop}) out of range for length {len(self)}")
        sub = object.__new__(PriceSeries)
        object.__setattr__(sub, "dates", self.dates[start:stop])
        object.__setattr__(sub, "p1", self.p1[start:stop])
        object.__setattr__(sub, "p2", self.p2[start:stop])
        return sub

    def __repr__(self) -> str:
        return f"PriceSeries(n={len(self)}, first={self.dates[0]!r}, last={self.dates[-1]!r})"


def return_arrays(series: PriceSeries) -> np.ndarray:
    """Relative returns as an (n-1, 2) array; column i is X_{i+1}."""
    if len(series) < 2:
        raise LengthError("returns need at least two observations")
    out = np.empty((len(series) - 1, 2), dtype=float)
    out[:, 0] = series.p1[1:] / series.p1[:-1] - 1.0
    out[:, 1] = series.p2[1:] / series.p2[:-1] - 1.0
    return out
