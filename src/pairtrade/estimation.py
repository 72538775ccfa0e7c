"""Rolling-window estimators for the return bound and the reversion rate.

gamma_hat is the largest absolute one-period relative return seen in the
window (floored only when the window is exactly flat). eta_hat measures how
strongly the fitted spread pulls toward zero:

    eta_hat = - sum_j sign(S_j) (S_{j+1} - S_j) / sum_j |S_j|

with both sums over j = 0 .. N-2. Positive eta_hat means observed mean
reversion; a window is tradeable iff eta_hat > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, LengthError, PriceSeries, return_arrays

DEFAULT_GAMMA_FLOOR = 1e-4


@dataclass(frozen=True)
class WindowConfig:
    """Staggered-window layout: train on train_len points, hold estimates
    for trade_len periods, then refit."""

    train_len: int = 40
    trade_len: int = 5

    def __post_init__(self) -> None:
        if not (isinstance(self.train_len, int) and self.train_len >= 3):
            raise DomainError(f"train_len must be an integer >= 3, got {self.train_len!r}")
        if not (isinstance(self.trade_len, int) and self.trade_len >= 1):
            raise DomainError(f"trade_len must be an integer >= 1, got {self.trade_len!r}")


def estimate_gamma(window: PriceSeries, floor: float = DEFAULT_GAMMA_FLOOR) -> float:
    """Max absolute relative return over the window; `floor` only if that max is 0."""
    if not (math.isfinite(floor) and floor > 0.0):
        raise DomainError(f"floor must be finite and positive, got {floor!r}")
    rets = return_arrays(window)
    m = float(np.max(np.abs(rets)))
    return floor if m == 0.0 else m


def estimate_eta(spread_series) -> float:
    """Reversion-rate estimate from a spread sample path.

    Returns 0.0 when the spread is identically zero over the window (the
    denominator vanishes). The final sample enters only through its
    difference with the one before it.
    """
    s = np.asarray(spread_series, dtype=float)
    if s.ndim != 1:
        raise DomainError(f"spread series must be one-dimensional, got shape {s.shape}")
    if s.size < 2:
        raise LengthError(f"eta estimate needs at least 2 samples, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise DomainError("spread series contains non-finite values")
    head = s[:-1]
    num = -float(np.sum(np.sign(head) * np.diff(s)))
    den = float(np.sum(np.abs(head)))
    if den == 0.0:
        return 0.0
    return num / den
