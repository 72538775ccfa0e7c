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

from .domain import DomainError, LengthError, check_positive

DEFAULT_GAMMA_FLOOR = 1e-4


@dataclass(frozen=True)
class WindowConfig:
    """Staggered-window layout: train on train_len points, hold estimates
    for trade_len periods, then refit."""

    train_len: int = 40
    trade_len: int = 5

    def __post_init__(self) -> None:
        for name, least in (("train_len", 3), ("trade_len", 1)):
            n = getattr(self, name)
            if isinstance(n, bool) or not (isinstance(n, int) and n >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def estimate_gamma(p1, p2, floor: float = DEFAULT_GAMMA_FLOOR) -> np.ndarray:
    """Max absolute relative return over each window of the (..., n) price
    arrays, shaped (...); `floor` only where that max is 0."""
    check_positive("floor", floor)
    m = 0.0
    for p in (np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)):
        if p.ndim == 0 or p.shape[-1] < 2:
            raise LengthError("returns need at least two observations")
        # the returns of return_arrays, p[k+1] / p[k] - 1
        m = np.maximum(m, np.max(np.abs(p[..., 1:] / p[..., :-1] - 1.0), axis=-1))
    return np.where(m == 0.0, floor, m)


def estimate_eta(spread_series) -> np.ndarray:
    """Reversion-rate estimate of each spread path along the last axis.

    0.0 where the path is identically zero (the denominator vanishes), NaN
    where it holds a non-finite value. The final sample enters only through
    its difference with the one before it.
    """
    s = np.asarray(spread_series, dtype=float)
    n = s.shape[-1] if s.ndim else 1
    if n < 2:
        raise LengthError(f"eta estimate needs at least 2 samples, got {n}")
    finite = np.isfinite(s).all(axis=-1)
    s = np.where(finite[..., None], s, 0.0)
    head = s[..., :-1]
    num = -np.sum(np.sign(head) * np.diff(s, axis=-1), axis=-1)
    den = np.sum(np.abs(head), axis=-1)
    eta = np.divide(num, den, out=np.zeros(den.shape), where=den != 0.0)
    return np.where(finite, eta, math.nan)
