"""Spread models: twice-differentiable scalar functions of the two prices.

A spread model supplies value, gradient, and Hessian over broadcastable
price arrays (plain floats included), elementwise, with the three kept
mutually consistent. The log-linear model S(p) = log p2 - beta log p1 - mu
is the concrete family used throughout; its parameters are fit by least
squares on log prices.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, LengthError


class StationaryPointError(RuntimeError):
    """The spread gradient vanished; the allocation direction is undefined there."""


class SpreadModel(ABC):
    """Interface for a spread function of two positive prices.

    Every method takes broadcastable prices (p1, p2), floats or arrays, and
    works elementwise. Implementations must be twice continuously
    differentiable on the positive quadrant and must not have stationary
    points. Stationarity is checked pointwise wherever a gradient is
    consumed; a quadrant-wide guarantee is the implementer's responsibility.
    A model fitted on (..., n) windows holds parameters shaped (..., 1).
    """

    @abstractmethod
    def value(self, p1, p2):
        """S(p1, p2)."""

    @abstractmethod
    def gradient(self, p1, p2):
        """(dS/dp1, dS/dp2)."""

    @abstractmethod
    def hessian(self, p1, p2):
        """(h11, h12, h22), the entries of the symmetric Hessian."""


def spread_value(model: SpreadModel, p1, p2):
    """S at (p1, p2), elementwise."""
    return model.value(p1, p2)


def spread_gradient(model: SpreadModel, p1, p2):
    """(g1, g2); rejects stationary points, naming the first one."""
    g1, g2 = model.gradient(p1, p2)
    moves = np.logical_or(g1, g2)
    if not moves.all():
        a, b = (np.broadcast_to(p, moves.shape)[~moves][0] for p in (p1, p2))
        raise StationaryPointError(f"spread gradient vanishes at ({a}, {b})")
    return g1, g2


def spread_hessian(model: SpreadModel, p1, p2):
    """(h11, h12, h22) at (p1, p2), elementwise."""
    return model.hessian(p1, p2)


@dataclass(frozen=True)
class CointegrationSpread(SpreadModel):
    """Log-linear spread S(p) = log p2 - beta log p1 - mu; beta and mu are
    floats or per-window arrays, NaN in a window without a fit."""

    beta: float | np.ndarray
    mu: float | np.ndarray

    def __post_init__(self) -> None:
        for name, x in (("beta", self.beta), ("mu", self.mu)):
            if np.ndim(x) == 0 and not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {x!r}")

    def value(self, p1, p2):
        return np.log(p2) - self.beta * np.log(p1) - self.mu

    def gradient(self, p1, p2):
        return -self.beta / np.asarray(p1, dtype=float), 1.0 / np.asarray(p2, dtype=float)

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.beta / (p1 * p1), 0.0, -1.0 / (p2 * p2)


def fit_cointegration(p1, p2) -> CointegrationSpread:
    """Least-squares fit of log p2 = beta log p1 + mu over each window of
    the (..., n) price arrays, n >= 3; beta and mu are shaped (..., 1), NaN
    for a window of constant log p1."""
    x = np.log(p1)
    y = np.log(p2)
    n = x.shape[-1] if x.ndim else 1
    if n < 3:
        raise LengthError(f"cointegration fit needs at least 3 observations, got {n}")
    xm = np.mean(x, axis=-1, keepdims=True)
    ym = np.mean(y, axis=-1, keepdims=True)
    dx = (x - xm).reshape(-1, n)
    dy = (y - ym).reshape(-1, n)
    # one np.dot per window: a batched einsum sums in another order
    sxx = np.array([np.dot(a, a) for a in dx]).reshape(xm.shape)
    sxy = np.array([np.dot(a, b) for a, b in zip(dx, dy)]).reshape(xm.shape)
    beta = np.divide(sxy, sxx, out=np.full(sxx.shape, math.nan), where=sxx != 0.0)
    return CointegrationSpread(beta=beta, mu=ym - beta * xm)
