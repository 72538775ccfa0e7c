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

from .domain import DomainError, LengthError, PriceSeries


class StationaryPointError(RuntimeError):
    """The spread gradient vanished; the allocation direction is undefined there."""


class DegenerateRegressorError(ValueError):
    """log p1 is constant over the window, so the slope is unidentifiable."""


class SpreadModel(ABC):
    """Interface for a spread function of two positive prices.

    Every method takes broadcastable prices (p1, p2), floats or arrays, and
    works elementwise. Implementations must be twice continuously
    differentiable on the positive quadrant and must not have stationary
    points. Stationarity is checked pointwise wherever a gradient is
    consumed; a quadrant-wide guarantee is the implementer's responsibility.
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
    """(g1, g2); rejects stationary points."""
    g1, g2 = model.gradient(p1, p2)
    if not np.logical_or(g1, g2).all():
        raise StationaryPointError(f"spread gradient vanishes at ({p1}, {p2})")
    return g1, g2


def spread_hessian(model: SpreadModel, p1, p2):
    """(h11, h12, h22) at (p1, p2), elementwise."""
    return model.hessian(p1, p2)


@dataclass(frozen=True)
class CointegrationSpread(SpreadModel):
    """Log-linear spread S(p) = log p2 - beta log p1 - mu."""

    beta: float
    mu: float

    def __post_init__(self) -> None:
        for name, x in (("beta", self.beta), ("mu", self.mu)):
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {x!r}")

    def value(self, p1, p2):
        return np.log(p2) - self.beta * np.log(p1) - self.mu

    def gradient(self, p1, p2):
        return -self.beta / np.asarray(p1, dtype=float), 1.0 / np.asarray(p2, dtype=float)

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.beta / (p1 * p1), 0.0, -1.0 / (p2 * p2)


def fit_cointegration(window: PriceSeries) -> CointegrationSpread:
    """Least-squares fit of log p2 = beta log p1 + mu over the window.

    Needs at least 3 observations and non-constant log p1.
    """
    if len(window) < 3:
        raise LengthError(f"cointegration fit needs at least 3 observations, got {len(window)}")
    x = np.log(window.p1)
    y = np.log(window.p2)
    xm = float(np.mean(x))
    ym = float(np.mean(y))
    dx = x - xm
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise DegenerateRegressorError("log p1 is constant over the window")
    beta = float(np.dot(dx, y - ym)) / sxx
    mu = ym - beta * xm
    return CointegrationSpread(beta=beta, mu=mu)
