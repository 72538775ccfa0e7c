"""Spread models: twice-differentiable scalar functions of the two prices.

A spread model supplies value, gradient, and Hessian over broadcastable
price arrays (plain floats included), elementwise, with the three kept
mutually consistent, and the two curvature terms the thresholds size
positions by: the centre term p' H(p) p of the approx threshold and the
curvature bound of the exact one. The log-linear model
S(p) = log p2 - beta log p1 - mu is the concrete family used throughout; its
parameters are fit by least squares on log prices, and both of its
curvature terms have closed forms.

Called with Python floats only (a CointegrationSpread's parameters included),
spread_gradient and the model's gradient, center_curvature and
curvature_bound compute in plain floats, in the array path's order, and
return bit-identical Python floats.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .domain import LengthError, check_finite


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
    The approx threshold needs center_curvature, whose generic default comes
    from hessian. The exact threshold needs curvature_bound: a model either
    supplies hessian_bounds, from which the generic default takes a sound
    bound, or overrides curvature_bound with its own; otherwise exact mode
    raises NotImplementedError and approx mode still works.
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

    def hessian_bounds(self, lo1, hi1, lo2, hi2):
        """((l11, u11), (l12, u12), (l22, u22)), elementwise: each pair holds
        that Hessian entry, as hessian computes it, at every xi in the cell
        [lo1, hi1] x [lo2, hi2]. The generic curvature_bound needs this."""
        raise NotImplementedError(f"{type(self).__name__} does not implement hessian_bounds, "
                                  "which the generic curvature_bound needs")

    def center_curvature(self, p1, p2):
        """p' H(p) p, elementwise: the Hessian's quadratic form at the price
        point in the direction of the prices themselves."""
        h11, h12, h22 = spread_hessian(self, p1, p2)
        return p1 * p1 * h11 + 2.0 * p1 * p2 * h12 + p2 * p2 * h22

    def curvature_bound(self, p1, p2, gamma):
        """sup over xi, d in the relative gamma box of |d' H(xi) d|, elementwise.

        The box holds every xi and d with |xi_i - p_i| <= gamma p_i and
        |d_i| <= gamma p_i; xi and d range over it independently, as the
        Taylor remainder of a move inside the box needs. This takes the
        hessian_bounds enclosure over the xi box and the largest _box_max
        over its 8 corners. For each d, d' H d is linear in the three
        entries, so its magnitude over the enclosure peaks at a corner, and
        _box_max is exact over d: the bound is never below the supremum, and
        is above it only as far as the enclosure is loose.
        """
        p1, p2, gamma = (np.asarray(x, dtype=float) for x in (p1, p2, gamma))
        a, b = gamma * p1, gamma * p2
        entries = self.hessian_bounds(p1 - a, p1 + a, p2 - b, p2 + b)
        corners = (_box_max(h11, h12, h22, a, b) for h11, h12, h22 in product(*entries))
        return reduce(np.maximum, corners)


def spread_value(model: SpreadModel, p1, p2):
    """S at (p1, p2), elementwise."""
    return model.value(p1, p2)


def spread_gradient(model: SpreadModel, p1, p2):
    """(g1, g2); rejects stationary points, naming the first one."""
    g1, g2 = model.gradient(p1, p2)
    if type(p1) is type(p2) is type(g1) is type(g2) is float and (g1 or g2):
        return g1, g2
    moves = np.logical_or(g1, g2)
    if not moves.all():
        a, b = (np.broadcast_to(p, moves.shape)[~moves][0] for p in (p1, p2))
        raise StationaryPointError(f"spread gradient vanishes at ({a}, {b})")
    return g1, g2


def spread_hessian(model: SpreadModel, p1, p2):
    """(h11, h12, h22) at (p1, p2), elementwise."""
    return model.hessian(p1, p2)


def _box_max(h11, h12, h22, a, b):
    """max |d' H d| over |d1| <= a, |d2| <= b for fixed H, elementwise.

    The form is quadratic, so the maximum lies on the boundary, and even, so
    the edges d1 = a and d2 = b hold every boundary value. Along an edge it
    is a parabola: its extremes are the vertices and the stationary points
    d2 = -h12 a / h22 and d1 = -h12 b / h11, clipped into the box.
    """

    def form(d1, d2):
        return np.abs(h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2)

    def stationary(num, den, half):
        shape = np.broadcast(num, den).shape
        return np.clip(np.divide(num, den, out=np.zeros(shape), where=den != 0.0), -half, half)

    # the vertices (a, b) and (a, -b) give s + t and s - t
    worst = np.abs(h11 * a * a + h22 * b * b) + np.abs(2.0 * h12 * a * b)
    worst = np.maximum(worst, form(a, stationary(-h12 * a, h22, b)))
    return np.maximum(worst, form(stationary(-h12 * b, h11, a), b))


@dataclass(frozen=True)
class CointegrationSpread(SpreadModel):
    """Log-linear spread S(p) = log p2 - beta log p1 - mu; beta and mu are
    floats or per-window arrays, NaN in a window without a fit. A scalar
    parameter is stored as a Python float."""

    beta: float | np.ndarray
    mu: float | np.ndarray

    def __post_init__(self) -> None:
        for name, x in (("beta", self.beta), ("mu", self.mu)):
            if np.ndim(x) == 0:
                check_finite(name, x)
                object.__setattr__(self, name, float(x))

    def value(self, p1, p2):
        return np.log(p2) - self.beta * np.log(p1) - self.mu

    def gradient(self, p1, p2):
        # a zero price divides by zero: numpy gives inf, Python raises
        if type(self.beta) is type(p1) is type(p2) is float and p1 and p2:
            return -self.beta / p1, 1.0 / p2
        return -self.beta / np.asarray(p1, dtype=float), 1.0 / np.asarray(p2, dtype=float)

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.beta / (p1 * p1), 0.0, -1.0 / (p2 * p2)

    def center_curvature(self, p1, p2):
        """beta - 1, broadcast to the price shape; NaN in a window without a
        fit. The generic sum p1^2 beta / p1^2 - p2^2 / p2^2 is this at every
        price, up to rounding that the closed form does not make."""
        if type(self.beta) is type(p1) is type(p2) is float:
            return self.beta - 1.0
        c = np.asarray(self.beta, dtype=float) - 1.0
        return np.broadcast_to(c, np.broadcast(p1, p2, c).shape)

    def curvature_bound(self, p1, p2, gamma):
        """(gamma / (1 - gamma))^2 c with c = max(beta, 1) + max(-beta, 0),
        broadcast to the price shape; NaN in a window without a fit.

        d' H(xi) d = beta (d1/xi1)^2 - (d2/xi2)^2 has no cross term, and each
        ratio |d_i / xi_i| is at most gamma / (1 - gamma) on the box. The two
        terms have opposite signs for beta > 0, so one alone is the largest,
        and the same sign for beta < 0, so they add.
        """
        if type(self.beta) is type(p1) is type(p2) is type(gamma) is float and gamma != 1.0:
            r = gamma / (1.0 - gamma)
            return r * r * (max(self.beta, 1.0) + max(-self.beta, 0.0))
        beta = np.asarray(self.beta, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        r = gamma / (1.0 - gamma)
        bound = r * r * (np.maximum(beta, 1.0) + np.maximum(-beta, 0.0))
        return np.broadcast_to(bound, np.broadcast(p1, p2, bound).shape)


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
    # (1, n) @ (n, 1) per window: matmul runs np.dot's kernel on each stack
    # entry, so the sums match a per-window np.dot bit for bit (a batched
    # einsum sums in another order)
    sxx = np.matmul(dx[:, None, :], dx[:, :, None]).reshape(xm.shape)
    sxy = np.matmul(dx[:, None, :], dy[:, :, None]).reshape(xm.shape)
    beta = np.divide(sxy, sxx, out=np.full(sxx.shape, math.nan), where=sxx != 0.0)
    return CointegrationSpread(beta=beta, mu=ym - beta * xm)
