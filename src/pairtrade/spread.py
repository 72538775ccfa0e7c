"""Spread models: twice-differentiable scalar functions of the two prices.

A spread model supplies value, gradient, and Hessian over broadcastable
price arrays (plain floats included), elementwise, with the three kept
mutually consistent, and the curvature bound the exact threshold sizes
positions by. The log-linear model S(p) = log p2 - beta log p1 - mu is the
concrete family used throughout; its parameters are fit by least squares on
log prices, and its curvature bound has a closed form.

Called with Python floats only (a CointegrationSpread's parameters included),
spread_gradient and the model's gradient and curvature_bound compute in plain
floats, in the array path's order, and return bit-identical Python floats.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, LengthError, all_floats, finite


# relative displacements of the generic curvature bound's coarse xi mesh: 41
# of them, with -1, 0 and 1 (the box's corners and axes) exactly
UNIT_GRID = np.linspace(-1.0, 1.0, 41)
# the refinement mesh: one coarse step either side of the coarse argmax, at a
# tenth of the coarse spacing
FINE_GRID = np.linspace(-1.0, 1.0, 21) * (UNIT_GRID[1] - UNIT_GRID[0])
# mesh points times price points the generic curvature bound evaluates at once
MESH_CHUNK = 1 << 17


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

    def curvature_bound(self, p1, p2, gamma):
        """sup over xi, d in the relative gamma box of |d' H(xi) d|, elementwise.

        The box holds every xi and d with |xi_i - p_i| <= gamma p_i and
        |d_i| <= gamma p_i; xi and d range over it independently, as the
        Taylor remainder of a move inside the box needs. At each xi this
        takes the exact maximum over d (see _box_max). xi itself is sampled:
        on the mesh p (1 + gamma UNIT_GRID), which holds the box's corners
        and axes, and then on a FINE_GRID mesh ten times finer around each
        point's coarse argmax. Caveat: xi is still sampled on a grid, so a
        Hessian whose magnitude peaks more sharply than the coarse spacing,
        or at more than one place, can exceed the bound between grid points.
        A model that knows its bound in closed form should override this.
        The mesh goes about MESH_CHUNK mesh-times-price entries at a time.
        """
        p1, p2, gamma = (np.asarray(x, dtype=float) for x in (p1, p2, gamma))
        _, u1, u2 = _mesh_max(self, p1, p2, gamma, 0.0, 0.0, UNIT_GRID)
        return _mesh_max(self, p1, p2, gamma, u1, u2, FINE_GRID)[0]


def spread_value(model: SpreadModel, p1, p2):
    """S at (p1, p2), elementwise."""
    return model.value(p1, p2)


def spread_gradient(model: SpreadModel, p1, p2):
    """(g1, g2); rejects stationary points, naming the first one."""
    g1, g2 = model.gradient(p1, p2)
    if all_floats(p1, p2, g1, g2) and (g1 or g2):
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


def _mesh_max(model, p1, p2, gamma, c1, c2, grid):
    """(worst, u1, u2): the largest _box_max over xi = p (1 + gamma u) with
    u = clip(c + grid, -1, 1) on each axis, and the u where it was found.

    The mesh axes lead the price axes, so model parameters shaped like the
    prices still broadcast; it goes in square chunks of about MESH_CHUNK
    mesh-times-price entries.
    """
    shape = np.broadcast(p1, p2, gamma).shape
    side = min(len(grid), max(1, math.isqrt(MESH_CHUNK // max(1, math.prod(shape)))))
    lead = (1,) * len(shape)
    a, b = gamma * p1, gamma * p2
    worst = np.zeros(shape)
    at1 = at2 = np.zeros(shape, dtype=np.intp)
    for i in range(0, len(grid), side):
        v1 = np.clip(c1 + grid[i : i + side].reshape(-1, 1, *lead), -1.0, 1.0)
        for j in range(0, len(grid), side):
            v2 = np.clip(c2 + grid[j : j + side].reshape(1, -1, *lead), -1.0, 1.0)
            h11, h12, h22 = spread_hessian(model, p1 + a * v1, p2 + b * v2)
            cols = v2.shape[1]
            q = np.broadcast_to(_box_max(h11, h12, h22, a, b), (len(v1), cols, *shape))
            q = q.reshape(-1, *shape)
            k = np.argmax(q, axis=0)
            best = np.take_along_axis(q, k[None], axis=0)[0]
            moved = best > worst
            worst = np.maximum(worst, best)
            # the chunk's mesh points are flattened row-major into k
            at1 = np.where(moved, i + k // cols, at1)
            at2 = np.where(moved, j + k % cols, at2)
    return worst, np.clip(c1 + grid[at1], -1.0, 1.0), np.clip(c2 + grid[at2], -1.0, 1.0)


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
                if np.asarray(x).dtype == bool:
                    raise DomainError(f"{name} must be a number, got {x!r}")
                if not finite(x):
                    raise DomainError(f"{name} must be finite, got {x!r}")
                object.__setattr__(self, name, float(x))

    def value(self, p1, p2):
        return np.log(p2) - self.beta * np.log(p1) - self.mu

    def gradient(self, p1, p2):
        # a zero price divides by zero: numpy gives inf, Python raises
        if all_floats(self.beta, p1, p2) and p1 and p2:
            return -self.beta / p1, 1.0 / p2
        return -self.beta / np.asarray(p1, dtype=float), 1.0 / np.asarray(p2, dtype=float)

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.beta / (p1 * p1), 0.0, -1.0 / (p2 * p2)

    def curvature_bound(self, p1, p2, gamma):
        """(gamma / (1 - gamma))^2 c with c = max(beta, 1) + max(-beta, 0),
        broadcast to the price shape; NaN in a window without a fit.

        d' H(xi) d = beta (d1/xi1)^2 - (d2/xi2)^2 has no cross term, and each
        ratio |d_i / xi_i| is at most gamma / (1 - gamma) on the box. The two
        terms have opposite signs for beta > 0, so one alone is the largest,
        and the same sign for beta < 0, so they add.
        """
        if all_floats(self.beta, p1, p2, gamma) and gamma != 1.0:
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
