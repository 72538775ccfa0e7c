"""Trading thresholds and the fully-invested allocation rule.

A position is opened only when |S(p)| exceeds a threshold tau sized so that
the expected pull toward zero beats the worst-case curvature error over the
uncertainty box of one-period price moves:

    tau_exact  = max over p' in box |(p'-p)' H(p') (p'-p)| / (2 eta)
    tau_approx = gamma^2 |p' H(p) p| / (2 eta)

Both thresholds work elementwise over broadcastable price, gamma and eta
arrays. Non-positive eta gives tau = +inf, which disables trading. Holdings are
n = -lambda sign(S) grad S with lambda > 0 chosen so the gross exposure
|n1| p1 + |n2| p2 equals leverage * account_value exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import DomainError
from .spread import SpreadModel, spread_hessian

THRESHOLD_MODES = ("approx", "exact")
# 41 relative displacements; -1, 0 and 1 (the box's corners and axes) exactly
UNIT_GRID = np.linspace(-1.0, 1.0, 41)
# mesh points times price points threshold_exact evaluates at once
MESH_CHUNK = 1 << 17


def _as_arrays(p1, p2, gamma, eta) -> tuple[np.ndarray, ...]:
    p1, p2, gamma, eta = (np.asarray(x, dtype=float) for x in (p1, p2, gamma, eta))
    if not ((gamma > 0.0) & (gamma < 1.0)).all():
        raise DomainError(f"gamma must lie in (0, 1), got {gamma.tolist()!r}")
    if not np.isfinite(eta).all():
        raise DomainError(f"eta must be finite, got {eta.tolist()!r}")
    return p1, p2, gamma, eta


def _per_point(worst: np.ndarray, eta: np.ndarray):
    """worst / (2 eta) per price point, +inf where eta is non-positive; a
    float for scalar inputs."""
    tau = np.full(np.broadcast(worst, eta).shape, math.inf)
    np.divide(worst, 2.0 * eta, out=tau, where=eta > 0.0)
    return tau if tau.ndim else float(tau)


def threshold_exact(model: SpreadModel, p1, p2, gamma, eta):
    """Worst-case curvature threshold via a grid scan of the box.

    The scan covers the square mesh gamma * UNIT_GRID of relative
    displacements in [-gamma, gamma]^2 and takes the max |quadratic form|
    over it, about MESH_CHUNK entries at a time to bound the memory.
    """
    p1, p2, gamma, eta = _as_arrays(p1, p2, gamma, eta)
    shape = np.broadcast(p1, p2, gamma).shape
    # a chunk is side x side mesh points; the mesh axes lead the price axes,
    # so model parameters shaped like the prices still broadcast
    side = min(len(UNIT_GRID), max(1, math.isqrt(MESH_CHUNK // max(1, math.prod(shape)))))
    lead = (1,) * len(shape)
    worst = np.zeros(shape)
    for i in range(0, len(UNIT_GRID), side):
        d1 = p1 * (gamma * UNIT_GRID[i : i + side].reshape(-1, 1, *lead))
        for j in range(0, len(UNIT_GRID), side):
            d2 = p2 * (gamma * UNIT_GRID[j : j + side].reshape(1, -1, *lead))
            h11, h12, h22 = spread_hessian(model, p1 + d1, p2 + d2)
            q = d1 * d1 * h11 + d2 * d2 * h22
            if not (np.isscalar(h12) and h12 == 0.0):
                q = q + 2.0 * d1 * d2 * h12
            worst = np.maximum(worst, np.max(np.abs(q), axis=(0, 1)))
    return _per_point(worst, eta)


def threshold_approx(model: SpreadModel, p1, p2, gamma, eta):
    """Second-order threshold using only the Hessian at the center point."""
    p1, p2, gamma, eta = _as_arrays(p1, p2, gamma, eta)
    h11, h12, h22 = spread_hessian(model, p1, p2)
    quad = p1 * p1 * h11 + 2.0 * p1 * p2 * h12 + p2 * p2 * h22
    return _per_point(gamma * gamma * np.abs(quad), eta)


def allocate(
    g1: float,
    g2: float,
    p1: float,
    p2: float,
    spread: float,
    threshold: float,
    account_value: float,
    leverage: float = 1.0,
) -> tuple[float, float]:
    """Threshold rule at one price point with spread gradient (g1, g2):
    holdings (n1, n2), flat (0.0, 0.0) unless |spread| > threshold, else
    fully invested against the spread direction."""
    if not (math.isfinite(account_value) and account_value > 0.0):
        raise DomainError(f"account_value must be finite and positive, got {account_value!r}")
    if not (math.isfinite(leverage) and leverage > 0.0):
        raise DomainError(f"leverage must be finite and positive, got {leverage!r}")
    if math.isnan(threshold) or threshold < 0.0:
        raise DomainError(f"threshold must be non-negative, got {threshold!r}")
    if not (abs(spread) > threshold):
        return 0.0, 0.0
    lam = leverage * account_value / (abs(g1) * p1 + abs(g2) * p2)
    s = math.copysign(1.0, spread)  # |spread| > threshold >= 0, so spread != 0
    return -lam * s * g1, -lam * s * g2
