"""Trading thresholds and the fully-invested allocation rule.

A position is opened only when |S(p)| exceeds a threshold tau sized so that
the expected pull toward zero beats the worst-case curvature error over the
uncertainty box of one-period price moves:

    tau_exact  = max over p' in box |(p'-p)' H(p') (p'-p)| / (2 eta)
    tau_approx = gamma^2 |p' H(p) p| / (2 eta)

Both thresholds work elementwise over broadcastable price arrays. Non-positive
eta gives tau = +inf, which disables trading. Holdings are
n = -lambda sign(S) grad S with lambda > 0 chosen so the gross exposure
|n1| p1 + |n2| p2 equals leverage * account_value exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import DomainError
from .spread import SpreadModel, spread_hessian

DEFAULT_GRID_POINTS = 41
THRESHOLD_MODES = ("approx", "exact")


def _check_rates(gamma: float, eta: float) -> None:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")


def _per_point(worst: np.ndarray, eta: float):
    """worst / (2 eta) per price point, +inf for non-positive eta; a float
    for scalar prices."""
    tau = worst / (2.0 * eta) if eta > 0.0 else np.full(worst.shape, math.inf)
    return tau if tau.ndim else float(tau)


def threshold_exact(model: SpreadModel, p1, p2, gamma: float, eta: float):
    """Worst-case curvature threshold via a grid scan of the box.

    The scan covers a DEFAULT_GRID_POINTS x DEFAULT_GRID_POINTS mesh of
    relative displacements in [-gamma, gamma]^2, always including the corners
    and the coordinate axes, and takes the max |quadratic form| over it.
    """
    _check_rates(gamma, eta)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    t = np.union1d(np.linspace(-gamma, gamma, DEFAULT_GRID_POINTS), [-gamma, 0.0, gamma])
    # displacements along the last axis; the mesh is (..., d1 index, d2 index)
    d1 = p1[..., None] * t
    d2 = p2[..., None] * t
    h11, h12, h22 = spread_hessian(
        model, (p1[..., None] + d1)[..., :, None], (p2[..., None] + d2)[..., None, :]
    )
    q = (d1 * d1)[..., :, None] * h11 + (d2 * d2)[..., None, :] * h22
    if np.any(h12):
        q = q + 2.0 * d1[..., :, None] * d2[..., None, :] * h12
    return _per_point(np.max(np.abs(q), axis=(-2, -1)), eta)


def threshold_approx(model: SpreadModel, p1, p2, gamma: float, eta: float):
    """Second-order threshold using only the Hessian at the center point."""
    _check_rates(gamma, eta)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
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
