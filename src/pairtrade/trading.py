"""Trading thresholds and the fully-invested allocation rule.

A position is opened only when |S(p)| exceeds a threshold tau sized so that
the expected pull toward zero beats the worst-case curvature error over the
uncertainty box of one-period price moves:

    tau_exact  = max over p' in box |(p'-p)' H(p') (p'-p)| / (2 eta)
    tau_approx = gamma^2 |p' H(p) p| / (2 eta)

Non-positive eta gives tau = +inf, which disables trading. Holdings are
n = -lambda sign(S) grad S with lambda > 0 chosen so the gross exposure
|n1| p1 + |n2| p2 equals leverage * account_value exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, PricePoint
from .estimation import sign
from .spread import SpreadModel, spread_gradient, spread_hessian

DEFAULT_GRID_POINTS = 41
THRESHOLD_MODES = ("approx", "exact")


@dataclass(frozen=True)
class TradeDecision:
    """Outcome of one allocation decision at a single period."""

    spread: float
    threshold: float
    active: bool
    holdings: tuple[float, float]
    lam: float = 0.0


def _check_gamma(gamma: float) -> None:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")


def threshold_exact(
    model: SpreadModel,
    p: PricePoint,
    gamma: float,
    eta: float,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> float:
    """Worst-case curvature threshold via a grid scan of the box.

    The scan covers a grid_points x grid_points mesh of relative
    displacements in [-gamma, gamma]^2, always including the corners and the
    coordinate axes, and takes the max |quadratic form| over it.
    """
    _check_gamma(gamma)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if grid_points < 2:
        raise DomainError(f"grid_points must be at least 2, got {grid_points}")
    if eta <= 0.0:
        return math.inf
    t = np.union1d(np.linspace(-gamma, gamma, grid_points), [-gamma, 0.0, gamma])
    d1 = p.p1 * t
    d2 = p.p2 * t
    h11, h12, h22 = model.hessian_entries(
        (p.p1 + d1)[:, None], (p.p2 + d2)[None, :]
    )
    q = (d1 * d1)[:, None] * h11 + (d2 * d2)[None, :] * h22
    if np.any(h12):
        q = q + 2.0 * d1[:, None] * d2[None, :] * h12
    worst = float(np.max(np.abs(q)))
    return worst / (2.0 * eta)


def threshold_approx(model: SpreadModel, p: PricePoint, gamma: float, eta: float) -> float:
    """Second-order threshold using only the Hessian at the center point."""
    _check_gamma(gamma)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= 0.0:
        return math.inf
    h = spread_hessian(model, p)
    quad = (
        p.p1 * p.p1 * float(h[0, 0])
        + 2.0 * p.p1 * p.p2 * float(h[0, 1])
        + p.p2 * p.p2 * float(h[1, 1])
    )
    return gamma * gamma * abs(quad) / (2.0 * eta)


def allocate(
    model: SpreadModel,
    p: PricePoint,
    spread: float,
    threshold: float,
    account_value: float,
    leverage: float = 1.0,
) -> TradeDecision:
    """Threshold rule: flat unless |spread| > threshold, else fully invested
    against the spread direction."""
    if not (math.isfinite(account_value) and account_value > 0.0):
        raise DomainError(f"account_value must be finite and positive, got {account_value!r}")
    if not (math.isfinite(leverage) and leverage > 0.0):
        raise DomainError(f"leverage must be finite and positive, got {leverage!r}")
    if math.isnan(threshold) or threshold < 0.0:
        raise DomainError(f"threshold must be non-negative, got {threshold!r}")
    if not (abs(spread) > threshold):
        return TradeDecision(spread, threshold, False, (0.0, 0.0))
    g = spread_gradient(model, p)
    g1 = float(g[0])
    g2 = float(g[1])
    lam = leverage * account_value / (abs(g1) * p.p1 + abs(g2) * p.p2)
    s = sign(spread)
    return TradeDecision(spread, threshold, True, (-lam * s * g1, -lam * s * g2), lam)


def step_account(holdings: tuple[float, float], delta_p: tuple[float, float]) -> float:
    """Mark-to-market profit n . delta_p of held positions over one period."""
    return holdings[0] * delta_p[0] + holdings[1] * delta_p[1]
