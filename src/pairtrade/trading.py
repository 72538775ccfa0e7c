"""Trading thresholds and the fully-invested allocation rule.

A position is opened only when |S(p)| exceeds a threshold tau sized so that
the expected pull toward zero beats the worst-case curvature error over the
uncertainty box of one-period price moves:

    tau_exact  = sup over xi, d in box |d' H(xi) d| / (2 eta)
    tau_approx = gamma^2 |p' H(p) p| / (2 eta)

The box holds the relative moves of at most gamma in each price, xi and d
independently. Both curvature terms come from the spread model, the
supremum from its curvature_bound and p' H(p) p from its center_curvature,
so each threshold makes one model call and divides by 2 eta. Both
thresholds work elementwise over broadcastable price, gamma and eta arrays;
called with Python floats only, they check and divide in plain floats, in
the array path's order, and return bit-identical Python floats (a model
without a float path may still use numpy). A price must be finite and
positive, or NaN for a point without a price. A NaN threshold is always the
quiet NaN math.nan. Non-positive eta gives tau = +inf, which disables
trading. Holdings are
n = -lambda sign(S) grad S with lambda > 0 chosen so the gross exposure |n1| p1 + |n2| p2 equals
leverage * account_value exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    DomainError, check_float, check_non_negative, check_number, check_positive,
)
from .spread import SpreadModel

THRESHOLD_MODES = ("approx", "exact")


def _check(name: str, x: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Raise DomainError naming the first element of x where ok is False."""
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)
        where = f" at index [{', '.join(map(str, at))}]" if at else ""
        raise DomainError(f"{name} must {rule}, got {x[at].item()!r}{where}")


def _rate(name: str, x, rule: str, ok) -> np.ndarray:
    """x as a float array where ok holds; a bool (Python's or numpy's) and an
    int beyond the float range raise DomainError too."""
    check_number(name, x)
    try:
        x = np.asarray(x, dtype=float)
    except OverflowError:
        raise DomainError(f"{name} must {rule}, got {x!r}") from None
    _check(name, x, ok(x), rule)
    return x


def _as_arrays(p1, p2, gamma, eta) -> tuple:
    """The checked inputs as float arrays; Python floats that pass stay floats.
    A NaN price passes: the engine gives rows it does not trade NaN prices."""
    if (type(p1) is type(p2) is type(gamma) is type(eta) is float
            and 0.0 < p1 < math.inf and 0.0 < p2 < math.inf
            and 0.0 < gamma < 1.0 and math.isfinite(eta)):
        return p1, p2, gamma, eta
    p1, p2 = (_rate(name, p, "be finite and positive or NaN",
                    lambda x: np.isnan(x) | ((x > 0.0) & (x < math.inf)))
              for name, p in (("p1", p1), ("p2", p2)))
    gamma = _rate("gamma", gamma, "lie in (0, 1)", lambda g: (g > 0.0) & (g < 1.0))
    return p1, p2, gamma, _rate("eta", eta, "be finite", np.isfinite)


def _per_point(worst, eta):
    """worst / (2 eta) per price point, +inf where eta is non-positive; a
    float for scalar inputs. Every NaN comes out as the one quiet NaN: which
    of two NaN operands an addition passes on differs between numpy's scalar
    and array loops, so a NaN's payload and sign carry no meaning."""
    if type(worst) is type(eta) is float:
        tau = worst / (2.0 * eta) if eta > 0.0 else math.inf
        return tau if tau == tau else math.nan
    tau = np.full(np.broadcast(worst, eta).shape, math.inf)
    np.divide(worst, 2.0 * eta, out=tau, where=eta > 0.0)
    np.copyto(tau, math.nan, where=np.isnan(tau))
    return tau if tau.ndim else float(tau)


def threshold_exact(model: SpreadModel, p1, p2, gamma, eta):
    """Worst-case curvature threshold: the model's curvature_bound over the
    gamma box around each price point, over 2 eta."""
    p1, p2, gamma, eta = _as_arrays(p1, p2, gamma, eta)
    return _per_point(model.curvature_bound(p1, p2, gamma), eta)


def threshold_approx(model: SpreadModel, p1, p2, gamma, eta):
    """Second-order threshold from the curvature at the center point only:
    gamma^2 times the model's center_curvature, over 2 eta."""
    p1, p2, gamma, eta = _as_arrays(p1, p2, gamma, eta)
    return _per_point(gamma * gamma * abs(model.center_curvature(p1, p2)), eta)


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
    fully invested against the spread direction.

    The prices, account_value and leverage must be finite and positive and
    the threshold non-negative (+inf never trades). The spread may be NaN,
    which never trades, and the gradient may be non-finite: the row-loop
    oracle in the tests passes NaN gradients on rows it does not trade."""
    check_positive("account_value", account_value)
    check_positive("leverage", leverage)
    check_non_negative("threshold", threshold)
    check_positive("p1", p1)
    check_positive("p2", p2)
    for name, x in (("spread", spread), ("g1", g1), ("g2", g2)):
        check_float(name, x)
    if not (abs(spread) > threshold):
        return 0.0, 0.0
    lam = leverage * account_value / (abs(g1) * p1 + abs(g2) * p2)
    s = math.copysign(1.0, spread)  # |spread| > threshold >= 0, so spread != 0
    return -lam * s * g1, -lam * s * g2
