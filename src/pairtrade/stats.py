"""Student's t tail and the one-sided test on pooled profits, in Python floats."""

from __future__ import annotations

import math
import sys

# Student's t tail as 1/2 I_x(df/2, 1/2) with x = df / (df + t^2): the
# incomplete beta continued fraction of Press et al., Numerical Recipes (3rd
# ed., 2007), sec. 6.4, summed by the modified Lentz algorithm (Lentz,
# Applied Optics 15(3), 1976)
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LENTZ_TINY = 1e-300
_LENTZ_TERMS = 10_000


def _lgamma_half_step(a: float) -> float:
    """lgamma(a + 1/2) - lgamma(a) for a > 0.

    The plain difference of two lgamma values near a log a loses about 1e-9
    relative at a = 5e5. Instead a is raised to at least 20 by the recurrence
    Gamma(a + 3/2) / Gamma(a + 1) = (1 + 1/(2a)) Gamma(a + 1/2) / Gamma(a),
    and the asymptotic series 1/2 log a + sum (2^(1-n) - 2) B_n / (n (n-1) a^(n-1))
    over even n (B_n the Bernoulli numbers) is summed to n = 10; the first
    omitted term is below 2e-17 at a = 20.
    """
    shift = 0.0
    while a < 20.0:
        shift += math.log1p(0.5 / a)
        a += 1.0
    r = 1.0 / (a * a)
    series = (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 + r * (-31 / 18432))))) / a
    return 0.5 * math.log(a) + series - shift


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction cf of I_x(a, b) = x^a y^b / (a B(a, b)) cf, y = 1 - x.

    Numerical Recipes' fraction 1/(1 + d1/(1 + d2/(1 + ...))) is summed by
    its odd part, 1/(c0 + e1/(c1 + e2/(c2 + ...))) with c_m = 1 + d_2m + d_2m+1
    and e_m = -d_2m-1 d_2m, because at x near 1 and large a every 1 + d_2m+1
    is a difference of two numbers near 1 (1e-9 relative lost at df = 1e7).
    Each c_m is formed from whichever of x and y makes it a sum of
    non-negative terms.
    """
    # c_0 = 1 + d1 = 1 - (a + b) x / (a + 1) = ((1 - b) + (a + b) y) / (a + 1)
    c0 = ((1.0 - b) + (a + b) * y) if b <= 1.0 else (a + 1.0) - (a + b) * x
    g = c0 / (a + 1.0)
    if abs(g) < _LENTZ_TINY:
        g = _LENTZ_TINY
    c, d = g, 0.0
    for m in range(1, _LENTZ_TERMS):
        den = (a + 2 * m - 1.0) * (a + 2 * m + 1.0)
        # c_m = 1 - dy x / den = (cy + dy y) / den, with cy + dy = den
        cy = a * (2 * m + 1.0 - b) + 2.0 * m * m + b - 1.0
        dy = a * a + a * (b + 2 * m - 1.0) + 2.0 * m * m - b
        cm = (cy + dy * y) / den if cy >= 0.0 and dy >= 0.0 else 1.0 - dy * x / den
        em = (m * (b - m) * (a + m - 1.0) * (a + b + m - 1.0) * x * x
              / ((a + 2 * m) * (a + 2 * m - 2.0) * (a + 2 * m - 1.0) ** 2))
        d = cm + em * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = cm + em / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        g *= delta
        if abs(delta - 1.0) <= 2.0**-53:
            return 1.0 / g
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df > 0 degrees of freedom, in Python floats.

    Matches scipy.special.stdtr(df, -t) to 1e-13 relative wherever the tail
    is above 1e-50; deeper in the tail the error of either grows as
    |log p| 2^-53, the conditioning of p on t. Like stdtr it is 0.0 where
    the factor x^a y^(1/2) / B(a, 1/2) below is under the smallest normal
    float (stdtr's cut sits within a few percent of that factor). Meant for
    df below about 1e15, where a + 1 still differs from a = df / 2.
    """
    if t == 0.0:
        return 0.5
    t2 = t * t
    a = 0.5 * df
    x = df / (df + t2)
    y = t2 / (df + t2)
    # log of x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) Gamma(1/2) / Gamma(a + 1/2)
    log_front = (
        -a * math.log1p(t2 / df)
        + math.log(abs(t)) - 0.5 * math.log(df + t2)
        + _lgamma_half_step(a) - _HALF_LOG_PI
    )
    if x < (a + 1.0) / (a + 2.5):
        front = math.exp(log_front)
        tail = 0.5 * front * _beta_cf(a, 0.5, x, y) / a if front >= sys.float_info.min else 0.0
    else:
        # 1/2 I_x(a, 1/2) = 1/2 (1 - I_y(1/2, a)), where the fraction converges
        tail = 0.5 - math.exp(log_front) * _beta_cf(0.5, a, y, x)
    return tail if t > 0.0 else 1.0 - tail


def _one_sided_p(count: int, total: float, totsq: float) -> tuple[float | None, float | None]:
    """Mean and one-sided p-value for H0: mean <= 0, from running sums."""
    if count == 0:
        return None, None
    mean = total / count
    if count == 1:
        return mean, None
    var = (totsq - count * mean * mean) / (count - 1)
    if var <= 0.0:
        return mean, (0.0 if mean > 0.0 else 1.0)
    t_stat = mean / math.sqrt(var / count)
    return mean, _t_sf(t_stat, count - 1)
