"""Spread models outside the log-linear family, as test doubles.

Both use SpreadModel's generic curvature bound, and so supply
hessian_bounds. RatioSpread is S = p2/p1 - c, whose Hessian entries are
monotone in each price over a gamma box, so even a scan that takes the
Hessian at the displaced point only (the oracle threshold_exact_grid) bounds
its linearization error. CosPerturbedSpread is
S = log p2 - beta log p1 + a cos(pi (p1 - center) / width): its Hessian
changes sign inside a box, and that displaced-point scan under-states the
remainder there.
"""

import math

import numpy as np

from pairtrade.spread import SpreadModel


class RatioSpread(SpreadModel):
    """S = p2 / p1 - c, whose Hessian has a cross term."""

    def __init__(self, c=0.5):
        self.c = c

    def value(self, p1, p2):
        return np.asarray(p2) / p1 - self.c

    def gradient(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        return -np.asarray(p2) / (p1 * p1), 1.0 / p1

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        return 2.0 * np.asarray(p2) / (p1 * p1 * p1), -1.0 / (p1 * p1), 0.0

    def hessian_bounds(self, lo1, hi1, lo2, hi2):
        # h11 falls in p1 and rises in p2, h12 rises in p1, h22 is 0; the
        # end points go through hessian itself, so rounding agrees with it
        low, high = self.hessian(hi1, lo2), self.hessian(lo1, hi2)
        return (low[0], high[0]), (high[1], low[1]), (0.0, 0.0)


class CosPerturbedSpread(SpreadModel):
    """S = log p2 - beta log p1 + amplitude cos(pi (p1 - center) / width)."""

    def __init__(self, beta=2.0, amplitude=0.01, center=100.0, width=10.0):
        self.beta = beta
        self.amplitude = amplitude
        self.center = center
        self.k = math.pi / width

    def value(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        wave = self.amplitude * np.cos(self.k * (p1 - self.center))
        return np.log(p2) - self.beta * np.log(p1) + wave

    def gradient(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        wave = self.amplitude * self.k * np.sin(self.k * (p1 - self.center))
        return -self.beta / p1 - wave, 1.0 / np.asarray(p2, dtype=float)

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        wave = self.amplitude * self.k * self.k * np.cos(self.k * (p1 - self.center))
        return self.beta / (p1 * p1) - wave, 0.0, -1.0 / (np.asarray(p2, dtype=float) ** 2)

    def hessian_bounds(self, lo1, hi1, lo2, hi2):
        # h11 = beta / p1^2 - amplitude k^2 cos(k (p1 - center)): the first
        # term is monotone in p1, the second spans the range of cos over the
        # cell's angles; h22 = -1 / p2^2 rises in p2
        ends = [self.beta / (p * p) for p in np.broadcast_arrays(lo1, hi1)]
        c_lo, c_hi = _cos_range(self.k * (lo1 - self.center), self.k * (hi1 - self.center))
        scale = self.amplitude * self.k * self.k
        h11 = (np.minimum(*ends) - scale * c_hi, np.maximum(*ends) - scale * c_lo)
        h22 = tuple(-1.0 / (np.asarray(p, dtype=float) ** 2) for p in (lo2, hi2))
        return h11, (0.0, 0.0), h22


def _cos_range(lo, hi):
    """(min, max) of cos over the angles [lo, hi], elementwise: +-1 where the
    interval holds a multiple of 2 pi (or pi more), else the end values."""

    def holds(shift):
        # an integer m with lo <= shift + 2 pi m <= hi
        return np.floor((hi - shift) / (2.0 * math.pi)) >= (lo - shift) / (2.0 * math.pi)

    ends = np.cos(lo), np.cos(hi)
    return (np.where(holds(math.pi), -1.0, np.minimum(*ends)),
            np.where(holds(0.0), 1.0, np.maximum(*ends)))
