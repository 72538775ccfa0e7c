"""Spread models outside the log-linear family, as test doubles.

Both use SpreadModel's generic curvature bound. RatioSpread is
S = p2/p1 - c, whose Hessian magnitude is monotone over a gamma box, so even
a scan that takes the Hessian at the displaced point only (the oracle
threshold_exact_grid) bounds its linearization error. CosPerturbedSpread is
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
