"""Estimator oracles and properties.

Key facts exercised here:
  - estimate_eta([1.0, 0.9, 0.8]) = 0.2/1.9 by hand arithmetic.
  - estimate_eta of a geometric decay with ratio (1 - theta) recovers theta.
  - On a discrete mean-reverting recursion with rate theta, estimate_eta is
    consistent: a long sample lands near theta.
  - estimate_gamma is the max absolute windowed return, floored only at zero.
  - Both take a stack of windows along the last axis and give, row by row,
    what the one-window estimators in scalar_oracle give.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from pairtrade.domain import DomainError, LengthError, PriceSeries
from pairtrade.estimation import (
    DEFAULT_GAMMA_FLOOR,
    WindowConfig,
    estimate_eta,
    estimate_gamma,
)


def make_series(p1, p2):
    return PriceSeries([f"{i:06d}" for i in range(len(p1))], p1, p2)


class TestEstimateEta:
    def test_hand_example(self):
        # numerator -(sign(1)(0.9-1) + sign(0.9)(0.8-0.9)) = 0.2
        # denominator |1| + |0.9| = 1.9
        assert estimate_eta([1.0, 0.9, 0.8]) == pytest.approx(0.2 / 1.9, abs=1e-12)

    def test_constant_positive(self):
        assert estimate_eta([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_all_zero_denominator_rule(self):
        assert estimate_eta([0.0, 0.0, 0.0]) == 0.0

    def test_final_sample_only_in_numerator(self):
        # appending a wild final value changes the numerator but not the
        # denominator: [1, 1, z] has denominator exactly 2
        assert estimate_eta([1.0, 1.0, 3.0]) == pytest.approx(-2.0 / 2.0, abs=1e-12)

    def test_growth_is_negative(self):
        assert estimate_eta([1.0, 1.1, 1.21]) < 0.0

    def test_too_short(self):
        with pytest.raises(LengthError):
            estimate_eta([1.0])
        with pytest.raises(LengthError):
            estimate_eta([])

    def test_non_finite_window_gives_nan(self):
        assert math.isnan(estimate_eta([1.0, math.nan, 0.5]))
        assert math.isnan(estimate_eta([1.0, math.inf, 0.5]))

    def test_rows_are_windows(self):
        # a stack of paths is estimated row by row, bit for bit as one path
        # at a time, with the zero-denominator and non-finite rules per row
        rng = np.random.default_rng(8)
        paths = rng.normal(0.0, 1.0, (3, 5, 12))
        paths[1, 2] = 0.0
        paths[2, 4, 3] = math.nan
        got = estimate_eta(paths)
        assert got.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            want = scalar_oracle.estimate_eta(paths[i, j]) if (i, j) != (2, 4) else math.nan
            assert got[i, j] == want or math.isnan(got[i, j]) and math.isnan(want)

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(
                lambda x: 0.0 if abs(x) < 1e-6 else x
            ),
            min_size=2,
            max_size=40,
        ),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, series, c):
        base = estimate_eta(series)
        scaled = estimate_eta([c * x for x in series])
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=200)
    def test_geometric_decay_recovers_theta(self, theta, c, n):
        series = [c * (1.0 - theta) ** j for j in range(n)]
        assert estimate_eta(series) == pytest.approx(theta, rel=1e-9)

    def test_consistency_on_mean_reverting_recursion(self):
        # s(j+1) = (1 - theta) s(j) + noise with theta = 0.2; conditional
        # expected pull is exactly theta * |s|, so the long-sample estimate
        # must land near 0.2
        rng = np.random.default_rng(42)
        theta = 0.2
        n = 100_000
        u = rng.uniform(-1.0, 1.0, n)
        s = np.empty(n + 1)
        s[0] = 0.0
        for j in range(n):
            s[j + 1] = (1.0 - theta) * s[j] + 0.01 * u[j]
        eta = estimate_eta(s)
        assert 0.18 <= eta <= 0.22


class TestEstimateGamma:
    def test_hand_example(self):
        series = make_series([100.0, 105.0, 99.75], [50.0, 50.0, 50.0])
        assert estimate_gamma(series.p1, series.p2) == pytest.approx(0.05, abs=1e-12)

    def test_constant_prices_floored(self):
        series = make_series([100.0, 100.0, 100.0], [50.0, 50.0, 50.0])
        assert estimate_gamma(series.p1, series.p2) == DEFAULT_GAMMA_FLOOR
        assert estimate_gamma(series.p1, series.p2, floor=1e-3) == 1e-3

    def test_floor_only_at_exact_zero(self):
        # a tiny but non-zero max return is returned as-is, not floored
        series = make_series([100.0, 100.0 + 1e-7], [50.0, 50.0])
        got = estimate_gamma(series.p1, series.p2)
        assert 0.0 < got < DEFAULT_GAMMA_FLOOR

    def test_equals_max_abs_return(self):
        rng = np.random.default_rng(5)
        p1 = 100.0 * np.exp(np.cumsum(rng.uniform(-0.03, 0.03, 30)))
        p2 = 50.0 * np.exp(np.cumsum(rng.uniform(-0.02, 0.02, 30)))
        series = make_series(p1, p2)
        brute = max(
            max(abs(p1[i + 1] / p1[i] - 1.0), abs(p2[i + 1] / p2[i] - 1.0))
            for i in range(len(p1) - 1)
        )
        assert estimate_gamma(series.p1, series.p2) == brute

    def test_rows_are_windows(self):
        # sliding windows of one series, each bit for bit its own estimate;
        # a flat window takes the floor
        rng = np.random.default_rng(6)
        p1 = 100.0 * np.exp(np.cumsum(rng.uniform(-0.03, 0.03, 60)))
        p2 = 50.0 * np.exp(np.cumsum(rng.uniform(-0.02, 0.02, 60)))
        p1[20:30] = p1[20]
        p2[20:30] = p2[20]
        view = np.lib.stride_tricks.sliding_window_view
        got = estimate_gamma(view(p1, 8)[::3], view(p2, 8)[::3], floor=1e-3)
        series = make_series(p1, p2)
        want = [scalar_oracle.estimate_gamma(series.window(k, k + 8), 1e-3) for k in range(0, 53, 3)]
        assert got.tolist() == want
        assert 1e-3 in want

    def test_too_short(self):
        with pytest.raises(LengthError):
            estimate_gamma(np.array([100.0]), np.array([50.0]))

    def test_bad_floor(self):
        series = make_series([100.0, 101.0], [50.0, 50.0])
        with pytest.raises(DomainError):
            estimate_gamma(series.p1, series.p2, floor=0.0)


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert cfg.train_len == 40 and cfg.trade_len == 5

    @pytest.mark.parametrize("n,m", [(2, 5), (0, 1), (40, 0), (40, -1)])
    def test_invalid(self, n, m):
        with pytest.raises(DomainError):
            WindowConfig(train_len=n, trade_len=m)
