"""Spread model checks against independent finite-difference oracles.

The gradient oracle is a central difference of value(); the Hessian oracle is
a central difference of gradient(). Any analytic derivative that disagrees
with its oracle is wrong regardless of what it was meant to be.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from pairtrade.domain import DomainError, LengthError, PriceSeries
from pairtrade.spread import (
    CointegrationSpread,
    SpreadModel,
    _box_max,
    fit_cointegration,
    spread_gradient,
    spread_hessian,
    spread_value,
)
from spread_models import CosPerturbedSpread, RatioSpread

log_prices = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
# |beta| floored away from zero: a central difference cannot resolve a
# derivative component smaller than its own cancellation noise
betas = st.one_of(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=-5.0, max_value=-0.01),
)
any_betas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def fd_gradient(model, p1: float, p2: float, rel_step: float = 1e-6) -> np.ndarray:
    h1 = p1 * rel_step
    h2 = p2 * rel_step
    g1 = (model.value(p1 + h1, p2) - model.value(p1 - h1, p2)) / (2.0 * h1)
    g2 = (model.value(p1, p2 + h2) - model.value(p1, p2 - h2)) / (2.0 * h2)
    return np.array([g1, g2])


def fd_hessian(model, p1: float, p2: float, rel_step: float = 1e-6) -> np.ndarray:
    h1 = p1 * rel_step
    h2 = p2 * rel_step
    ga = model.gradient(p1 + h1, p2)
    gb = model.gradient(p1 - h1, p2)
    gc = model.gradient(p1, p2 + h2)
    gd = model.gradient(p1, p2 - h2)
    col1 = (np.asarray(ga) - np.asarray(gb)) / (2.0 * h1)
    col2 = (np.asarray(gc) - np.asarray(gd)) / (2.0 * h2)
    return np.column_stack([col1, col2])


def hessian_matrix(model, p1: float, p2: float) -> np.ndarray:
    h11, h12, h22 = model.hessian(p1, p2)
    return np.array([[h11, h12], [h12, h22]], dtype=float)


class TestValue:
    def test_log_points(self):
        m = CointegrationSpread(beta=2.0, mu=0.5)
        # log e^2 - 2 log e - 0.5 = -0.5
        assert m.value(math.e, math.e**2) == pytest.approx(-0.5, abs=1e-12)

    def test_identity_pair_zero(self):
        m = CointegrationSpread(beta=1.0, mu=0.0)
        for x in (0.5, 1.0, 37.2):
            assert m.value(x, x) == 0.0

    def test_beta_zero_ignores_p1(self):
        m = CointegrationSpread(beta=0.0, mu=0.0)
        assert m.value(123.0, 1.0) == 0.0
        assert m.value(5.0, math.e) == pytest.approx(1.0, rel=1e-15)

    def test_non_finite_params_rejected(self):
        with pytest.raises(DomainError):
            CointegrationSpread(beta=math.nan, mu=0.0)
        with pytest.raises(DomainError):
            CointegrationSpread(beta=1.0, mu=math.inf)

    def test_huge_int_params_rejected(self):
        # math.isfinite raises OverflowError on an int beyond the float range
        with pytest.raises(DomainError, match="beta must be finite"):
            CointegrationSpread(beta=10**400, mu=0.0)
        with pytest.raises(DomainError, match="mu must be finite"):
            CointegrationSpread(beta=1.0, mu=-(10**400))

    @pytest.mark.parametrize("flag", [True, np.True_, np.array(False)])
    def test_bool_params_rejected(self, flag):
        with pytest.raises(DomainError, match="beta must be a number"):
            CointegrationSpread(beta=flag, mu=0.0)
        with pytest.raises(DomainError, match="mu must be a number"):
            CointegrationSpread(beta=1.0, mu=flag)


class TestStoredParameters:
    @pytest.mark.parametrize("x", [2, np.float64(2.0), np.array(2.0), np.int64(2), 2.0])
    def test_scalar_stored_as_python_float(self, x):
        m = CointegrationSpread(beta=x, mu=x)
        assert type(m.beta) is float and type(m.mu) is float
        assert m.beta == m.mu == 2.0

    def test_per_window_arrays_untouched(self):
        beta = np.array([[1.5], [2.0]])
        mu = np.zeros((2, 1))
        m = CointegrationSpread(beta=beta, mu=mu)
        assert m.beta is beta and m.mu is mu


class TestGradient:
    def test_hand_example(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        g = spread_gradient(m, 100.0, 50.0)
        assert g[0] == pytest.approx(-0.02, rel=1e-15)
        assert g[1] == pytest.approx(0.02, rel=1e-15)

    def test_beta_zero(self):
        m = CointegrationSpread(beta=0.0, mu=0.0)
        g = spread_gradient(m, 100.0, 50.0)
        assert g[0] == 0.0
        assert g[1] == pytest.approx(1.0 / 50.0, rel=1e-15)

    @given(betas, log_prices, log_prices)
    @settings(max_examples=150)
    def test_matches_finite_differences(self, beta, lp1, lp2):
        m = CointegrationSpread(beta=beta, mu=0.3)
        p1, p2 = math.exp(lp1), math.exp(lp2)
        g = np.asarray(m.gradient(p1, p2))
        fd = fd_gradient(m, p1, p2)
        scale = np.maximum(np.abs(fd), 1e-9)
        assert np.all(np.abs(g - fd) / scale < 1e-6)

    def test_never_stationary(self):
        # second coordinate is 1/p2 > 0 for every positive price
        m = CointegrationSpread(beta=0.0, mu=0.0)
        g = spread_gradient(m, 1e6, 1e-6)
        assert g[1] > 0.0


class _FlatModel(SpreadModel):
    """Constant spread; gradient vanishes everywhere. Test double."""

    def value(self, p1, p2):
        return 1.0

    def gradient(self, p1, p2):
        return 0.0, 0.0

    def hessian(self, p1, p2):
        return 0.0, 0.0, 0.0

    def hessian_bounds(self, lo1, hi1, lo2, hi2):
        return (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)


class _LogLinearEnclosure(CointegrationSpread):
    """The log-linear spread with an enclosure for the generic curvature
    bound: beta / p1^2 is monotone in p1 and -1 / p2^2 rises in p2. Test
    double."""

    def hessian_bounds(self, lo1, hi1, lo2, hi2):
        (e11, _, l22), (f11, _, u22) = self.hessian(lo1, lo2), self.hessian(hi1, hi2)
        return (np.minimum(e11, f11), np.maximum(e11, f11)), (0.0, 0.0), (l22, u22)


ENCLOSED_MODELS = [
    RatioSpread(),
    CosPerturbedSpread(),
    CosPerturbedSpread(beta=-0.5, amplitude=0.3, center=3.0, width=0.7),
    _LogLinearEnclosure(2.0, 0.1),
    _LogLinearEnclosure(-0.7, 0.0),
    _FlatModel(),
]


class TestWrappers:
    def test_spread_value(self):
        m = CointegrationSpread(beta=2.0, mu=0.5)
        assert spread_value(m, math.e, math.e**2) == m.value(math.e, math.e**2)

    def test_stationary_point_rejected(self):
        with pytest.raises(Exception) as exc_info:
            spread_gradient(_FlatModel(), 1.0, 1.0)
        assert "stationar" in str(exc_info.value).lower() or "vanish" in str(exc_info.value).lower()


class TestHessian:
    def test_hand_example(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        h11, h12, h22 = spread_hessian(m, 100.0, 50.0)
        assert h11 == pytest.approx(2.0 / 100.0**2, rel=1e-15)
        assert h22 == pytest.approx(-1.0 / 50.0**2, rel=1e-15)
        assert h12 == 0.0

    @given(betas, log_prices, log_prices)
    @settings(max_examples=150)
    def test_matches_finite_differences(self, beta, lp1, lp2):
        m = CointegrationSpread(beta=beta, mu=-1.2)
        p1, p2 = math.exp(lp1), math.exp(lp2)
        h = hessian_matrix(m, p1, p2)
        fd = fd_hessian(m, p1, p2)
        scale = np.maximum(np.abs(fd), 1e-9)
        assert np.all(np.abs(h - fd) / scale < 1e-5)

    @given(any_betas, log_prices, log_prices)
    @settings(max_examples=100)
    def test_entries_match_hessian(self, beta, lp1, lp2):
        # the entries over price arrays must agree with the scalar hessian
        m = CointegrationSpread(beta=beta, mu=0.0)
        p1 = math.exp(lp1)
        p2 = math.exp(lp2)
        h11, h12, h22 = m.hessian(np.array([p1]), np.array([p2]))
        h = hessian_matrix(m, p1, p2)
        assert float(h11[0]) == h[0, 0]
        assert float(np.asarray(h12).reshape(-1)[0] if np.ndim(h12) else h12) == h[0, 1]
        assert float(h22[0]) == h[1, 1]


class TestCurvatureBound:
    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5, 0.0, -1e-12, -0.7, -3.0])
    def test_log_linear_override_matches_generic_default(self, beta):
        # the log-linear maximum lies at the enclosure corner from
        # xi = p (1 - gamma), so the closed form and the generic default
        # agree to rounding
        m = _LogLinearEnclosure(beta=beta, mu=0.2)
        p1 = np.array([100.0, 0.3, 420.0])
        p2 = np.array([50.0, 7.0, 0.05])
        for gamma in (0.001, 0.05, 0.4):
            want = SpreadModel.curvature_bound(m, p1, p2, gamma)
            np.testing.assert_allclose(m.curvature_bound(p1, p2, gamma), want, rtol=1e-14)

    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5, 0.0, -1e-12, -0.7, -3.0])
    def test_log_linear_center_curvature_matches_generic_default(self, beta):
        # the generic p' H(p) p is beta - 1 up to the rounding of its two
        # terms, each within a few ulps of beta or of 1
        m = CointegrationSpread(beta=beta, mu=0.2)
        p1 = np.array([100.0, 0.3, 420.0, 1e-3])
        p2 = np.array([50.0, 7.0, 0.05, 3e3])
        want = SpreadModel.center_curvature(m, p1, p2)
        got = m.center_curvature(p1, p2)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4.0 * np.spacing(max(abs(beta), 1.0)))

    @pytest.mark.parametrize("model", ENCLOSED_MODELS, ids=lambda m: type(m).__name__)
    @given(
        st.floats(0.01, 400.0),
        st.floats(0.01, 400.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, derandomize=True)
    def test_hessian_bounds_hold_the_hessian(self, model, lo1, lo2, w1, w2, t1, t2):
        # a cell [lo, lo (1 + w)] on each axis and a xi inside it: each
        # entry the model computes at xi lies within the entry's bounds
        hi1, hi2 = lo1 * (1.0 + w1), lo2 * (1.0 + w2)
        xi1 = min(max(lo1 + t1 * (hi1 - lo1), lo1), hi1)
        xi2 = min(max(lo2 + t2 * (hi2 - lo2), lo2), hi2)
        bounds = model.hessian_bounds(np.array(lo1), np.array(hi1), np.array(lo2), np.array(hi2))
        for (low, high), h in zip(bounds, model.hessian(np.array(xi1), np.array(xi2))):
            assert low <= h <= high

    def test_log_linear_broadcasts_to_prices(self):
        # per-window parameters against (windows, rows) prices; NaN where a
        # window has no fit, whatever its prices
        m = CointegrationSpread(np.array([[2.0], [math.nan], [-0.5]]), np.zeros((3, 1)))
        got = m.curvature_bound(np.full((3, 4), 100.0), np.full((3, 4), math.nan), 0.05)
        r = (0.05 / 0.95) ** 2
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got[[0, 2]], [[2.0 * r] * 4, [1.5 * r] * 4], rtol=1e-15)
        assert np.isnan(got[1]).all()

    def test_constant_hessian(self):
        got = SpreadModel.curvature_bound(_FlatModel(), np.ones((2, 3)), 2.0, 0.1)
        assert got.tolist() == [[0.0] * 3] * 2

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=200, derandomize=True)
    def test_box_max_is_the_box_maximum(self, h, a, b):
        # the vertices and clipped edge stationary points against a dense
        # scan of the box's edges, which holds every vertex
        h11, h12, h22 = h
        t = np.linspace(-1.0, 1.0, 2001)

        def form(d1, d2):
            return np.abs(h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2)

        scan = max(form(a, b * t).max(), form(a * t, b).max())
        got = float(_box_max(h11, h12, h22, a, b))
        # the scan can miss an edge's interior stationary point by a step
        # 1e-3 of the edge, which costs at most 1e-5 of the form's scale
        scale = abs(h11) * a * a + 2.0 * abs(h12) * a * b + abs(h22) * b * b
        assert scan * (1.0 - 1e-12) <= got <= scan + 1e-5 * scale


class TestFit:
    def test_exact_relation_recovered(self):
        # log p2 = 2 log p1 + 0.5 exactly
        p1 = np.array([100.0, 105.0, 98.0, 102.0, 110.0])
        p2 = np.exp(2.0 * np.log(p1) + 0.5)
        series = PriceSeries([f"{i}" for i in range(5)], p1, p2)
        m = fit_cointegration(series.p1, series.p2)
        assert m.beta.shape == m.mu.shape == (1,)
        assert m.beta == pytest.approx(2.0, rel=1e-12)
        assert m.mu == pytest.approx(0.5, rel=1e-12)
        assert np.all(np.abs(m.value(series.p1, series.p2)) < 1e-12)

    def test_too_short(self):
        with pytest.raises(LengthError):
            fit_cointegration(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_constant_p1_degenerate(self):
        # no slope: NaN parameters, so the window's spread is NaN
        m = fit_cointegration(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
        assert np.isnan(m.beta).all() and np.isnan(m.mu).all()
        assert np.isnan(m.value(5.0, 2.0)).all()

    def test_stacked_windows_equal_one_window_fits(self):
        # every row of a stack of windows, a flat one included, is fitted
        # bit for bit as the per-window least squares fit
        rng = np.random.default_rng(3)
        p1 = 80.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (6, 4, 40)), axis=-1))
        p2 = 30.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (6, 4, 40)), axis=-1))
        p1[2, 1] = 80.0
        m = fit_cointegration(p1, p2)
        assert m.beta.shape == m.mu.shape == (6, 4, 1)
        for i, j in np.ndindex(6, 4):
            one = scalar_oracle.fit_cointegration(p1[i, j], p2[i, j])
            if one is None:
                assert (i, j) == (2, 1)
                assert math.isnan(m.beta[i, j, 0]) and math.isnan(m.mu[i, j, 0])
            else:
                assert (m.beta[i, j, 0], m.mu[i, j, 0]) == (one.beta, one.mu)

    def test_matches_lstsq(self):
        rng = np.random.default_rng(7)
        logs1 = np.cumsum(rng.normal(0.0, 0.02, 60)) + math.log(80.0)
        noise = rng.normal(0.0, 0.01, 60)
        logs2 = 1.7 * logs1 - 0.3 + noise
        series = PriceSeries([f"{i:03d}" for i in range(60)], np.exp(logs1), np.exp(logs2))
        m = fit_cointegration(series.p1, series.p2)
        a = np.column_stack([logs1, np.ones(60)])
        coef, *_ = np.linalg.lstsq(a, logs2, rcond=None)
        assert m.beta == pytest.approx(coef[0], rel=1e-9)
        assert m.mu == pytest.approx(coef[1], rel=1e-9)

    def test_least_squares_local_optimality(self):
        # perturbing (beta, mu) in any direction cannot lower the residual sum
        rng = np.random.default_rng(11)
        logs1 = np.cumsum(rng.normal(0.0, 0.03, 40)) + 4.0
        logs2 = 0.8 * logs1 + 1.1 + rng.normal(0.0, 0.02, 40)
        series = PriceSeries([f"{i:03d}" for i in range(40)], np.exp(logs1), np.exp(logs2))
        m = fit_cointegration(series.p1, series.p2)

        def rss(beta, mu):
            r = logs2 - beta * logs1 - mu
            return float(np.dot(r, r))

        base = rss(m.beta, m.mu)
        eps = 1e-4
        for db, dm in [(eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps), (eps, eps), (-eps, -eps)]:
            assert rss(m.beta + db, m.mu + dm) >= base

    def test_values_along_matches_pointwise(self):
        series = PriceSeries(
            ["a", "b", "c", "d"],
            [100.0, 101.0, 99.0, 103.0],
            [50.0, 51.0, 49.5, 52.0],
        )
        m = fit_cointegration(series.p1, series.p2)
        vals = m.value(series.p1, series.p2)
        for i in range(4):
            assert vals[i] == pytest.approx(m.value(float(series.p1[i]), float(series.p2[i])), abs=1e-14)
