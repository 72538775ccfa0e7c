"""Threshold and allocation rule checks.

Closed-form oracle used throughout: for the log-linear spread the worst
|quadratic form| over the relative box [-g, g]^2 is attained at the corners
or coordinate extremes, giving

    threshold_exact = max(beta, 1) * g^2 / ((1 - g)^2 * 2 eta)   for beta >= 0
    threshold_exact = (|beta| + 1) * g^2 / ((1 - g)^2 * 2 eta)   for beta < 0

(each log term's curvature contributes at most g^2/(1-g)^2 in magnitude, the
two terms have opposite signs for beta > 0 and the same sign for beta < 0).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrade.domain import DomainError
from pairtrade.spread import CointegrationSpread, SpreadModel
from pairtrade.trading import allocate, threshold_approx, threshold_exact
from scalar_oracle import threshold_exact_grid
from spread_models import CosPerturbedSpread, RatioSpread

P = (100.0, 50.0)


def _rows(rng):
    """20k price points as (4000, 5) arrays around P."""
    return (100.0 * np.exp(rng.normal(0.0, 0.1, (4000, 5))),
            50.0 * np.exp(rng.normal(0.0, 0.1, (4000, 5))))


def closed_form_exact(beta: float, g: float, eta: float) -> float:
    m = g * g / ((1.0 - g) * (1.0 - g))
    if beta >= 0.0:
        worst = max(beta, 1.0) * m
    else:
        worst = (abs(beta) + 1.0) * m
    return worst / (2.0 * eta)


class TestThresholdApprox:
    def test_hand_example(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        # gamma^2 |1 - beta| / (2 eta) = 0.0025 * 1 / 0.2
        assert threshold_approx(m, *P, 0.05, 0.1) == pytest.approx(0.0125, abs=1e-12)

    def test_beta_one_zero_threshold(self):
        m = CointegrationSpread(beta=1.0, mu=0.0)
        assert threshold_approx(m, *P, 0.05, 0.1) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("eta", [0.0, -0.3])
    def test_non_positive_eta_infinite(self, eta):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        assert threshold_approx(m, *P, 0.05, eta) == math.inf

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_gamma_domain(self, gamma):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        with pytest.raises(DomainError):
            threshold_approx(m, *P, gamma, 0.1)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=100)
    @example(beta=1.0, lp1=2.25, lp2=0.0)
    def test_price_independent_for_log_linear(self, beta, lp1, lp2):
        # p' H(p) p = beta - 1 for every price, so the approx threshold
        # cannot depend on where it is evaluated
        m = CointegrationSpread(beta=beta, mu=0.0)
        a = threshold_approx(m, *P, 0.05, 0.1)
        b = threshold_approx(m, math.exp(lp1), math.exp(lp2), 0.05, 0.1)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-18)


class TestThresholdExact:
    def test_hand_example(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        got = threshold_exact(m, *P, 0.05, 0.1)
        # 2 * 0.0025 / (0.9025 * 0.2)
        assert got == pytest.approx(0.0277008310249, rel=1e-9)

    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.0, 0.3, -0.7, -2.5])
    def test_matches_closed_form(self, beta):
        m = CointegrationSpread(beta=beta, mu=0.1)
        got = threshold_exact(m, *P, 0.05, 0.1)
        assert got == pytest.approx(closed_form_exact(beta, 0.05, 0.1), rel=1e-14)

    @pytest.mark.parametrize("beta", [2.0, 0.3])
    def test_grid_hits_corners_exactly(self, beta):
        # the displaced-point mesh scan finds the worst point at a box
        # corner/extreme, which its grid always contains
        m = CointegrationSpread(beta=beta, mu=0.0)
        got = threshold_exact_grid(m, *P, 0.05, 0.1)
        assert got == pytest.approx(closed_form_exact(beta, 0.05, 0.1), rel=1e-12)

    @given(
        beta=st.sampled_from([0.0, 1.0, -1.0, 1e-12, -1e-12]) | st.floats(-4.0, 4.0),
        gamma=st.floats(0.001, 0.5),
        lp1=st.floats(-3.0, 6.0),
        lp2=st.floats(-3.0, 6.0),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_closed_form_matches_grid_scan(self, beta, gamma, lp1, lp2):
        # the log-linear override against the mesh scan it replaced, whose
        # grid holds the corners and axes where the log-linear maximum lies
        m = CointegrationSpread(beta=beta, mu=0.3)
        p1, p2 = math.exp(lp1), math.exp(lp2)
        got = threshold_exact(m, p1, p2, gamma, 0.5)
        assert got == pytest.approx(threshold_exact_grid(m, p1, p2, gamma, 0.5), rel=1e-14)

    @pytest.mark.parametrize("model", [RatioSpread(), CosPerturbedSpread()], ids=["ratio", "cos"])
    @pytest.mark.parametrize(
        "p", [(100.0, 50.0), (97.0, 50.0), (103.0, 20.0), (99.7, 60.0), (1.0, 2.0)]
    )
    def test_generic_bound_dominates_scans(self, model, p):
        # the generic default against the displaced-point mesh scan, and
        # against a (xi, d) brute force with xi on a 201 x 201 grid and d on
        # a 21 x 21 grid; the 1e-13 allows for rounding, since each evaluates
        # the quadratic form in another order
        gamma = 0.05
        got = threshold_exact(model, *p, gamma, 0.5)
        assert got >= threshold_exact_grid(model, *p, gamma, 0.5) * (1.0 - 1e-13)
        u = np.linspace(-1.0, 1.0, 201)
        t = np.linspace(-1.0, 1.0, 21)
        d1 = (gamma * p[0] * t)[:, None]
        d2 = (gamma * p[1] * t)[None, :]
        brute = 0.0
        for x1 in (p[0] * (1.0 + gamma * u)).tolist():
            h11, h12, h22 = model.hessian(x1, p[1] * (1.0 + gamma * u)[:, None, None])
            q = h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2
            brute = max(brute, float(np.max(np.abs(q))))
        assert got >= brute * (1.0 - 1e-13)

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_non_positive_eta_infinite(self, eta):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        assert threshold_exact(m, *P, 0.05, eta) == math.inf

    def test_price_independent_for_log_linear(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        a = threshold_exact(m, 100.0, 50.0, 0.05, 0.1)
        b = threshold_exact(m, 3.0, 7000.0, 0.05, 0.1)
        c = threshold_exact(m, 0.02, 0.6, 0.05, 0.1)
        assert b == pytest.approx(a, rel=1e-12)
        assert c == pytest.approx(a, rel=1e-12)

    def test_exact_dominates_approx(self):
        # the approx threshold uses the center Hessian only; the worst-case
        # scan can only be larger for this family
        for beta in (2.0, 0.0, -0.7):
            m = CointegrationSpread(beta=beta, mu=0.0)
            assert threshold_exact(m, *P, 0.05, 0.1) >= threshold_approx(m, *P, 0.05, 0.1)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=100)
    def test_non_negative(self, beta, gamma, eta):
        m = CointegrationSpread(beta=beta, mu=0.0)
        assert threshold_exact(m, *P, gamma, eta) >= 0.0

    def test_gamma_domain(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        with pytest.raises(DomainError):
            threshold_exact(m, *P, 1.0, 0.1)

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    @pytest.mark.parametrize("eta", [0.1, -0.1])
    def test_arrays_match_scalar_calls(self, threshold, eta):
        # elementwise over price arrays, bit for bit, also for a spread whose
        # Hessian has a cross term
        p1 = np.array([100.0, 3.0, 0.02, 57.0])
        p2 = np.array([50.0, 7000.0, 0.6, 57.0])
        for m in (CointegrationSpread(beta=-0.7, mu=0.1), RatioSpread(0.0)):
            got = threshold(m, p1, p2, 0.05, eta)
            want = [threshold(m, a, b, 0.05, eta) for a, b in zip(p1.tolist(), p2.tolist())]
            assert isinstance(want[0], float)
            assert got.tolist() == want

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    def test_stacked_windows_match_scalar_calls(self, threshold):
        # one call over (windows, rows) prices, with a parameter set, gamma
        # and eta per window, equals scalar calls bit for bit
        rng = np.random.default_rng(4)
        p1 = 100.0 * np.exp(rng.normal(0.0, 0.3, (30, 7)))
        p2 = 50.0 * np.exp(rng.normal(0.0, 0.3, (30, 7)))
        beta = rng.normal(0.5, 1.5, (30, 1))
        mu = rng.normal(0.0, 0.1, (30, 1))
        gamma = rng.uniform(0.01, 0.2, (30, 1))
        eta = rng.uniform(-0.1, 0.5, (30, 1))
        for m, one in ((CointegrationSpread(beta, mu),
                        lambda i: CointegrationSpread(float(beta[i, 0]), float(mu[i, 0]))),
                       (RatioSpread(0.5), lambda i: RatioSpread(0.5))):
            got = threshold(m, p1, p2, gamma, eta)
            want = [[threshold(one(i), a, b, float(gamma[i, 0]), float(eta[i, 0]))
                     for a, b in zip(p1[i].tolist(), p2[i].tolist())] for i in range(30)]
            assert got.tolist() == want
            assert np.isinf(got[eta[:, 0] <= 0.0]).all()

    def test_exact_memory_bounded(self):
        # the log-linear bound is one value per row, and the generic default
        # a few row-sized arrays per enclosure corner, so 20k rows stay
        # within 8 MiB for either
        rng = np.random.default_rng(5)
        p1, p2 = _rows(rng)
        for m in (CointegrationSpread(rng.normal(1.5, 0.2, (4000, 1)), np.zeros((4000, 1))),
                  RatioSpread(0.5)):
            tracemalloc.start()
            try:
                tau = threshold_exact(m, p1, p2, 0.05, 0.1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert tau.shape == (4000, 5) and np.isfinite(tau).all()
            assert peak < 8 * 2**20

    def test_generic_bound_sound_on_cos_rows(self):
        # h12 = 0, h11 depends on xi1 only and h22 on xi2 only, so every pair
        # of an h11 taken on a dense xi1 grid and an h22 at an end of the xi2
        # range is reached; for H = diag(h11, h22) the largest |d' H d| is
        # at d = (a, 0), (0, b) or (a, b), and over H at the ranges' ends.
        # The bound is never below that reached value and at most 8% above
        m = CosPerturbedSpread()
        p1, p2 = _rows(np.random.default_rng(5))
        gamma = 0.05
        a, b = gamma * p1, gamma * p2
        h11_lo, h11_hi = np.full(p1.shape, np.inf), np.full(p1.shape, -np.inf)
        for u in np.linspace(-1.0, 1.0, 2001).tolist():
            h11 = m.hessian(p1 + a * u, p2)[0]
            h11_lo, h11_hi = np.minimum(h11_lo, h11), np.maximum(h11_hi, h11)
        reached = np.zeros(p1.shape)
        for h11 in (h11_lo, h11_hi):
            for x2 in (p2 - b, p2 + b):
                h22 = m.hessian(p1, x2)[2]
                for q in (h11 * a * a, h22 * b * b, h11 * a * a + h22 * b * b):
                    reached = np.maximum(reached, np.abs(q))
        bound = m.curvature_bound(p1, p2, gamma)
        assert (bound >= reached).all()
        assert (bound <= 1.08 * reached).all()

    def test_exact_needs_hessian_bounds(self):
        # a model with neither hessian_bounds nor its own curvature_bound
        # has no exact threshold; approx needs only the Hessian
        class HessianOnly(RatioSpread):
            hessian_bounds = SpreadModel.hessian_bounds

        with pytest.raises(NotImplementedError, match="^HessianOnly does not implement hessian_bounds,"):
            threshold_exact(HessianOnly(), *P, 0.05, 0.1)
        want = threshold_approx(RatioSpread(), *P, 0.05, 0.1)
        assert threshold_approx(HessianOnly(), *P, 0.05, 0.1) == want

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    def test_no_prices(self, threshold):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        assert threshold(m, np.empty((0, 3)), np.empty((0, 3)), 0.05, 0.1).shape == (0, 3)

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    def test_array_rates_validated(self, threshold):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        with pytest.raises(DomainError, match="gamma"):
            threshold(m, *P, np.array([0.05, 1.0]), 0.1)
        with pytest.raises(DomainError, match="eta"):
            threshold(m, *P, 0.05, np.array([0.1, math.nan]))

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    def test_prices_validated_but_nan_passes(self, threshold):
        # the engine marks rows it does not trade with NaN prices and eta 0
        m = CointegrationSpread(beta=2.0, mu=0.0)
        p1 = np.array([100.0, math.nan, 90.0])
        tau = threshold(m, p1, 50.0, 0.05, np.array([0.1, 0.0, 0.1]))
        assert tau[1] == math.inf and np.isfinite(tau[[0, 2]]).all()
        p1[2] = -1.0
        with pytest.raises(DomainError) as err:
            threshold(m, p1, 50.0, 0.05, 0.1)
        assert str(err.value) == "p1 must be finite and positive or NaN, got -1.0 at index [2]"

    @pytest.mark.parametrize("threshold", [threshold_exact, threshold_approx])
    def test_rate_error_names_first_offender(self, threshold):
        # a 20k-row call with one bad rate names that value and where it is,
        # not every rate
        m = CointegrationSpread(beta=2.0, mu=0.0)
        gamma = np.full((4000, 5), 0.05)
        gamma[1234, 3] = 1.5
        gamma[2000, 0] = 0.0
        with pytest.raises(DomainError) as err:
            threshold(m, *P, gamma, 0.1)
        assert str(err.value) == "gamma must lie in (0, 1), got 1.5 at index [1234, 3]"
        eta = np.full(20_000, 0.1)
        eta[777] = math.inf
        with pytest.raises(DomainError) as err:
            threshold(m, *P, 0.05, eta)
        assert str(err.value) == "eta must be finite, got inf at index [777]"
        with pytest.raises(DomainError) as err:
            threshold(m, *P, math.nan, 0.1)
        assert str(err.value) == "gamma must lie in (0, 1), got nan"


def _gradient(model):
    """(g1, g2) at P as floats, the gradient allocate takes."""
    return tuple(float(g) for g in model.gradient(*P))


class TestAllocate:
    def test_hand_example(self):
        # |g1| p1 + |g2| p2 = 0.02*100 + 0.02*50 = 3; lambda = 10000/3
        m = CointegrationSpread(beta=2.0, mu=0.0)
        n1, n2 = allocate(*_gradient(m), *P, spread=0.1, threshold=0.05, account_value=10_000.0)
        assert n1 == pytest.approx(10_000.0 / 3.0 * 0.02, rel=1e-12)
        assert n2 == pytest.approx(-10_000.0 / 3.0 * 0.02, rel=1e-12)

    def test_full_investment(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        for lev in (1.0, 0.5, 2.0):
            n1, n2 = allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0, leverage=lev)
            gross = abs(n1) * P[0] + abs(n2) * P[1]
            assert gross == pytest.approx(lev * 10_000.0, rel=1e-9)

    def test_inactive_at_threshold(self):
        # the rule is a strict inequality: |spread| must exceed the threshold
        m = CointegrationSpread(beta=2.0, mu=0.0)
        assert allocate(*_gradient(m), *P, 0.05, 0.05, 10_000.0) == (0.0, 0.0)

    def test_inactive_on_infinite_threshold(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        assert allocate(*_gradient(m), *P, 12.0, math.inf, 10_000.0) == (0.0, 0.0)

    def test_sign_flip(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        pos = allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0)
        neg = allocate(*_gradient(m), *P, -0.1, 0.05, 10_000.0)
        assert pos[0] == -neg[0]
        assert pos[1] == -neg[1]

    def test_sign_pattern_matches_rule(self):
        # holdings must point along -sign(S) grad S componentwise
        m = CointegrationSpread(beta=2.0, mu=0.0)
        holdings = allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0)
        g = m.gradient(*P)
        for n_i, g_i in zip(holdings, g):
            assert math.copysign(1.0, n_i) == math.copysign(1.0, -1.0 * g_i)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100)
    def test_scale_equivariance_in_value(self, c):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        base = allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0)
        scaled = allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0 * c)
        assert scaled[0] == pytest.approx(base[0] * c, rel=1e-12)
        assert scaled[1] == pytest.approx(base[1] * c, rel=1e-12)

    def test_validation(self):
        m = CointegrationSpread(beta=2.0, mu=0.0)
        with pytest.raises(DomainError):
            allocate(*_gradient(m), *P, 0.1, 0.05, 0.0)
        with pytest.raises(DomainError):
            allocate(*_gradient(m), *P, 0.1, 0.05, 10_000.0, leverage=0.0)
        with pytest.raises(DomainError):
            allocate(*_gradient(m), *P, 0.1, -0.01, 10_000.0)
        with pytest.raises(DomainError):
            allocate(*_gradient(m), *P, 0.1, math.nan, 10_000.0)


class TestStepAccount:
    def test_one_step_loss_bound(self):
        # at leverage L with |X_i| <= g, one step n . delta_p cannot lose more than L g V
        m = CointegrationSpread(beta=2.0, mu=0.0)
        rng = np.random.default_rng(3)
        value = 10_000.0
        g = 0.05
        for _ in range(500):
            x1, x2 = rng.uniform(-g, g, 2)
            n1, n2 = allocate(*_gradient(m), *P, 0.1, 0.02, value, leverage=1.0)
            dv = n1 * (P[0] * x1) + n2 * (P[1] * x2)
            assert dv >= -g * value * (1.0 + 1e-12)

    @given(
        g1=st.floats(-1e3, 1e3),
        g2=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        lp1=st.floats(-3.0, 6.0),
        lp2=st.floats(-3.0, 6.0),
        spread=st.floats(0.01, 1.0) | st.floats(-1.0, -0.01),
        leverage=st.floats(0.1, 20.0),
        value=st.floats(1.0, 1e7),
        gamma=st.floats(0.001, 0.5),
        x1=st.floats(-1.0, 1.0),
        x2=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_one_step_loss_within_leverage_gamma_value(
        self, g1, g2, lp1, lp2, spread, leverage, value, gamma, x1, x2
    ):
        # gross exposure is leverage * value, so moves of at most gamma in
        # each price lose at most leverage * gamma * value, whatever the
        # gradient; the 1e-12 allows for rounding in the holdings and moves
        p1, p2 = math.exp(lp1), math.exp(lp2)
        n1, n2 = allocate(g1, g2, p1, p2, spread, 0.0, value, leverage)
        dv = n1 * (p1 * (1.0 + gamma * x1) - p1) + n2 * (p2 * (1.0 + gamma * x2) - p2)
        assert dv >= -leverage * value * (gamma + 1e-12)
