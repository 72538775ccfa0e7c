"""Core type invariants: positive prices, ordered dates, relative returns."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrade.backtest import BacktestConfig, buy_and_hold
from pairtrade.domain import DomainError, LengthError, PricePoint, PriceSeries, return_arrays
from pairtrade.estimation import WindowConfig, estimate_gamma
from pairtrade.ingest import AdjustmentRule
from pairtrade.seeding import trial_generators
from pairtrade.spread import CointegrationSpread
from pairtrade.synthetic import OUPairSpec, generate_pair, verify_lemma, verify_theorem
from pairtrade.trading import allocate, threshold_approx, threshold_exact

log_prices = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def make_series(p1, p2):
    n = len(p1)
    return PriceSeries([f"{i:06d}" for i in range(n)], p1, p2)


class TestPricePoint:
    def test_valid(self):
        p = PricePoint(100.0, 50.0)
        assert p.p1 == 100.0 and p.p2 == 50.0

    @pytest.mark.parametrize("p1,p2", [(0.0, 50.0), (-1.0, 50.0), (100.0, 0.0), (100.0, -0.5)])
    def test_non_positive_rejected(self, p1, p2):
        with pytest.raises(DomainError):
            PricePoint(p1, p2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            PricePoint(bad, 50.0)

    def test_bool_rejected(self):
        with pytest.raises(DomainError, match="p1 must be a finite positive number, got True"):
            PricePoint(True, 50.0)
        with pytest.raises(DomainError, match="p2"):
            PricePoint(100.0, True)

    def test_int_beyond_float_range_rejected(self):
        # math.isfinite raises OverflowError on such an int
        with pytest.raises(DomainError, match="p1 must be a finite positive number"):
            PricePoint(10**400, 1.0)
        with pytest.raises(DomainError, match="p2"):
            PricePoint(1.0, -(10**400))


class TestPriceSeries:
    def test_happy(self):
        s = make_series([100.0, 105.0], [50.0, 50.0])
        assert len(s) == 2
        assert (s.p1[1], s.p2[1]) == (105.0, 50.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthError):
            PriceSeries(["a", "b"], [1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(LengthError):
            PriceSeries([], [], [])

    def test_non_positive_price(self):
        with pytest.raises(DomainError):
            make_series([100.0, 0.0], [50.0, 50.0])

    def test_unordered_dates(self):
        with pytest.raises(DomainError):
            PriceSeries(["2020-01-02", "2020-01-01"], [1.0, 1.0], [1.0, 1.0])

    def test_duplicate_dates(self):
        with pytest.raises(DomainError):
            PriceSeries(["2020-01-01", "2020-01-01"], [1.0, 1.0], [1.0, 1.0])

    def test_immutable(self):
        s = make_series([100.0, 105.0], [50.0, 50.0])
        with pytest.raises((AttributeError, ValueError)):
            s.p1[0] = 1.0
        with pytest.raises(AttributeError):
            s.p1 = np.array([1.0, 2.0])

    def test_window(self):
        s = make_series([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        w = s.window(1, 3)
        assert len(w) == 2
        assert list(w.p1) == [2.0, 3.0]
        with pytest.raises(LengthError):
            s.window(2, 7)

    @pytest.mark.parametrize("start,stop", [(0, 4), (1, 3), (3, 4)])
    def test_window_equals_checked_series(self, start, stop):
        # a window is built from slices without re-validation; it must still
        # be the series the checking constructor gives, and as immutable
        s = PriceSeries(["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        w = s.window(start, stop)
        assert isinstance(w, PriceSeries)
        assert w == PriceSeries(s.dates[start:stop], s.p1[start:stop], s.p2[start:stop])
        assert w.dates == s.dates[start:stop]
        assert not w.p1.flags.writeable and not w.p2.flags.writeable
        with pytest.raises((AttributeError, ValueError)):
            w.p1[0] = 9.0
        with pytest.raises(AttributeError):
            w.p2 = np.array([1.0])
        with pytest.raises(AttributeError):
            w.dates = ("x",)

    @pytest.mark.parametrize("start,stop", [(-1, 2), (2, 2), (3, 1), (0, 5)])
    def test_window_bad_range(self, start, stop):
        s = make_series([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        with pytest.raises(LengthError):
            s.window(start, stop)


class TestReturns:
    def test_hand_example(self):
        # p1: 100 -> 105 -> 99.75 gives +5% then -5%; p2 flat gives zeros
        s = make_series([100.0, 105.0, 99.75], [50.0, 50.0, 50.0])
        rets = return_arrays(s)
        assert rets.shape == (2, 2)
        assert rets[0, 0] == pytest.approx(0.05, abs=1e-12)
        assert rets[1, 0] == pytest.approx(-0.05, abs=1e-12)
        assert rets[0, 1] == 0.0 and rets[1, 1] == 0.0

    def test_too_short(self):
        s = make_series([100.0], [50.0])
        with pytest.raises(LengthError):
            return_arrays(s)

    def test_arrays_match_pairs(self):
        # each entry is the scalar one-period return of that consecutive pair
        p1, p2 = [100.0, 105.0, 99.75, 120.0], [50.0, 48.0, 51.0, 51.0]
        arr = return_arrays(make_series(p1, p2))
        for i in range(3):
            assert arr[i, 0] == p1[i + 1] / p1[i] - 1.0
            assert arr[i, 1] == p2[i + 1] / p2[i] - 1.0

    @given(st.lists(st.tuples(log_prices, log_prices), min_size=2, max_size=50))
    @example(logs=[(5.0, 0.0), (-4.837816947139164, 0.0), (0.0, 0.0)])
    @settings(max_examples=200)
    def test_reconstruction(self, logs):
        # Prices are recoverable from the first price and the returns, up to
        # the forward error of the arithmetic. With u = 2**-53, q = p[k+1] / p[k],
        # 1 + x and r * (1 + x) each round once (relative error <= u), and
        # x = q - 1 rounds once with absolute error <= u |x|, which 1 + x
        # turns into the relative error u |x| / (1 + x): a near-total loss
        # (x -> -1) is ill-conditioned. Step k so multiplies the relative
        # error of r by at most exp(a_k), a_k = (4 + |x_k| / (1 + x_k)) u,
        # one u of it covering the second-order terms, and after step k
        # |r - p[k+1]| <= expm1(a_0 + ... + a_k) p[k+1]. For |x| << 1 that is
        # about 4u = 4.4e-16 per step, under 1e-12 for 50 steps.
        u = 2.0**-53
        p1 = [math.exp(a) for a, _ in logs]
        p2 = [math.exp(b) for _, b in logs]
        s = make_series(p1, p2)
        rets = return_arrays(s)
        r1, r2 = p1[0], p2[0]
        a1 = a2 = 0.0
        for i, (x1, x2) in enumerate(rets.tolist()):
            assert x1 > -1.0 and x2 > -1.0
            r1 *= 1.0 + x1
            r2 *= 1.0 + x2
            a1 += (4.0 + abs(x1) / (1.0 + x1)) * u
            a2 += (4.0 + abs(x2) / (1.0 + x2)) * u
            assert abs(r1 - p1[i + 1]) <= math.expm1(a1) * p1[i + 1]
            assert abs(r2 - p2[i + 1]) <= math.expm1(a2) * p2[i + 1]
        if np.all(np.abs(rets) < 0.5):
            assert max(a1, a2) < 1e-12


# every public constructor and function that checks a scalar argument, as
# (owner, argument, call with that argument set to x, values it must reject):
# a bool of either kind, an int beyond the float range and NaN for a number,
# the bools and NaN for an integer
HUGE = 10**400
NUMBER = (True, np.True_, HUGE, math.nan)
# a threshold's price may be NaN, which marks a row without a price
PRICE = (True, np.True_, HUGE, 0.0, -5.0, math.inf, -math.inf)
POSITIVE = (*NUMBER, 0.0, -5.0, math.inf)
INTEGER = (True, np.True_, math.nan)
# +inf is a threshold that never trades
NON_NEGATIVE = (True, np.True_, HUGE, math.nan, -5.0, -math.inf)
# NaN and the infinities pass: a NaN spread never trades, and the row-loop
# oracle passes NaN gradients on the rows it does not trade
FLOAT = (True, np.True_, HUGE, -HUGE)
SPEC = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0)
PRICES = np.array([100.0, 101.0, 99.0])


def _theorem(**kw):
    return verify_theorem(OUPairSpec(**SPEC), **{"trials": 2, "periods": 3, **kw})


def _lemma(**kw):
    return verify_lemma(CointegrationSpread(2.0, 0.0), PricePoint(100.0, 50.0),
                        **{"gamma": 0.05, "samples": 2, **kw})


def _threshold(threshold, **kw):
    m = CointegrationSpread(2.0, 0.0)
    return threshold(m, **{"p1": 100.0, "p2": 50.0, "gamma": 0.05, "eta": 0.1, **kw})


def _allocate(**kw):
    return allocate(**{"g1": -0.02, "g2": 0.02, "p1": 100.0, "p2": 50.0, "spread": 0.1,
                       "threshold": 0.05, "account_value": 10_000.0, "leverage": 1.0, **kw})


SCALAR_ARGUMENTS = [
    ("PricePoint", "p1", lambda x: PricePoint(x, 50.0), NUMBER),
    ("PricePoint", "p2", lambda x: PricePoint(100.0, x), NUMBER),
    *[("OUPairSpec", name, lambda x, name=name: OUPairSpec(**{**SPEC, name: x}), NUMBER)
      for name in ("theta", "sigma_s", "sigma_w", "beta_true", "mu_true", "gamma_cap", "s0")],
    ("OUPairSpec", "seed", lambda x: OUPairSpec(**SPEC, seed=x), INTEGER),
    *[("BacktestConfig", name, lambda x, name=name: BacktestConfig(**{name: x}), NUMBER)
      for name in ("leverage", "initial_value", "gamma_override", "gamma_floor")],
    *[("WindowConfig", name, lambda x, name=name: WindowConfig(**{name: x}), INTEGER)
      for name in ("train_len", "trade_len")],
    ("CointegrationSpread", "beta", lambda x: CointegrationSpread(x, 0.0), NUMBER),
    ("CointegrationSpread", "mu", lambda x: CointegrationSpread(2.0, x), NUMBER),
    ("AdjustmentRule", "stock", lambda x: AdjustmentRule(x, 0, 2.0), NUMBER),
    ("AdjustmentRule", "effective_index", lambda x: AdjustmentRule(1, x, 2.0), INTEGER),
    ("AdjustmentRule", "factor", lambda x: AdjustmentRule(1, 0, x), NUMBER),
    ("estimate_gamma", "floor", lambda x: estimate_gamma(PRICES, PRICES, floor=x), NUMBER),
    ("buy_and_hold", "which",
     lambda x: buy_and_hold(make_series(PRICES, PRICES), x, 1.0), NUMBER),
    ("buy_and_hold", "initial",
     lambda x: buy_and_hold(make_series(PRICES, PRICES), 1, x), NUMBER),
    *[("verify_theorem", name, lambda x, name=name: _theorem(**{name: x}), INTEGER)
      for name in ("trials", "periods", "collect_bins")],
    *[("verify_theorem", name, lambda x, name=name: _theorem(**{name: x}), NUMBER)
      for name in ("leverage", "initial_value", "eta_assumed", "gamma_assumed")],
    ("verify_lemma", "samples", lambda x: _lemma(samples=x), INTEGER),
    ("verify_lemma", "gamma", lambda x: _lemma(gamma=x), NUMBER),
    ("verify_lemma", "band", lambda x: _lemma(band=x), NUMBER),
    ("verify_lemma", "seed", lambda x: _lemma(seed=x), INTEGER),
    ("generate_pair", "length", lambda x: generate_pair(OUPairSpec(**SPEC), x), INTEGER),
    ("trial_generators", "seed", lambda x: trial_generators(x, 2), INTEGER),
    ("trial_generators", "trials", lambda x: trial_generators(0, x), INTEGER),
    *[(t.__name__, name, lambda x, t=t, name=name: _threshold(t, **{name: x}), NUMBER)
      for t in (threshold_exact, threshold_approx) for name in ("gamma", "eta")],
    *[(t.__name__, name, lambda x, t=t, name=name: _threshold(t, **{name: x}), PRICE)
      for t in (threshold_exact, threshold_approx) for name in ("p1", "p2")],
    *[("allocate", name, lambda x, name=name: _allocate(**{name: x}), POSITIVE)
      for name in ("account_value", "leverage", "p1", "p2")],
    ("allocate", "threshold", lambda x: _allocate(threshold=x), NON_NEGATIVE),
    *[("allocate", name, lambda x, name=name: _allocate(**{name: x}), FLOAT)
      for name in ("spread", "g1", "g2")],
]


def _label(x):
    return "10**400" if x is HUGE else "-10**400" if x is FLOAT[-1] else repr(x)


@pytest.mark.parametrize(
    "name, call, x",
    [pytest.param(name, call, x, id=f"{owner}.{name}-{_label(x)}")
     for owner, name, call, values in SCALAR_ARGUMENTS for x in values],
)
def test_scalar_argument_rejected(name, call, x):
    # a bool was taken as 0 or 1 and a huge int raised OverflowError at some
    # of these; each now raises the entry point's own error naming the argument
    error = LengthError if name == "length" else DomainError
    with pytest.raises(error, match=f"^{name} must "):
        call(x)


@pytest.mark.parametrize(
    "kw, trades",
    [
        ({"threshold": math.inf}, False),
        ({"threshold": -0.0}, True),
        ({"spread": math.nan}, False),
        ({"spread": 0.01, "g1": math.nan}, False),
        ({"p1": 100, "account_value": 10_000}, True),
        ({"g1": math.inf}, True),
    ],
    ids=["threshold-inf", "threshold-minus-zero", "spread-nan", "flat-nan-gradient",
         "int-prices", "gradient-inf"],
)
def test_allocate_accepts_the_edges_of_its_domain(kw, trades):
    n1, n2 = _allocate(**kw)
    assert ((n1, n2) != (0.0, 0.0)) is trades
