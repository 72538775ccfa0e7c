"""Backtest engine: ledger accounting, cadence, determinism, degeneracies.

The decisive invariant is exact ledger consistency: the value column must be
reproducible from the recorded holdings and realized price moves with zero
tolerance, because the engine computes it that way and the ledger is the
audit trail.
"""

import csv
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_oracle
from pairtrade.backtest import (
    LEDGER_COLUMNS,
    BacktestConfig,
    BacktestReport,
    buy_and_hold,
    max_drawdown,
    run_backtest,
    write_ledger_csv,
    write_plot_csv,
    write_report_json,
)
from pairtrade.cli import main
from pairtrade.domain import DomainError, LengthError, PriceSeries
from pairtrade.estimation import WindowConfig
from pairtrade.ingest import load_csv
from pairtrade.spread import (
    CointegrationSpread,
    SpreadModel,
    StationaryPointError,
    fit_cointegration,
)
from pairtrade.synthetic import OUPairSpec, generate_pair

BASE_SPEC = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, mu_true=0.0, gamma_cap=0.05)


def synthetic_series(seed=0, length=400, **kw):
    return generate_pair(OUPairSpec(**{**BASE_SPEC, **kw}, seed=seed), length)


def make_series(p1, p2):
    return PriceSeries([f"{i:06d}" for i in range(len(p1))], p1, p2)


class TestBuyAndHold:
    def test_hand_example(self):
        series = make_series([100.0, 126.0, 59.0], [1.0, 1.0, 1.0])
        path = buy_and_hold(series, 1, 10_000.0)
        assert path == pytest.approx([10_000.0, 12_600.0, 5_900.0], rel=1e-12)

    def test_constant(self):
        series = make_series([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert np.all(buy_and_hold(series, 1, 777.0) == 777.0)

    def test_validation(self):
        series = make_series([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            buy_and_hold(series, 3, 100.0)
        with pytest.raises(DomainError):
            buy_and_hold(series, 1, 0.0)


class TestMaxDrawdown:
    def test_hand_examples(self):
        assert max_drawdown([100.0, 178.0, 21.0]) == pytest.approx(157.0 / 178.0, rel=1e-12)
        assert max_drawdown([100.0, 50.0, 100.0]) == 0.5
        assert max_drawdown([1.0, 2.0, 3.0]) == 0.0

    def test_validation(self):
        with pytest.raises(LengthError):
            max_drawdown([])
        with pytest.raises(DomainError):
            max_drawdown([-1.0, 2.0])
        with pytest.raises(DomainError):
            max_drawdown([1.0, math.nan])

    def test_range_on_positive_paths(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = np.exp(rng.normal(0.0, 0.3, 50)) * 100.0
            dd = max_drawdown(vals)
            assert 0.0 <= dd < 1.0


class TestEngineAccounting:
    def test_ledger_value_consistency_exact(self):
        ledger, _ = run_backtest(synthetic_series(seed=2, length=300))
        value, n1, n2, p1, p2 = (
            getattr(ledger, name).tolist() for name in ("value", "n1", "n2", "p1", "p2")
        )
        for i in range(len(ledger) - 1):
            assert value[i + 1] == value[i] + (
                n1[i] * (p1[i + 1] - p1[i]) + n2[i] * (p2[i + 1] - p2[i])
            )

    def test_first_row_at_train_len(self):
        cfg = BacktestConfig(window=WindowConfig(train_len=40, trade_len=5))
        series = synthetic_series(seed=2, length=120)
        ledger, _ = run_backtest(series, cfg)
        assert ledger.k[0] == 40
        assert ledger.value[0] == cfg.initial_value
        assert ledger.k[-1] == 119
        assert len(ledger) == 80

    def test_retraining_cadence(self):
        cfg = BacktestConfig(window=WindowConfig(train_len=40, trade_len=5))
        ledger, _ = run_backtest(synthetic_series(seed=3, length=200), cfg)
        estimates = _estimates(ledger)
        for i, k in enumerate(ledger.k.tolist()):
            boundary = (k - 40) % 5 == 0
            if not boundary:
                assert estimates[i] == estimates[i - 1]

    def test_estimates_change_at_boundaries(self):
        ledger, _ = run_backtest(synthetic_series(seed=3, length=200))
        estimates = _estimates(ledger)
        changed = 0
        for i, k in enumerate(ledger.k.tolist()[1:], start=1):
            if estimates[i] != estimates[i - 1]:
                assert (k - 40) % 5 == 0
                changed += 1
        assert changed > 10

    def test_full_investment_when_active(self):
        for lev in (1.0, 2.0):
            cfg = BacktestConfig(leverage=lev)
            ledger, _ = run_backtest(synthetic_series(seed=4, length=300), cfg)
            on = ledger.active
            assert on.any()
            gross = np.abs(ledger.n1[on]) * ledger.p1[on] + np.abs(ledger.n2[on]) * ledger.p2[on]
            np.testing.assert_allclose(gross, lev * ledger.value[on], rtol=1e-9, atol=0)

    def test_inactive_rows_flat(self):
        ledger, _ = run_backtest(synthetic_series(seed=4, length=300))
        off = ~ledger.active
        assert np.all(ledger.n1[off] == 0.0) and np.all(ledger.n2[off] == 0.0)

    def test_determinism(self):
        series = synthetic_series(seed=5, length=250)
        ledger_a, report_a = run_backtest(series)
        ledger_b, report_b = run_backtest(series)
        for name in LEDGER_COLUMNS:
            np.testing.assert_array_equal(getattr(ledger_a, name), getattr(ledger_b, name))
        assert report_a == report_b

    def test_median_seed_profitable_under_strong_reversion(self):
        finals = []
        for seed in range(100):
            _, report = run_backtest(synthetic_series(seed=seed, length=1_000))
            finals.append(report.final_value)
        assert float(np.median(finals)) > 10_000.0

    def test_too_short(self):
        series = synthetic_series(seed=1, length=41)
        with pytest.raises(LengthError):
            run_backtest(series)

    def test_gamma_override_recorded(self):
        cfg = BacktestConfig(gamma_override=0.05)
        ledger, _ = run_backtest(synthetic_series(seed=6, length=150), cfg)
        assert np.all(ledger.gamma == 0.05)

    def test_exact_mode_thresholds_dominate(self):
        series = synthetic_series(seed=7, length=150)
        ledger_a, _ = run_backtest(series, BacktestConfig(threshold_mode="approx"))
        ledger_e, _ = run_backtest(series, BacktestConfig(threshold_mode="exact"))
        finite = np.isfinite(ledger_e.threshold)
        assert np.all(ledger_e.threshold[finite] >= ledger_a.threshold[finite])

    def test_one_step_loss_bounded_by_gamma_when_returns_bounded(self):
        # generator returns are capped at gamma_cap; pinning gamma_hat to the
        # cap makes the one-step bound deterministic
        cfg = BacktestConfig(gamma_override=BASE_SPEC["gamma_cap"])
        ledger, _ = run_backtest(synthetic_series(seed=8, length=500), cfg)
        value = ledger.value.tolist()
        for a, b in zip(value, value[1:]):
            loss = a - b
            assert loss <= BASE_SPEC["gamma_cap"] * a * (1.0 + 1e-12)
            assert b > 0.0


class _TrendModel(SpreadModel):
    """Spread that only grows over any window: log p1 minus a level below the
    window minimum. Makes eta_hat < 0 deterministically. Test double."""

    def __init__(self, level):
        self.level = level

    def value(self, p1, p2):
        return np.log(p1) - self.level

    def gradient(self, p1, p2):
        return 1.0 / np.asarray(p1, dtype=float), 0.0

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        return -1.0 / (p1 * p1), 0.0, 0.0


class _StationaryAt(SpreadModel):
    """A fitted log-linear spread whose gradient vanishes where p1 equals
    p1_star. Test double."""

    def __init__(self, inner, p1_star):
        self.inner = inner
        self.p1_star = p1_star

    def value(self, p1, p2):
        return self.inner.value(p1, p2)

    def gradient(self, p1, p2):
        g1, g2 = self.inner.gradient(p1, p2)
        flat = np.asarray(p1) == self.p1_star
        return np.where(flat, 0.0, g1), np.where(flat, 0.0, g2)

    def hessian(self, p1, p2):
        return self.inner.hessian(p1, p2)


class _NaNThresholdAt(_StationaryAt):
    """A fitted log-linear spread whose centre curvature, and so its approx
    threshold, is NaN where p1 equals p1_star. Test double."""

    def gradient(self, p1, p2):
        return self.inner.gradient(p1, p2)

    def center_curvature(self, p1, p2):
        curvature = self.inner.center_curvature(p1, p2)
        return np.where(np.asarray(p1) == self.p1_star, math.nan, curvature)


def _fit_trend(p1, p2):
    return _TrendModel(np.min(np.log(p1), axis=-1, keepdims=True) - 1.0)


def _fit_level(p1, p2):
    return CointegrationSpread(0.0, np.mean(np.log(p2), axis=-1, keepdims=True))


BANKRUPTCY = (
    make_series([100.0] * 6, [10.0, 9.0, 11.0, 30.0, 90.0, 90.0]),
    BacktestConfig(window=WindowConfig(train_len=3, trade_len=1)),
    _fit_level,
)


def flat_p1_series():
    # 300 rows whose p1 stands still over rows 100-159: the training windows
    # that end at k = 140 .. 160 see a constant log p1
    base = synthetic_series(seed=4, length=300)
    p1 = base.p1.copy()
    p1[100:160] = p1[100]
    return make_series(p1, base.p2)


class TestDegenerateConditions:
    def test_constant_p1_window_untradeable(self, caplog):
        with caplog.at_level("WARNING", logger="pairtrade.backtest"):
            ledger, report = run_backtest(flat_p1_series())
        degenerate = (ledger.k >= 140) & (ledger.k < 165)
        assert degenerate.any()
        assert np.all(np.isnan(ledger.spread[degenerate]) & np.isnan(ledger.beta[degenerate])
                      & np.isnan(ledger.mu[degenerate]))
        assert np.all((ledger.threshold[degenerate] == math.inf) & ~ledger.active[degenerate])
        assert np.all((ledger.n1[degenerate] == 0.0) & (ledger.n2[degenerate] == 0.0))
        assert not np.isnan(ledger.spread[~degenerate]).any()
        # one warning per degenerate window
        assert len([m for m in caplog.messages if "fitted spread is not finite" in m]) == 5
        assert ledger.active[ledger.k < 140].any()
        assert ledger.active[ledger.k >= 165].any()
        assert math.isfinite(report.final_value)

    def test_negative_eta_means_no_trades(self):
        # strictly growing p1 with the trend family: every window sees a
        # positive, rising spread, so eta_hat < 0, tau = +inf, no positions
        p1 = 100.0 * np.power(1.01, np.arange(80))
        p2 = np.full(80, 50.0)
        series = make_series(p1, p2)
        ledger, report = run_backtest(series, fit_model=_fit_trend)
        assert np.all(ledger.eta < 0.0)
        assert np.all(ledger.threshold == math.inf)
        assert report.active_periods == 0
        assert np.all(ledger.value == 10_000.0)
        assert report.final_value == 10_000.0
        assert math.isnan(ledger.beta[0]) and math.isnan(ledger.mu[0])

    def test_random_walks_complete(self):
        # two independent random walks: no cointegration, engine must simply run
        rng = np.random.default_rng(12)
        p1 = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 500)))
        p2 = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 500)))
        ledger, report = run_backtest(make_series(p1, p2))
        assert len(ledger) == 460
        assert math.isfinite(report.final_value)
        assert math.isfinite(report.max_drawdown)

    def test_bankruptcy_halts_trading(self):
        # quiet training window, then p2 explodes against a full short: the
        # account goes non-positive once and stays frozen afterwards
        ledger, report = run_backtest(*BANKRUPTCY)
        assert ledger.active[0]
        assert ledger.value[1] < 0.0
        assert not ledger.active[1] and not ledger.active[2]
        assert report.final_value < 0.0
        assert report.max_drawdown > 1.0

    def test_stationary_point_in_traded_block_raises(self):
        # the gradient is taken over each tradeable block at once, so a
        # stationary point raises even on a row that would not have traded
        series = synthetic_series(seed=4, length=300)
        ledger, _ = run_backtest(series)
        idle = np.flatnonzero(np.isfinite(ledger.threshold) & ~ledger.active)
        assert idle.size
        p1_star = float(ledger.p1[idle[0]])
        assert np.count_nonzero(series.p1 == p1_star) == 1

        def fit(p1, p2):
            return _StationaryAt(fit_cointegration(p1, p2), p1_star)

        with pytest.raises(StationaryPointError):
            run_backtest(series, fit_model=fit)
        # the row loop only ever asked for gradients on traded rows
        assert len(scalar_oracle.run_backtest(series, BacktestConfig(), fit)) == len(ledger)

    def test_nan_threshold_on_tradeable_row_raises(self):
        series = synthetic_series(seed=4, length=300)
        ledger, _ = run_backtest(series)
        at = int(np.flatnonzero(np.isfinite(ledger.threshold))[-1])
        p1_star = float(ledger.p1[at])
        assert np.count_nonzero(series.p1 == p1_star) == 1

        def fit(p1, p2):
            return _NaNThresholdAt(fit_cointegration(p1, p2), p1_star)

        with pytest.raises(DomainError, match=r"^threshold must be non-negative, got nan$"):
            run_backtest(series, fit_model=fit)

    def test_halt_before_nan_threshold_does_not_raise(self):
        # p2 jumps 30-fold after a row that holds it short, so the account
        # goes below zero; a NaN threshold on a tradeable row after the halt
        # is never checked
        base = synthetic_series(seed=4, length=300)
        ledger, _ = run_backtest(base)
        at = int(np.flatnonzero(ledger.n2[:100] < 0.0)[-1])
        p2 = base.p2.copy()
        p2[int(ledger.k[at]) + 1:] *= 30.0
        series = make_series(base.p1, p2)
        halted, report = run_backtest(series)
        assert halted.value[at + 1] <= 0.0 and not halted.active[at + 1:].any()
        late = int(np.flatnonzero(np.isfinite(halted.threshold))[-1])
        assert late > at + 1
        p1_star = float(halted.p1[late])
        assert np.count_nonzero(series.p1 == p1_star) == 1

        def fit(p1, p2):
            return _NaNThresholdAt(fit_cointegration(p1, p2), p1_star)

        ledger, got = run_backtest(series, fit_model=fit)
        assert math.isnan(ledger.threshold[late])
        for name in ("n1", "n2", "value", "active"):
            np.testing.assert_array_equal(getattr(ledger, name), getattr(halted, name))
        assert got == report

    def test_account_value_overflow_raises(self):
        # starting at the largest double, the first net gain overflows the
        # account value to inf, which the next row rejects
        cfg = BacktestConfig(initial_value=sys.float_info.max)
        with pytest.raises(DomainError, match=r"^account_value must be finite and positive, got inf$"):
            run_backtest(synthetic_series(seed=4, length=300), cfg)

    def test_huge_window_returns_disable_trading(self):
        # a window containing a 4x jump gives gamma_hat clipped to 1 and the
        # window is ruled untradeable rather than crashing threshold sizing
        rng = np.random.default_rng(3)
        p1 = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 60)))
        p2 = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 60)))
        p2 = p2.copy()
        p2[20] *= 5.0
        series = make_series(p1, p2)
        ledger, _ = run_backtest(series)
        jump_rows = ledger.gamma >= 1.0
        assert jump_rows.any()
        assert not ledger.active[jump_rows].any()


def _column(rows, name):
    return np.array([getattr(r, name) for r in rows])


def _estimates(ledger):
    return list(zip(*(getattr(ledger, name).tolist() for name in ("beta", "mu", "gamma", "eta"))))


class TestScalarOracle:
    """The one-pass engine against scalar_oracle.run_backtest, the row-at-a-time
    loop with per-window refits that it replaced. k, dates, prices, beta, mu,
    gamma, holdings, value and active must be equal, the holdings and value
    bit for bit, so that -0.0 is not taken for 0.0. spread, eta and
    threshold may differ in the last bits: the engine takes logs of whole
    price arrays and the oracle of one float at a time, and numpy may route
    the two through different log implementations (math.log and np.log
    already disagree by an ulp on about 1 in 2,000 values), so the spread
    gets an absolute 1e-14 (about 16 ulps of a log price near 5) and eta and
    threshold, which divide sums over a window of such spreads, a relative
    1e-11."""

    EXACT = ("k", "date", "p1", "p2", "beta", "mu", "gamma", "active")
    # compared bit for bit: assert_array_equal takes -0.0 for 0.0
    BITWISE = ("n1", "n2", "value")

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(lambda: (synthetic_series(seed=4, length=400), BacktestConfig(), None),
                         id="synthetic-approx"),
            pytest.param(lambda: (synthetic_series(seed=4, length=400),
                                  BacktestConfig(threshold_mode="exact", leverage=2.0), None),
                         id="synthetic-exact"),
            pytest.param(lambda: (flat_p1_series(), BacktestConfig(), None), id="flat-p1"),
            pytest.param(lambda: BANKRUPTCY, id="bankruptcy"),
            pytest.param(lambda: (make_series(100.0 * np.power(1.01, np.arange(80)),
                                              np.full(80, 50.0)),
                                  BacktestConfig(), _fit_trend), id="trend-model"),
        ],
    )
    def test_matches_row_loop(self, case):
        self.check(*case())

    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(5, 120),
        train_len=st.integers(3, 30),
        trade_len=st.integers(1, 40),
        flat=st.one_of(st.none(), st.tuples(st.integers(0, 119), st.integers(3, 60))),
        leverage=st.sampled_from([1.0, 2.0, 25.0, 60.0]),
        mode=st.sampled_from(["approx", "exact"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_layouts_match_row_loop(
        self, seed, length, train_len, trade_len, flat, leverage, mode
    ):
        # any window layout: a partial last block, one block longer than
        # the rows left, windows over a flat p1 stretch, and windows whose
        # leverage * gamma_hat reaches 1
        assume(length >= train_len + 2)
        rng = np.random.default_rng(seed)
        w = np.cumsum(rng.normal(0.0, 0.01, length))
        s = np.zeros(length)
        for k in range(1, length):
            s[k] = 0.7 * s[k - 1] + rng.normal(0.0, 0.01)
        p1 = 100.0 * np.exp(w)
        if flat is not None:
            start, size = flat
            p1[start : start + size] = p1[min(start, length - 1)]
        p2 = 50.0 * np.exp(1.5 * w + s)
        cfg = BacktestConfig(window=WindowConfig(train_len=train_len, trade_len=trade_len),
                             leverage=leverage, threshold_mode=mode)
        self.check(make_series(p1, p2), cfg, None)

    def check(self, series, cfg, fit):
        # fit None runs each side's default: the fit of all windows at once
        # against the oracle's per-window fit
        fit_kw = {} if fit is None else {"fit_model": fit}
        ledger, report = run_backtest(series, cfg, **fit_kw)
        ref = scalar_oracle.run_backtest(series, cfg, **fit_kw)
        assert len(ledger) == len(ref)
        for name in self.EXACT:
            np.testing.assert_array_equal(getattr(ledger, name), _column(ref, name), err_msg=name)
        for name in self.BITWISE:
            np.testing.assert_array_equal(getattr(ledger, name).view(np.int64),
                                          _column(ref, name).view(np.int64), err_msg=name)
        np.testing.assert_allclose(ledger.spread, _column(ref, "spread"), rtol=0, atol=1e-14)
        for name in ("eta", "threshold"):
            np.testing.assert_allclose(getattr(ledger, name), _column(ref, name), rtol=1e-11, err_msg=name)
        assert report.final_value == ref[-1].value
        assert report.active_periods == sum(r.active for r in ref)


class TestExports:
    def test_ledger_csv_round_trip(self, tmp_path):
        ledger, _ = run_backtest(synthetic_series(seed=9, length=120))
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,date,p1,p2,spread,threshold,beta,mu,gamma,eta,n1,n2,value,active"
        assert len(lines) == len(ledger) + 1
        first = lines[1].split(",")
        assert first[0] == str(ledger.k[0])
        assert first[1] == ledger.date[0]
        # 10 significant digits round-trip well below the 1e-9 level
        assert float(first[2]) == pytest.approx(ledger.p1[0], rel=1e-9)
        assert float(first[12]) == pytest.approx(ledger.value[0], rel=1e-9)
        assert first[13] in ("0", "1")

    def test_ledger_csv_infinite_threshold(self, tmp_path):
        p1 = 100.0 * np.power(1.01, np.arange(60))
        series = make_series(p1, np.full(60, 50.0))
        ledger, _ = run_backtest(series, fit_model=_fit_trend)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[5]) == math.inf

    def test_ledger_bytes_deterministic(self, tmp_path):
        series = synthetic_series(seed=10, length=130)
        paths = []
        for name in ("a.csv", "b.csv"):
            ledger, _ = run_backtest(series)
            p = tmp_path / name
            write_ledger_csv(ledger, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_report_json_keys(self, tmp_path):
        _, report = run_backtest(synthetic_series(seed=11, length=120))
        path = tmp_path / "report.json"
        write_report_json(report, path, extra={"config": {"leverage": 1.0}})
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "final_value",
            "total_return",
            "max_drawdown",
            "active_periods",
            "buyhold_1_final",
            "buyhold_2_final",
            "config",
        }
        assert payload["final_value"] == report.final_value
        assert payload["total_return"] == pytest.approx(
            report.final_value / 10_000.0 - 1.0, rel=1e-12
        )

    def test_report_matches_buyhold_invariant(self):
        series = synthetic_series(seed=12, length=100)
        _, report = run_backtest(series)
        assert report.buyhold_1_final == pytest.approx(
            10_000.0 * float(series.p1[-1] / series.p1[0]), rel=1e-12
        )
        assert report.buyhold_2_final == pytest.approx(
            10_000.0 * float(series.p2[-1] / series.p2[0]), rel=1e-12
        )

    def test_plot_csv(self, tmp_path):
        series = synthetic_series(seed=13, length=90)
        ledger, _ = run_backtest(series)
        path = tmp_path / "plot.csv"
        write_plot_csv(path, series, ledger, 10_000.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,date,value,buyhold_1,buyhold_2"
        assert len(lines) == 91
        # strategy value is flat at the initial value before the first decision
        for line in lines[1:41]:
            assert line.split(",")[2] == "10000"


    def test_quoted_dates_written_as_csv_writer_writes_them(self, tmp_path):
        # dates holding a comma or a double quote are quoted in the input,
        # read back by load_csv, and must leave the CLI exactly as csv.writer
        # writes them
        base = synthetic_series(seed=14, length=120)
        path = tmp_path / "quoted.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["date", "p1", "p2"])
            for i, (a, b) in enumerate(zip(base.p1.tolist(), base.p2.tolist())):
                date = (f"{i:05d}", f"{i:05d},x", f'{i:05d} "q"', f'{i:05d},"q, r"')[i % 4]
                writer.writerow([date, repr(a), repr(b)])
        series = load_csv(path)
        assert series.dates[1] == "00001,x" and series.dates[2] == '00002 "q"'
        out = tmp_path / "out"
        assert main(["backtest", "--input", str(path), "--out-dir", str(out)]) == 0
        rows = scalar_oracle.ledger_rows(run_backtest(series)[0])
        scalar_oracle.write_ledger_csv(rows, tmp_path / "ledger.csv")
        scalar_oracle.write_plot_csv(tmp_path / "plot.csv", series, rows, 10_000.0)
        for name in ("ledger.csv", "plot.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
        assert b'\n42,"00042 ""q""",' in (out / "ledger.csv").read_bytes()
        assert b'\n43,"00043,""q, r""",' in (out / "plot.csv").read_bytes()


class TestConfigValidation:
    def test_threshold_mode(self):
        with pytest.raises(DomainError):
            BacktestConfig(threshold_mode="fancy")

    def test_leverage(self):
        with pytest.raises(DomainError):
            BacktestConfig(leverage=0.0)

    def test_initial_value(self):
        with pytest.raises(DomainError):
            BacktestConfig(initial_value=-5.0)

    def test_gamma_override(self):
        with pytest.raises(DomainError):
            BacktestConfig(gamma_override=1.0)

    def test_gamma_floor(self):
        with pytest.raises(DomainError):
            BacktestConfig(gamma_floor=0.0)

    @pytest.mark.parametrize("name", ["leverage", "initial_value", "gamma_override", "gamma_floor"])
    def test_huge_int_rejected(self, name):
        # math.isfinite raised OverflowError on an int beyond the float range
        with pytest.raises(DomainError, match=name):
            BacktestConfig(**{name: 10**400})

    @pytest.mark.parametrize("flag", [True, np.True_])
    @pytest.mark.parametrize("name", ["leverage", "initial_value", "gamma_override", "gamma_floor"])
    def test_bool_rejected(self, name, flag):
        with pytest.raises(DomainError, match=f"{name} must be a number"):
            BacktestConfig(**{name: flag})
