"""Staggered sliding-window backtest over a historical price series.

The engine refits the spread model every trade_len periods on the trailing
train_len observations, freezes the window estimates (beta, mu, gamma, eta),
and applies the threshold allocation rule at every period with the frozen
estimates. Position profit is marked to market one period later. The first
tradeable period is index train_len; the decision at the final period is
recorded but never realized.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import DomainError, LengthError, PriceSeries
from .estimation import (
    DEFAULT_GAMMA_FLOOR,
    WindowConfig,
    WindowEstimates,
    estimate_eta,
    estimate_gamma,
)
from .spread import DegenerateRegressorError, SpreadModel, fit_cointegration, spread_value
from .trading import THRESHOLD_MODES, allocate, threshold_approx, threshold_exact

logger = logging.getLogger(__name__)

LEDGER_COLUMNS = (
    "k",
    "date",
    "p1",
    "p2",
    "spread",
    "threshold",
    "beta",
    "mu",
    "gamma",
    "eta",
    "n1",
    "n2",
    "value",
    "active",
)


@dataclass(frozen=True)
class BacktestConfig:
    """Engine parameters. gamma_override replaces the windowed gamma estimate
    with a fixed value when set."""

    window: WindowConfig = WindowConfig()
    leverage: float = 1.0
    initial_value: float = 10_000.0
    threshold_mode: str = "approx"
    gamma_override: float | None = None
    gamma_floor: float = DEFAULT_GAMMA_FLOOR

    def __post_init__(self) -> None:
        if self.threshold_mode not in THRESHOLD_MODES:
            raise DomainError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, got {self.threshold_mode!r}"
            )
        if not (math.isfinite(self.leverage) and self.leverage > 0.0):
            raise DomainError(f"leverage must be finite and positive, got {self.leverage!r}")
        if not (math.isfinite(self.initial_value) and self.initial_value > 0.0):
            raise DomainError(
                f"initial_value must be finite and positive, got {self.initial_value!r}"
            )
        if self.gamma_override is not None and not (
            math.isfinite(self.gamma_override) and 0.0 < self.gamma_override < 1.0
        ):
            raise DomainError(f"gamma_override must lie in (0, 1), got {self.gamma_override!r}")
        if not (math.isfinite(self.gamma_floor) and self.gamma_floor > 0.0):
            raise DomainError(f"gamma_floor must be finite and positive, got {self.gamma_floor!r}")


@dataclass(frozen=True)
class LedgerRow:
    """One period of the backtest: prices, frozen estimates, decision, value.

    value is the account value at decision time, before the period's profit
    is realized. beta and mu are NaN for model families without them.
    """

    k: int
    date: str
    p1: float
    p2: float
    spread: float
    threshold: float
    beta: float
    mu: float
    gamma: float
    eta: float
    n1: float
    n2: float
    value: float
    active: bool


@dataclass(frozen=True)
class BacktestReport:
    """Summary of one backtest run."""

    final_value: float
    total_return: float
    max_drawdown: float
    active_periods: int
    buyhold_1_final: float
    buyhold_2_final: float

    def to_dict(self) -> dict:
        return {
            "final_value": self.final_value,
            "total_return": self.total_return,
            "max_drawdown": self.max_drawdown,
            "active_periods": self.active_periods,
            "buyhold_1_final": self.buyhold_1_final,
            "buyhold_2_final": self.buyhold_2_final,
        }


def buy_and_hold(series: PriceSeries, which: int, initial: float) -> np.ndarray:
    """Value path of holding initial dollars of price `which` (1 or 2)."""
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which!r}")
    if not (math.isfinite(initial) and initial > 0.0):
        raise DomainError(f"initial must be finite and positive, got {initial!r}")
    prices = series.p1 if which == 1 else series.p2
    return initial * (prices / prices[0])


def max_drawdown(values) -> float:
    """Largest peak-to-trough fraction of the running peak.

    The first value must be positive so the running peak stays positive. The
    result lies in [0, 1] for positive paths and can exceed 1 only if the
    path goes non-positive.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise LengthError("max_drawdown needs a non-empty one-dimensional value path")
    if not np.all(np.isfinite(vals)):
        raise DomainError("value path contains non-finite entries")
    if vals[0] <= 0.0:
        raise DomainError(f"value path must start positive, got {vals[0]!r}")
    peaks = np.maximum.accumulate(vals)
    return float(np.max((peaks - vals) / peaks))


def _window_estimates(
    window: PriceSeries,
    model: SpreadModel,
    config: BacktestConfig,
) -> WindowEstimates:
    if config.gamma_override is not None:
        gamma_hat = config.gamma_override
    else:
        gamma_hat = min(estimate_gamma(window, floor=config.gamma_floor), 1.0)
    return WindowEstimates(
        beta_hat=float(getattr(model, "beta", math.nan)),
        mu_hat=float(getattr(model, "mu", math.nan)),
        gamma_hat=gamma_hat,
        eta_hat=estimate_eta(spread_value(model, window.p1, window.p2)),
    )


def run_backtest(
    series: PriceSeries,
    config: BacktestConfig | None = None,
    fit_model: Callable[[PriceSeries], SpreadModel] = fit_cointegration,
) -> tuple[list[LedgerRow], BacktestReport]:
    """Run the staggered-window strategy over the series.

    fit_model selects the model family: it is called on each training window
    and must return a SpreadModel. Needs at least train_len + 2 observations.
    Windows where leverage * gamma_hat >= 1 (or gamma_hat >= 1) are ruled
    untradeable and skipped with a warning. So is a window whose fit raises
    DegenerateRegressorError (constant log p1 under the default fitter): its
    rows have NaN spread and estimates, an infinite threshold and no
    position. If the account value ever drops to zero or below, trading
    halts for the rest of the run.

    Each refit's spreads and thresholds are evaluated over its whole block of
    trade_len rows at once; only the allocation and the value recursion run
    row by row.
    """
    if config is None:
        config = BacktestConfig()
    n_train = config.window.train_len
    stride = config.window.trade_len
    total = len(series)
    if total < n_train + 2:
        raise LengthError(
            f"need at least train_len + 2 = {n_train + 2} observations, got {total}"
        )
    threshold = threshold_exact if config.threshold_mode == "exact" else threshold_approx

    p1 = series.p1.tolist()
    p2 = series.p2.tolist()
    value = config.initial_value
    rows: list[LedgerRow] = []
    halted = False

    for start in range(n_train, total, stride):
        ks = range(start, min(start + stride, total))
        bp1 = series.p1[start : ks.stop]
        bp2 = series.p2[start : ks.stop]
        window = series.window(start - n_train, start)
        # an unfitted window has NaN spread and estimates; NaN never exceeds tau = inf
        model = None
        beta = mu = gamma = eta = math.nan
        spreads = [math.nan] * len(ks)
        taus = [math.inf] * len(ks)
        try:
            model = fit_model(window)
        except DegenerateRegressorError as exc:
            logger.warning("window ending at k=%d untradeable: %s", start, exc)
        else:
            est = _window_estimates(window, model, config)
            beta, mu, gamma, eta = est.beta_hat, est.mu_hat, est.gamma_hat, est.eta_hat
            spreads = spread_value(model, bp1, bp2).tolist()
            window_tradeable = gamma < 1.0 and config.leverage * gamma < 1.0
            if not window_tradeable:
                logger.warning(
                    "window ending at k=%d untradeable: gamma_hat=%.6g, "
                    "leverage*gamma_hat=%.6g (both must be < 1)",
                    start,
                    gamma,
                    config.leverage * gamma,
                )
            elif est.tradeable:
                taus = threshold(model, bp1, bp2, gamma, eta).tolist()
        for k, spread, tau in zip(ks, spreads, taus):
            if not halted and value <= 0.0:
                halted = True
                logger.warning("account value %.6g <= 0 at k=%d; trading halted", value, k)
            if halted:
                n1 = n2 = 0.0
            else:
                n1, n2 = allocate(model, p1[k], p2[k], spread, tau, value, config.leverage)
            rows.append(
                LedgerRow(
                    k=k,
                    date=series.dates[k],
                    p1=p1[k],
                    p2=p2[k],
                    spread=spread,
                    threshold=tau,
                    beta=beta,
                    mu=mu,
                    gamma=gamma,
                    eta=eta,
                    n1=n1,
                    n2=n2,
                    value=value,
                    active=not halted and abs(spread) > tau,
                )
            )
            if k + 1 < total:
                value = value + (n1 * (p1[k + 1] - p1[k]) + n2 * (p2[k + 1] - p2[k]))

    bh1 = buy_and_hold(series, 1, config.initial_value)
    bh2 = buy_and_hold(series, 2, config.initial_value)
    report = BacktestReport(
        final_value=rows[-1].value,
        total_return=rows[-1].value / config.initial_value - 1.0,
        max_drawdown=max_drawdown([row.value for row in rows]),
        active_periods=sum(1 for row in rows if row.active),
        buyhold_1_final=float(bh1[-1]),
        buyhold_2_final=float(bh2[-1]),
    )
    return rows, report


def _fmt(x: float) -> str:
    return "%.10g" % (x,)


def write_ledger_csv(rows, path) -> None:
    """Ledger CSV with one row per backtest period, floats at 10 significant
    digits, active as 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.k,
                    r.date,
                    _fmt(r.p1),
                    _fmt(r.p2),
                    _fmt(r.spread),
                    _fmt(r.threshold),
                    _fmt(r.beta),
                    _fmt(r.mu),
                    _fmt(r.gamma),
                    _fmt(r.eta),
                    _fmt(r.n1),
                    _fmt(r.n2),
                    _fmt(r.value),
                    1 if r.active else 0,
                ]
            )


def write_report_json(report: BacktestReport, path, extra: dict | None = None) -> None:
    """Report JSON with sorted keys; extra entries (e.g. the resolved config)
    are merged in."""
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_plot_csv(path, series: PriceSeries, rows, initial_value: float) -> None:
    """Per-period value paths of the strategy and both buy-and-holds, over
    the whole series (strategy value is flat before the first decision)."""
    bh1 = buy_and_hold(series, 1, initial_value)
    bh2 = buy_and_hold(series, 2, initial_value)
    first = rows[0].k if rows else len(series)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "date", "value", "buyhold_1", "buyhold_2"])
        for k in range(len(series)):
            value = initial_value if k < first else rows[k - first].value
            writer.writerow([k, series.dates[k], _fmt(value), _fmt(bh1[k]), _fmt(bh2[k])])
