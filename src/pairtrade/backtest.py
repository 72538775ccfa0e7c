"""Staggered sliding-window backtest over a historical price series.

The engine refits the spread model every trade_len periods on the trailing
train_len observations, freezes the window estimates (beta, mu, gamma, eta),
and applies the threshold allocation rule at every period with the frozen
estimates: in array calls over all periods, but for the account value
recursion, which steps through the active periods one at a time. Position
profit is marked to market one period later. The first
tradeable period is index train_len; the decision at the final period is
recorded but never realized.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import (
    DomainError, LengthError, PriceSeries, check_fraction, check_number, check_positive,
)
from .estimation import DEFAULT_GAMMA_FLOOR, WindowConfig, estimate_eta, estimate_gamma
from .spread import SpreadModel, fit_cointegration, spread_gradient, spread_value
from .trading import THRESHOLD_MODES, threshold_approx, threshold_exact

logger = logging.getLogger(__name__)


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
        check_positive("leverage", self.leverage)
        check_positive("initial_value", self.initial_value)
        if self.gamma_override is not None:
            check_fraction("gamma_override", self.gamma_override)
        check_positive("gamma_floor", self.gamma_floor)


@dataclass(frozen=True, eq=False)
class Ledger:
    """The backtest's per-period columns, one entry per period from
    train_len on; date is a tuple of str, every other column a numpy array.

    value is the account value at decision time, before the period's profit
    is realized. beta and mu are NaN for model families without them. A
    window without a fit has NaN spread and estimates and an infinite
    threshold.
    """

    k: np.ndarray
    date: tuple[str, ...]
    p1: np.ndarray
    p2: np.ndarray
    spread: np.ndarray
    threshold: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    value: np.ndarray
    active: np.ndarray

    def __len__(self) -> int:
        return len(self.date)


LEDGER_COLUMNS = tuple(f.name for f in fields(Ledger))


@dataclass(frozen=True)
class BacktestReport:
    """Summary of one backtest run."""

    final_value: float
    total_return: float
    max_drawdown: float
    active_periods: int
    buyhold_1_final: float
    buyhold_2_final: float


def buy_and_hold(series: PriceSeries, which: int, initial: float) -> np.ndarray:
    """Value path of holding initial dollars of price `which` (1 or 2)."""
    check_number("which", which)
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which!r}")
    check_positive("initial", initial)
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


def run_backtest(
    series: PriceSeries,
    config: BacktestConfig | None = None,
    fit_model: Callable[..., SpreadModel] = fit_cointegration,
) -> tuple[Ledger, BacktestReport]:
    """Run the staggered-window strategy over the series.

    fit_model selects the model family. It is called once, as fit_model(p1,
    p2) on the training windows stacked as (windows, train_len) arrays, and
    returns a SpreadModel whose parameters broadcast as (windows, 1). Needs
    at least train_len + 2 observations. A window is untradeable, with a
    warning, if gamma_hat >= 1 or leverage * gamma_hat >= 1, or if its
    spread is not finite over its training prices (as with the NaN fit of a
    constant log p1), which also gives its rows NaN spread and estimates.
    Untradeable rows have an infinite threshold and no position. Trading
    halts for good once the account value drops to zero or below.

    Spreads, thresholds and gradients are one call each over the trade rows
    laid out as a (windows, trade_len) matrix, so a stationary point anywhere
    in a tradeable block raises StationaryPointError. The parts of the rule
    that do not depend on the account value V are array operations over the
    trade rows: the active mask |S| > tau, den = |g1| p1 + |g2| p2, the
    sign-flipped gradient a = -sign(S) g and the price moves dp. Only the
    value recursion runs row by row, over the active rows:

        lam = leverage V / den
        V += (lam a1) dp1 + (lam a2) dp2

    and the holdings n = -lam sign(S) g follow as arrays from the values,
    in trading.allocate's order of operations. The steps of V are the
    doubles allocate's holdings give, because a sign flip is exact
    (kernels.trade_scan makes the same split), and an inactive row adds
    nothing to V. The faults allocate raised row by row stay: a NaN or
    negative threshold raises DomainError at the first such row unless
    trading halted before it, and an account value that is not finite
    raises DomainError naming account_value.
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

    # window j trains on rows [j * stride, j * stride + n_train) and trades
    # the stride rows after it; its estimates are row j of (windows, 1) columns
    train1 = sliding_window_view(series.p1[:-1], n_train)[::stride]
    train2 = sliding_window_view(series.p2[:-1], n_train)[::stride]
    model = fit_model(train1, train2)
    eta = estimate_eta(spread_value(model, train1, train2))[:, None]
    # eta is NaN exactly where the spread is not finite over the window
    fitted = np.isfinite(eta)
    if config.gamma_override is not None:
        gamma = np.full(eta.shape, config.gamma_override)
    else:
        # clipped into (0, 1]: a window whose raw bound reaches 1 never trades
        gamma = np.minimum(estimate_gamma(train1, train2, floor=config.gamma_floor), 1.0)[:, None]
    bounded = (gamma < 1.0) & (config.leverage * gamma < 1.0)
    for j in np.flatnonzero(~(fitted & bounded)).tolist():
        g = gamma[j, 0]
        why = f"gamma_hat={g:.6g}, leverage*gamma_hat={config.leverage * g:.6g} (both must be < 1)"
        if not fitted[j, 0]:
            why = "fitted spread is not finite"
        logger.warning("window ending at k=%d untradeable: %s", n_train + j * stride, why)
    tradeable = fitted & bounded & (eta > 0.0)

    # the trade rows as a (windows, stride) matrix, NaN-padded at the end
    rows = total - n_train
    pad = [math.nan] * (len(train1) * stride - rows)
    bp1, bp2 = (np.append(p[n_train:], pad).reshape(-1, stride) for p in (series.p1, series.p2))
    spread = spread_value(model, bp1, bp2)
    # untradeable rows go in as NaN prices with eta 0, so tau = inf, and a
    # stand-in gamma: neither call raises or warns on them
    tp1, tp2 = (np.where(tradeable, b, math.nan) for b in (bp1, bp2))
    tau = threshold(model, tp1, tp2, np.where(tradeable, gamma, 0.5), np.where(tradeable, eta, 0.0))
    g1, g2 = spread_gradient(model, tp1, tp2)

    # ledger columns from blocks that broadcast to the trade matrix
    def column(block):
        return np.broadcast_to(block, bp1.shape).reshape(-1)[:rows]

    def estimate(block):  # NaN in the windows without a fit
        return column(np.where(fitted, block, math.nan))

    spread, tau, g1, g2 = estimate(spread), column(tau), column(g1), column(g2)
    p1, p2 = series.p1[n_train:], series.p2[n_train:]
    # the parts of the rule that do not depend on the account value
    active = np.abs(spread) > tau
    with np.errstate(invalid="ignore", over="ignore"):
        den = np.abs(g1) * p1 + np.abs(g2) * p2
    sign = np.copysign(1.0, spread)
    a1, a2 = -sign * g1, -sign * g2
    dp1, dp2 = np.diff(p1), np.diff(p2)
    # the row loop would stop at the first NaN or negative threshold
    bad = np.flatnonzero(np.isnan(tau) | (tau < 0.0))
    stop = int(bad[0]) if bad.size else rows
    # the value recursion over the active rows before stop; the last row's
    # profit is never realized
    act = np.flatnonzero(active[: min(stop, rows - 1)])
    lev = config.leverage
    value = config.initial_value
    values = [value]
    for d, b1, b2, d1, d2 in zip(*(x[act].tolist() for x in (den, a1, a2, dp1, dp2))):
        lam = lev * value / d
        value = value + (lam * b1 * d1 + lam * b2 * d2)
        values.append(value)
        if not 0.0 < value < math.inf:
            break
    steps = act[: len(values) - 1]  # the rows whose profit moved the value
    # from a halt on the account holds nothing and its value stays frozen
    halt = rows
    if not 0.0 < value < math.inf:
        if not value <= 0.0:
            raise DomainError(f"account_value must be finite and positive, got {value!r}")
        halt = int(steps[-1]) + 1
        logger.warning("account value %.6g <= 0 at k=%d; trading halted", value, n_train + halt)
    elif stop < rows:
        raise DomainError(f"threshold must be non-negative, got {tau[stop].item()!r}")
    active[halt:] = False
    # each step's holdings from the value it was decided at
    n1, n2 = np.zeros(rows), np.zeros(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        lam = lev * np.array(values[:-1]) / den[steps]
        n1[steps], n2[steps] = (-lam * sign[steps] * g[steps] for g in (g1, g2))
    if active[-1]:
        # in Python floats, as allocate: a non-finite gradient gives NaN
        # holdings that no later value takes in, and numpy's NaN sign may differ
        lam = lev * value / den[-1].item()
        s = sign[-1].item()
        n1[-1], n2[-1] = -lam * s * g1[-1].item(), -lam * s * g2[-1].item()
    ledger = Ledger(
        k=np.arange(n_train, total),
        date=series.dates[n_train:],
        p1=p1,
        p2=p2,
        spread=spread,
        threshold=tau,
        beta=estimate(getattr(model, "beta", math.nan)),
        mu=estimate(getattr(model, "mu", math.nan)),
        gamma=estimate(gamma),
        eta=estimate(eta),
        n1=n1,
        n2=n2,
        # each value holds from the row after its step to the next step
        value=np.repeat(values, np.diff(steps, prepend=-1, append=rows - 1)),
        active=active,
    )

    final = float(ledger.value[-1])
    report = BacktestReport(
        final_value=final,
        total_return=final / config.initial_value - 1.0,
        max_drawdown=max_drawdown(ledger.value),
        active_periods=int(np.count_nonzero(active)),
        buyhold_1_final=float(buy_and_hold(series, 1, config.initial_value)[-1]),
        buyhold_2_final=float(buy_and_hold(series, 2, config.initial_value)[-1]),
    )
    return ledger, report


# %-formats of the fields of one CSV row; dates go through _csv_field
_LEDGER_FIELDS = ("%d", "%s", *["%.10g"] * (len(LEDGER_COLUMNS) - 3), "%d")
_PLOT_FIELDS = ("%d", "%s", "%.10g", "%.10g", "%.10g")
_NEEDS_QUOTES = re.compile('[,"\r\n]').search
# rows formatted per write call
WRITE_CHUNK = 4096


def _csv_field(text: str) -> str:
    """text as csv.writer writes it; only a comma, a double quote or a line
    break can make it quote."""
    if not _NEEDS_QUOTES(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _has_runs(col) -> bool:
    """True for a float64 column where at least half the values have the
    bits of the value before them, as a window's estimates do."""
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        return False
    bits = col.view(np.int64)
    return 0 < len(col) <= 2 * int(np.count_nonzero(bits[1:] == bits[:-1]))


def _run_texts(col: np.ndarray, fmt: str) -> list:
    """The column formatted by fmt, one %-format call for the first value of
    each run of equal bits (so -0.0 and 0.0 stay apart), repeated over the
    run."""
    bits = col.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = ((fmt + "\n") * len(starts) % tuple(col[starts].tolist())).split("\n")[:-1]
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=len(col))).tolist()


def _write_rows(fh, fields: tuple, columns: list) -> None:
    """Write one row per index of the columns, each a numpy array or a tuple
    of date labels, the field of column c formatted by fields[c]: one
    %-format call per WRITE_CHUNK rows. A column with runs (see _has_runs)
    goes in as text from _run_texts."""
    width = len(columns)
    rows = len(columns[0])
    runs = [_has_runs(col) for col in columns]
    row = ",".join("%s" if run else fmt for fmt, run in zip(fields, runs)) + "\n"
    for i in range(0, rows, WRITE_CHUNK):
        j = min(i + WRITE_CHUNK, rows)
        flat = [None] * ((j - i) * width)
        for c, col in enumerate(columns):
            if isinstance(col, tuple):
                col = col[i:j]
                flat[c::width] = map(_csv_field, col) if _NEEDS_QUOTES("".join(col)) else col
            elif runs[c]:
                flat[c::width] = _run_texts(col[i:j], fields[c])
            else:
                flat[c::width] = col[i:j].tolist()
        fh.write((row * (j - i)) % tuple(flat))


def write_ledger_csv(ledger: Ledger, path) -> None:
    """Ledger CSV with one row per backtest period, floats at 10 significant
    digits, active as 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        _write_rows(fh, _LEDGER_FIELDS, [getattr(ledger, name) for name in LEDGER_COLUMNS])


def write_report_json(report: BacktestReport, path, extra: dict | None = None) -> None:
    """Report JSON with sorted keys; extra entries (e.g. the resolved config)
    are merged in."""
    payload = asdict(report)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_plot_csv(path, series: PriceSeries, ledger: Ledger, initial_value: float) -> None:
    """Per-period value paths of the strategy and both buy-and-holds, over
    the whole series (strategy value is flat before the first decision)."""
    first = int(ledger.k[0]) if len(ledger) else len(series)
    columns = [
        np.arange(len(series)),
        series.dates,
        np.concatenate((np.full(first, initial_value), ledger.value)),
        buy_and_hold(series, 1, initial_value),
        buy_and_hold(series, 2, initial_value),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,date,value,buyhold_1,buyhold_2\n")
        _write_rows(fh, _PLOT_FIELDS, columns)
