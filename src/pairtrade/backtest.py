"""Staggered sliding-window backtest over a historical price series.

Two steps. fit_windows refits the spread model every trade_len periods on
the trailing train_len observations and freezes the window estimates (the
model, gamma, eta, tradeable) in one Windows record. run_backtest then
applies the threshold allocation rule at every period with its window's
estimates: in array calls, but for the account value recursion, which steps
through the active periods one at a time. Position profit is marked to
market one period later. The first tradeable period is index train_len; the
decision at the final period is recorded but never realized.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import asdict, dataclass, fields
from itertools import groupby
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


@dataclass(frozen=True, eq=False)
class Windows:
    """The frozen estimates of each refit window. Window j trains on the
    train_len rows before row end[j] and trades the trade_len rows from it
    on. gamma, eta, fitted and tradeable are (windows, 1) columns, as are
    model's parameters; eta is NaN where fitted is False.
    """

    end: np.ndarray
    model: SpreadModel
    gamma: np.ndarray
    eta: np.ndarray
    fitted: np.ndarray
    tradeable: np.ndarray


def fit_windows(
    series: PriceSeries,
    config: BacktestConfig,
    fit_model: Callable[..., SpreadModel] = fit_cointegration,
) -> Windows:
    """Fit the spread model and estimate gamma and eta on every window.

    fit_model selects the model family. It is called once, as fit_model(p1,
    p2) on the training windows stacked as (windows, train_len) arrays, and
    returns a SpreadModel whose parameters broadcast as (windows, 1). Needs
    at least train_len + 2 observations. A window is untradeable, with a
    warning, if gamma_hat >= 1 or leverage * gamma_hat >= 1, or if its
    spread is not finite over its training prices (as with the NaN fit of a
    constant log p1), and untradeable without a warning if eta_hat <= 0.
    """
    n_train, stride, total = config.window.train_len, config.window.trade_len, len(series)
    if total < n_train + 2:
        raise LengthError(f"need at least train_len + 2 = {n_train + 2} observations, got {total}")
    # window j trains on rows [j * stride, j * stride + n_train)
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
    end = n_train + stride * np.arange(len(eta))
    for j in np.flatnonzero(~(fitted & bounded)).tolist():
        g = gamma[j, 0]
        why = f"gamma_hat={g:.6g}, leverage*gamma_hat={config.leverage * g:.6g} (both must be < 1)"
        if not fitted[j, 0]:
            why = "fitted spread is not finite"
        logger.warning("window ending at k=%d untradeable: %s", end[j], why)
    return Windows(end, model, gamma, eta, fitted, fitted & bounded & (eta > 0.0))


def run_backtest(
    series: PriceSeries,
    config: BacktestConfig | None = None,
    fit_model: Callable[..., SpreadModel] = fit_cointegration,
) -> tuple[Ledger, BacktestReport]:
    """Run the staggered-window strategy over the series.

    The window estimates come from one fit_windows call, which raises and
    warns as it says; rows of a window without a fit have NaN spread and
    estimates. Untradeable rows have an infinite threshold and no position.
    Trading halts for good once the account value drops to zero or below.

    Spreads, thresholds and gradients are one call each over the trade rows
    laid out as a (windows, trade_len) matrix, so a stationary point anywhere
    in a tradeable block raises StationaryPointError. The parts of the rule
    that do not depend on the account value V are array operations over the
    trade rows: the active mask |S| > tau, den = |g1| p1 + |g2| p2, the
    sign-flipped gradient a = -sign(S) g and the price moves dp. Only the
    value recursion runs row by row, over the active rows:

        lam = leverage V / den
        V += (lam a1) dp1 + (lam a2) dp2

    and the holdings n = -lam sign(S) g follow as arrays from the values, in
    trading.allocate's order of operations. The steps of V are the doubles
    allocate's holdings give, because a sign flip is exact, and an inactive
    row adds nothing to V. The faults allocate raised row by row stay: a NaN
    or negative threshold raises DomainError at the first such row unless
    trading halted before it, and an account value that is not finite
    raises DomainError naming account_value. A zero den on an active row,
    where allocate divided by zero, raises DomainError naming the row, its
    date and its gradient.
    """
    if config is None:
        config = BacktestConfig()
    windows = fit_windows(series, config, fit_model)
    model, gamma, eta, tradeable = windows.model, windows.gamma, windows.eta, windows.tradeable
    threshold = threshold_exact if config.threshold_mode == "exact" else threshold_approx

    # the trade rows as a (windows, trade_len) matrix, NaN-padded at the end
    first = int(windows.end[0])
    p1, p2 = series.p1[first:], series.p2[first:]
    rows = len(p1)
    pad = [math.nan] * (len(windows.end) * config.window.trade_len - rows)
    bp1, bp2 = (np.append(p, pad).reshape(len(windows.end), -1) for p in (p1, p2))
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
        return column(np.where(windows.fitted, block, math.nan))

    spread, tau, g1, g2 = estimate(spread), column(tau), column(g1), column(g2)
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

    def zero_den(row):
        return DomainError(
            f"den = |g1| p1 + |g2| p2 is 0 at k={first + row} ({series.dates[first + row]}), "
            f"gradient ({g1[row].item()!r}, {g2[row].item()!r})"
        )

    try:
        for d, b1, b2, d1, d2 in zip(*(x[act].tolist() for x in (den, a1, a2, dp1, dp2))):
            lam = lev * value / d
            value = value + (lam * b1 * d1 + lam * b2 * d2)
            values.append(value)
            if not 0.0 < value < math.inf:
                break
    except ZeroDivisionError:
        raise zero_den(int(act[len(values) - 1])) from None
    steps = act[: len(values) - 1]  # the rows whose profit moved the value
    # from a halt on the account holds nothing and its value stays frozen
    halt = rows
    if not 0.0 < value < math.inf:
        if not value <= 0.0:
            raise DomainError(f"account_value must be finite and positive, got {value!r}")
        halt = int(steps[-1]) + 1
        logger.warning("account value %.6g <= 0 at k=%d; trading halted", value, first + halt)
    elif stop < rows:
        raise DomainError(f"threshold must be non-negative, got {tau[stop].item()!r}")
    active[halt:] = False
    # each active row's holdings from the value it was decided at
    held = np.flatnonzero(active)
    if held.size and den[held[-1]] == 0.0:
        # the last row's division, which the value loop does not make
        raise zero_den(int(held[-1]))
    n1, n2 = np.zeros(rows), np.zeros(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        lam = lev * np.array(values[: len(held)]) / den[held]
        n1[held], n2[held] = (-lam * sign[held] * g[held] for g in (g1, g2))
    ledger = Ledger(
        k=np.arange(first, len(series)),
        date=series.dates[first:],
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


def _bits(col: np.ndarray) -> np.ndarray:
    """The numeric column viewed as unsigned integers of its item size:
    equal bits, not ==, so -0.0 and 0.0 differ and a NaN equals itself."""
    return col.view(f"u{col.itemsize}")


def _has_runs(col) -> bool:
    """True for a numeric column where at least half the values have the
    bits of the value before them, as a window's estimates and the active
    flags do."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "biuf"):
        return False
    bits = _bits(col)
    return 0 < len(col) <= 2 * int(np.count_nonzero(bits[1:] == bits[:-1]))


def _run_texts(cols: tuple, fmt: str) -> list:
    """Consecutive run columns as the text of one field, their formats
    joined by commas in fmt: one %-format call for the first row of each
    run, repeated over the run. A run starts wherever the bits of any of
    the columns change."""
    rows = len(cols[0])
    new = np.zeros(rows, dtype=bool)
    new[0] = True
    for col in cols:
        bits = _bits(col)
        new[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(new)
    width = len(cols)
    flat = [None] * (len(starts) * width)
    for c, col in enumerate(cols):
        flat[c::width] = col[starts].tolist()
    texts = ((fmt + "\n") * len(starts) % tuple(flat)).split("\n")[:-1]
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=rows)).tolist()


def _write_rows(fh, fields: tuple, columns: list) -> None:
    """Write one row per index of the columns, each a numpy array or a tuple
    of date labels, the field of column c formatted by fields[c]: one
    %-format call per WRITE_CHUNK rows. Consecutive columns with runs (see
    _has_runs) go in as one field, text from _run_texts."""
    rows = len(columns[0])
    # per output field: its format in the row, the format of a run field's
    # text (None for a single column) and its columns
    out = []
    for run, group in groupby(zip(fields, columns), key=lambda field: _has_runs(field[1])):
        fmts, cols = zip(*group)
        if run:
            out.append(("%s", ",".join(fmts), cols))
        else:
            out.extend((fmt, None, col) for fmt, col in zip(fmts, cols))
    width = len(out)
    row = ",".join(fmt for fmt, _, _ in out) + "\n"
    for i in range(0, rows, WRITE_CHUNK):
        j = min(i + WRITE_CHUNK, rows)
        flat = [None] * ((j - i) * width)
        for c, (_, run_fmt, col) in enumerate(out):
            if run_fmt is not None:
                flat[c::width] = _run_texts(tuple(member[i:j] for member in col), run_fmt)
            elif isinstance(col, tuple):
                col = col[i:j]
                flat[c::width] = map(_csv_field, col) if _NEEDS_QUOTES("".join(col)) else col
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
