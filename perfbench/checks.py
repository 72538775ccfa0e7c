"""Output checks for the benchmark workloads, run outside the timed body.

Each check recomputes what it can from the inputs with its own numpy code and
tests the rest against properties of the method; none compares with a stored
copy of an earlier output. A failed check raises CheckFailed naming the first
offending value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LEDGER_COLUMNS = (
    "k", "date", "p1", "p2", "spread", "threshold", "beta", "mu",
    "gamma", "eta", "n1", "n2", "value", "active",
)
GAMMA_FLOOR = 1e-4
# the ledger prints floats with 10 significant digits
PRINT_RTOL = 1e-8
# |S| below this makes sign(S), and so eta's numerator, depend on rounding
SIGN_TIE = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation or a property."""


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        bad = ~same_inf & ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.argmax(bad))
        slack = np.broadcast_to(atol, bad.shape).flat[i]
        raise CheckFailed(
            f"{name}[{i}] = {got.flat[i]!r}, expected {want.flat[i]!r} (rtol {rtol}, atol {slack:.3g})"
        )


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_prices(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return data[:, 0].copy(), data[:, 1].copy()


def read_ledger(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(tuple(rows[0]) == LEDGER_COLUMNS, f"ledger header is {rows[0]}")
    cols = list(zip(*rows[1:]))
    out = {name: np.array(col, dtype=float) for name, col in zip(LEDGER_COLUMNS, cols) if name != "date"}
    out["k"] = out["k"].astype(np.int64)
    return out


@dataclass(frozen=True)
class BacktestParams:
    train_len: int = 40
    trade_len: int = 5
    leverage: float = 1.0
    initial_value: float = 10_000.0
    threshold_mode: str = "approx"


def window_fits(p1: np.ndarray, p2: np.ndarray, params: BacktestParams):
    """Per-refit beta, mu, gamma and the [lo, hi] range of eta.

    Refit j trains on rows [j*trade_len, j*trade_len + train_len) and holds
    for the trade_len rows that follow. eta is a range because a window
    spread within SIGN_TIE of 0 has no reliable sign.
    """
    n_train = params.train_len
    starts = np.arange(0, len(p1) - n_train, params.trade_len)
    x = sliding_window_view(np.log(p1), n_train)[starts]
    y = sliding_window_view(np.log(p2), n_train)[starts]
    dx = x - x.mean(axis=1, keepdims=True)
    beta = np.einsum("ij,ij->i", dx, y - y.mean(axis=1, keepdims=True)) / np.einsum("ij,ij->i", dx, dx)
    mu = y.mean(axis=1) - beta * x.mean(axis=1)

    r1 = sliding_window_view(np.abs(np.diff(p1) / p1[:-1]), n_train - 1)[starts]
    r2 = sliding_window_view(np.abs(np.diff(p2) / p2[:-1]), n_train - 1)[starts]
    gamma = np.maximum(r1.max(axis=1), r2.max(axis=1))
    gamma = np.minimum(np.where(gamma == 0.0, GAMMA_FLOOR, gamma), 1.0)

    s = y - beta[:, None] * x - mu[:, None]
    head, step = s[:, :-1], np.diff(s, axis=1)
    tie = np.abs(head) <= SIGN_TIE
    firm = -np.sum(np.where(tie, 0.0, np.sign(head) * step), axis=1)
    loose = np.sum(np.where(tie, np.abs(step), 0.0), axis=1)
    den = np.sum(np.abs(head), axis=1)
    safe = np.where(den == 0.0, 1.0, den)
    eta_lo = np.where(den == 0.0, 0.0, (firm - loose) / safe)
    eta_hi = np.where(den == 0.0, 0.0, (firm + loose) / safe)
    return beta, mu, gamma, eta_lo, eta_hi


def expected_threshold(beta, gamma, eta, params: BacktestParams) -> np.ndarray:
    """The documented threshold, inf where the window may not trade."""
    beta, gamma, eta = (np.asarray(a, dtype=float) for a in (beta, gamma, eta))
    if params.threshold_mode == "exact":
        c = np.where(beta > 0.0, np.maximum(beta, 1.0), np.abs(beta) + 1.0)
        core = gamma**2 / (1.0 - gamma) ** 2 * c
    else:
        core = gamma**2 * np.abs(beta - 1.0)
    tradeable = (eta > 0.0) & (gamma < 1.0) & (params.leverage * gamma < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tradeable, core / (2.0 * eta), math.inf)


def check_backtest(input_csv: Path, out_dir: Path, params: BacktestParams, expect_growth: bool) -> None:
    """Check ledger.csv, report.json and plot.csv against the input prices."""
    p1, p2 = read_prices(input_csv)
    n, n_train = len(p1), params.train_len
    led = read_ledger(out_dir / "ledger.csv")
    _require(np.array_equal(led["k"], np.arange(n_train, n)), "ledger rows are not k = train_len .. n-1")
    _close("ledger p1", led["p1"], p1[n_train:], PRINT_RTOL)
    _close("ledger p2", led["p2"], p2[n_train:], PRINT_RTOL)

    beta, mu, gamma, eta_lo, eta_hi = window_fits(p1, p2, params)
    j = (led["k"] - n_train) // params.trade_len
    _close("beta", led["beta"], beta[j], PRINT_RTOL, 1e-10)
    _close("mu", led["mu"], mu[j], PRINT_RTOL, 1e-9 * (1.0 + np.abs(mu[j])))
    _close("gamma", led["gamma"], gamma[j], PRINT_RTOL)
    eta = led["eta"]
    eta_tol = PRINT_RTOL * (1.0 + np.abs(eta))
    bad = (eta < eta_lo[j] - eta_tol) | (eta > eta_hi[j] + eta_tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(f"eta[{i}] = {eta[i]!r}, expected in [{eta_lo[j][i]!r}, {eta_hi[j][i]!r}]")

    k = led["k"]
    spread = np.log(p2[k]) - beta[j] * np.log(p1[k]) - mu[j]
    _close("spread", led["spread"], spread, PRINT_RTOL, 1e-9)
    tau = led["threshold"]
    # |beta - 1| cancels digits when beta is near 1, so slack scales with gamma^2 / eta
    with np.errstate(divide="ignore"):
        tau_slack = np.where(eta > 0.0, gamma[j] ** 2 * 1e-8 * (1.0 + np.abs(beta[j])) / eta, 0.0)
    _close("threshold", tau, expected_threshold(beta[j], gamma[j], eta, params), PRINT_RTOL, tau_slack)

    value = led["value"]
    s_abs = np.abs(led["spread"])
    halted = np.cumsum(value <= 0.0) > 0
    want_active = (s_abs > tau) & ~halted
    decided = ~(np.abs(s_abs - tau) <= 1e-9 * np.maximum(s_abs, tau))
    active = led["active"] == 1.0
    _require(np.all(np.isin(led["active"], (0.0, 1.0))), "active is not 0/1")
    wrong = decided & (active != want_active)
    if np.any(wrong):
        i = int(np.argmax(wrong))
        raise CheckFailed(f"active[{i}] = {int(active[i])} with |spread| {s_abs[i]!r}, threshold {tau[i]!r}")

    n1, n2 = led["n1"], led["n2"]
    _require(np.all((n1[~active] == 0.0) & (n2[~active] == 0.0)), "holdings on an inactive row")
    pa, qa = p1[k][active], p2[k][active]
    _close("gross exposure", np.abs(n1[active]) * pa + np.abs(n2[active]) * qa,
           params.leverage * value[active], PRINT_RTOL)
    _require(np.all(np.sign(n2[active]) == -np.sign(led["spread"][active])),
             "position does not lean against the spread")
    _close("holding ratio n1 p1 / (n2 p2)", n1[active] * pa / (n2[active] * qa),
           -led["beta"][active], 1e-7)

    _require(value[0] == params.initial_value, f"value[0] = {value[0]!r}")
    dv = n1[:-1] * np.diff(p1[k]) + n2[:-1] * np.diff(p2[k])
    scale = np.abs(value[:-1]) + np.abs(n1[:-1]) * p1[k][:-1] + np.abs(n2[:-1]) * p2[k][:-1]
    _close("value", value[1:], value[:-1] + dv, 0.0, PRINT_RTOL * scale)

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    final = value[-1]
    peaks = np.maximum.accumulate(value)
    _close("report final_value", report["final_value"], final, PRINT_RTOL)
    _close("report total_return", report["total_return"],
           report["final_value"] / params.initial_value - 1.0, 1e-12, 1e-15)
    _close("report max_drawdown", report["max_drawdown"], np.max((peaks - value) / peaks), 1e-6, 1e-9)
    _require(report["active_periods"] == int(active.sum()), "report active_periods != ledger count")
    _close("report buyhold_1_final", report["buyhold_1_final"], params.initial_value * p1[-1] / p1[0], 1e-12)
    _close("report buyhold_2_final", report["buyhold_2_final"], params.initial_value * p2[-1] / p2[0], 1e-12)
    _require(report["config"]["threshold_mode"] == params.threshold_mode, "report config threshold_mode")

    plot = np.loadtxt(out_dir / "plot.csv", delimiter=",", skiprows=1, usecols=(0, 2, 3, 4), ndmin=2)
    _require(plot.shape[0] == n, f"plot.csv has {plot.shape[0]} rows, expected {n}")
    _close("plot value", plot[:, 1],
           np.concatenate((np.full(n_train, params.initial_value), value)), PRINT_RTOL)
    _close("plot buyhold_1", plot[:, 2], params.initial_value * p1 / p1[0], PRINT_RTOL)
    _close("plot buyhold_2", plot[:, 3], params.initial_value * p2 / p2[0], PRINT_RTOL)

    if expect_growth:
        _require(final > params.initial_value,
                 f"mean-reverting pair ended at {final!r}, below the initial {params.initial_value!r}")


@dataclass(frozen=True)
class MonteCarloParams:
    """The montecarlo command's documented defaults."""

    theta: float = 0.3
    sigma_s: float = 0.012
    sigma_w: float = 0.005
    beta: float = 2.0
    mu: float = 0.0
    gamma: float = 0.05
    eta: float = 0.2
    p0: tuple[float, float] = (100.0, 50.0)
    s0: float = 0.0
    leverage: float = 1.0
    initial_value: float = 10_000.0


def resimulate_theorem(seed: int, trials: int, periods: int, m: MonteCarloParams,
                       chunk: int = 1000) -> tuple[int, float]:
    """(trade_events, mean dV) of the montecarlo run, re-simulated in numpy.

    Seeding rule: trial t draws a (2, periods - 1) block of U[-1, 1] from
    default_rng(SeedSequence(seed).spawn(trials)[t]); row 0 drives the
    spread, row 1 the log-price walk. Trials are simulated side by side, a
    chunk at a time, with the approx threshold gamma^2 |beta - 1| / (2 eta).
    """
    tau = m.gamma**2 * abs(m.beta - 1.0) / (2.0 * m.eta)
    children = np.random.SeedSequence(seed).spawn(trials)
    events, total = 0, 0.0
    for lo in range(0, trials, chunk):
        block = np.stack([np.random.default_rng(c).uniform(-1.0, 1.0, size=(2, periods - 1))
                          for c in children[lo:lo + chunk]])
        u, v = block[:, 0, :], block[:, 1, :]
        s = np.empty((len(block), periods))
        w = np.empty((len(block), periods))
        s[:, 0] = m.s0
        w[:, 0] = math.log(m.p0[0])
        for k in range(periods - 1):
            s[:, k + 1] = (1.0 - m.theta) * s[:, k] + m.sigma_s * u[:, k]
            w[:, k + 1] = w[:, k] + m.sigma_w * v[:, k]
        p1 = np.exp(w)
        p2 = np.exp(m.beta * w + (m.mu + s))
        value = np.full(len(block), m.initial_value)
        for k in range(periods - 1):
            on = np.abs(s[:, k]) > tau
            g1, g2 = -m.beta / p1[:, k], 1.0 / p2[:, k]
            lam = m.leverage * value / (np.abs(g1) * p1[:, k] + np.abs(g2) * p2[:, k])
            sgn = np.where(s[:, k] > 0.0, 1.0, -1.0)
            n1, n2 = -lam * sgn * g1, -lam * sgn * g2
            dv = np.where(on, n1 * (p1[:, k + 1] - p1[:, k]) + n2 * (p2[:, k + 1] - p2[:, k]), 0.0)
            value = value + dv
            events += int(on.sum())
            total += float(dv.sum())
    return events, total / events


def check_montecarlo(stdout: str, seed: int, trials: int, periods: int) -> None:
    out = json.loads(stdout)
    m = MonteCarloParams()
    cfg = out["config"]
    for key in ("theta", "sigma_s", "sigma_w", "beta", "mu", "eta", "leverage", "initial_value", "s0"):
        _require(cfg[key] == getattr(m, key), f"config {key} = {cfg[key]!r}, expected {getattr(m, key)!r}")
    _require(list(cfg["p0"]) == list(m.p0), f"config p0 = {cfg['p0']!r}")
    _require(cfg["gamma"] in (None, m.gamma) and cfg["gamma_cap"] == m.gamma, "config gamma")
    _require(out["trials"] == trials and out["mode"] == "approx", "trials or mode echoed wrong")
    events, mean_dv = resimulate_theorem(seed, trials, periods, m)
    _require(out["trade_events"] == events, f"trade_events = {out['trade_events']}, re-simulated {events}")
    _close("mean_dV", out["mean_dV"], mean_dv, 1e-9)
    _require(out["mean_dV"] > 0.0, f"mean_dV = {out['mean_dV']!r} is not positive")
    _require(out["p_value"] < 1e-3, f"p_value = {out['p_value']!r} is not below 1e-3")


def lemma_bounds(beta: float, gamma: float) -> tuple[float, float, float]:
    """(four-corner remainder, supremum of the remainder, curvature bound).

    For the log-linear spread the first-order remainder at relative moves
    (t1, t2) is g(t2) - beta g(t1) with g(t) = log(1 + t) - t <= 0, whatever
    the price; g is smallest at t = -gamma. The bound is the exact threshold
    at eta = 1.
    """
    def g(t):
        return math.log1p(t) - t

    c = max(beta, 1.0) if beta > 0.0 else abs(beta) + 1.0
    corner = max(abs(g(b) - beta * g(a)) for a in (gamma, -gamma) for b in (gamma, -gamma))
    return corner, c * -g(-gamma), gamma**2 / (1.0 - gamma) ** 2 * c / 2.0


def check_lemma(stdout: str, samples: int, beta: float = 2.0, gamma: float = 0.05) -> None:
    out = json.loads(stdout)
    _require(out["samples"] == samples and out["gamma"] == gamma, "samples or gamma echoed wrong")
    _require(out["config"]["beta"] == beta, f"config beta = {out['config']['beta']!r}")
    _require(out["max_violation"] <= 1e-12, f"max_violation = {out['max_violation']!r}")
    _require(out["max_ratio"] <= 1.0, f"max_ratio = {out['max_ratio']!r}")
    corner, sup, bound = lemma_bounds(beta, gamma)
    rem = out["max_remainder"]
    _require(corner - 1e-12 <= rem <= sup + 1e-12,
             f"max_remainder = {rem!r} outside [{corner!r}, {sup!r}]")
    _close("max_ratio", out["max_ratio"], rem / bound, 1e-9)
    _close("max_violation", out["max_violation"], rem - bound, 0.0, 1e-12)
