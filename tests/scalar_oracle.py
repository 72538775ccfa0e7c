"""Scalar references: one path, one period, one price point at a time.

The Monte Carlo loops are the per-trial loops the package ran before its
kernels became time-major numpy blocks. Tests compare the package against
them: the same per-trial streams must give the same paths and trade events,
with pooled sums equal up to summation order.

run_backtest is the backtest engine's row-at-a-time loop from before it
fitted every window in one call, evaluated spreads, thresholds and gradients
over whole blocks and returned columns: it refits one training window at a
time with the per-window fit_cointegration, estimate_gamma and estimate_eta
below, calls the spread API on one price point at a time and records one
LedgerRow per period. write_ledger_csv and write_plot_csv are the csv.writer
paths that wrote those rows, one field list per row.

threshold_exact_grid is the exact threshold from before spread models gave
their own curvature bound: a 41 x 41 mesh scan of the box that takes the
Hessian at the displaced point only.

load_csv is the ingest row loop that worded every error while the package
parsed a file by column and read it again on a fault: one record at a time,
each check a statement of its own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from pairtrade.backtest import LEDGER_COLUMNS, buy_and_hold
from pairtrade.domain import PriceSeries, return_arrays
from pairtrade.ingest import FormatError, OrderingError, RowError, _read_header
from pairtrade.spread import CointegrationSpread, spread_gradient, spread_hessian, spread_value
from pairtrade.trading import allocate, threshold_approx, threshold_exact


def threshold_exact_grid(model, p1, p2, gamma, eta):
    """max |d' H(p + d) d| over the mesh d = p gamma u, u in linspace(-1, 1, 41)
    on each axis, over 2 eta; +inf where eta is non-positive. Scalar prices,
    gamma and eta."""
    u = np.linspace(-1.0, 1.0, 41)
    d1 = p1 * (gamma * u[:, None])
    d2 = p2 * (gamma * u[None, :])
    h11, h12, h22 = spread_hessian(model, p1 + d1, p2 + d2)
    worst = float(np.max(np.abs(d1 * d1 * h11 + 2.0 * d1 * d2 * h12 + d2 * d2 * h22)))
    return worst / (2.0 * eta) if eta > 0.0 else math.inf


def ou_recursion(u, v, theta, sigma_s, sigma_w, s0, w0):
    """Drive the spread and log-price recursions with innovation arrays.

        s(k+1) = (1 - theta) s(k) + sigma_s u(k)
        w(k+1) = w(k) + sigma_w v(k)

    Returns (s, w) of length len(u) + 1 including the initial state.
    """
    n = len(u)
    ul = u.tolist()
    vl = v.tolist()
    s = np.empty(n + 1)
    w = np.empty(n + 1)
    one_minus_theta = 1.0 - theta
    sk = s0
    wk = w0
    s[0] = sk
    w[0] = wk
    for k in range(n):
        sk = one_minus_theta * sk + sigma_s * ul[k]
        wk = wk + sigma_w * vl[k]
        s[k + 1] = sk
        w[k + 1] = wk
    return s, w


def trade_scan(p1, p2, s, beta, tau, leverage, v0):
    """Run the fully-invested threshold rule down one price path.

    Returns (dv, sabs, v_final): the profit and |spread| of every traded
    period, and the account value after the last one. The last period is
    never traded: its profit would need period n.
    """
    n = len(p1)
    p1l = p1.tolist()
    p2l = p2.tolist()
    sl = s.tolist()
    v = v0
    dv_out, sabs_out = [], []
    for k in range(n - 1):
        sk = sl[k]
        if abs(sk) > tau:
            p1k = p1l[k]
            p2k = p2l[k]
            g1 = -beta / p1k
            g2 = 1.0 / p2k
            lam = leverage * v / (abs(g1) * p1k + abs(g2) * p2k)
            sgn = 1.0 if sk > 0.0 else -1.0
            n1 = -lam * sgn * g1
            n2 = -lam * sgn * g2
            dv = n1 * (p1l[k + 1] - p1k) + n2 * (p2l[k + 1] - p2k)
            v = v + dv
            dv_out.append(dv)
            sabs_out.append(abs(sk))
    return np.array(dv_out), np.array(sabs_out), v


def simulate(spec, length, rng):
    """One path from one generator: (s, w, p1, p2), each of the given length."""
    uv = rng.uniform(-1.0, 1.0, size=(2, length - 1))
    s, w = ou_recursion(
        uv[0], uv[1], spec.theta, spec.sigma_s, spec.sigma_w, spec.s0, math.log(spec.p0.p1)
    )
    p1 = np.exp(w)
    p2 = np.exp(spec.beta_true * w + (spec.mu_true + s))
    return s, w, p1, p2


def generate_pair_arrays(spec, length):
    """(p1, p2) of generate_pair(spec, length)."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    _, _, p1, p2 = simulate(spec, length, rng)
    return p1, p2


def verify_theorem(spec, trials, periods, eta_assumed=None, gamma_assumed=None, mode="approx",
                   leverage=1.0, initial_value=10_000.0, collect_bins=0):
    """Trial-by-trial Monte Carlo: a dict with the TheoremSummary fields it checks.

    Events are pooled trial after trial; trade_events, the event profits
    (`dv`, in that order) and bin_counts are exact, the means and the
    p-value carry the summation order of this loop.
    """
    eta = spec.theta if eta_assumed is None else eta_assumed
    gamma = spec.gamma_cap if gamma_assumed is None else gamma_assumed
    model = CointegrationSpread(spec.beta_true, spec.mu_true)
    if mode == "approx":
        tau = threshold_approx(model, spec.p0.p1, spec.p0.p2, gamma, eta)
    else:
        tau = threshold_exact(model, spec.p0.p1, spec.p0.p2, gamma, eta)

    events = []
    count, total, totsq = 0, 0.0, 0.0
    use_bins = collect_bins > 0 and math.isfinite(tau)
    if use_bins:
        edges = np.linspace(tau, max(spec.spread_bound, tau * (1.0 + 1e-9)), collect_bins + 1)
        bin_sums = np.zeros(collect_bins)
        bin_counts = np.zeros(collect_bins, dtype=np.int64)
    for child in np.random.SeedSequence(spec.seed).spawn(trials):
        rng = np.random.default_rng(child)
        s, _, p1, p2 = simulate(spec, periods, rng)
        dv, sabs, _ = trade_scan(p1, p2, s, spec.beta_true, tau, leverage, initial_value)
        events.append(dv)
        if dv.size:
            count += dv.size
            total += float(np.sum(dv))
            totsq += float(np.dot(dv, dv))
            if use_bins:
                idx = np.clip(np.digitize(sabs, edges) - 1, 0, collect_bins - 1)
                bin_sums += np.bincount(idx, weights=dv, minlength=collect_bins)
                bin_counts += np.bincount(idx, minlength=collect_bins)

    out = {"tau": tau, "trade_events": count, "dv": np.concatenate(events),
           "mean_dv": None, "p_value": None}
    if count:
        mean = total / count
        out["mean_dv"] = mean
        if count > 1:
            var = (totsq - count * mean * mean) / (count - 1)
            if var <= 0.0:
                out["p_value"] = 0.0 if mean > 0.0 else 1.0
            else:
                out["p_value"] = float(stats.t.sf(mean / math.sqrt(var / count), count - 1))
    if use_bins:
        out["bin_counts"] = tuple(int(c) for c in bin_counts)
        out["bin_mean_dv"] = tuple(
            float(bin_sums[i] / bin_counts[i]) if bin_counts[i] else math.nan
            for i in range(collect_bins)
        )
    return out


@dataclass(frozen=True)
class LedgerRow:
    """One period of the backtest ledger, the columns of pairtrade.backtest.Ledger."""

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


def fit_cointegration(p1, p2):
    """Least-squares fit of log p2 = beta log p1 + mu over one window, with
    float parameters; None when log p1 is constant."""
    x = np.log(p1)
    y = np.log(p2)
    xm = float(np.mean(x))
    ym = float(np.mean(y))
    dx = x - xm
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        return None
    beta = float(np.dot(dx, y - ym)) / sxx
    return CointegrationSpread(beta=beta, mu=ym - beta * xm)


def estimate_gamma(window, floor):
    """Max absolute relative return over one window; `floor` only if that max is 0."""
    m = float(np.max(np.abs(return_arrays(window))))
    return floor if m == 0.0 else m


def estimate_eta(path):
    """Reversion-rate estimate from one spread path of floats."""
    s = np.asarray(path, dtype=float)
    head = s[:-1]
    num = -float(np.sum(np.sign(head) * np.diff(s)))
    den = float(np.sum(np.abs(head)))
    return 0.0 if den == 0.0 else num / den


def _float(x):
    """A float from a float or a one-element array: a model fitted on one
    window holds parameters shaped (1,)."""
    return np.asarray(x, dtype=float).item()


def run_backtest(series, config, fit_model=fit_cointegration):
    """Ledger rows of pairtrade.backtest.run_backtest, computed row by row.

    fit_model is called on one training window at a time, as
    fit_model(p1, p2); a window without a model (None) or whose spread is
    not finite over it trades nothing and has NaN estimates.
    """
    n_train = config.window.train_len
    stride = config.window.trade_len
    threshold = threshold_exact if config.threshold_mode == "exact" else threshold_approx
    value = config.initial_value
    rows = []
    model = None
    estimates = (math.nan,) * 4
    tradeable = False
    halted = False
    for k in range(n_train, len(series)):
        if (k - n_train) % stride == 0:
            window = series.window(k - n_train, k)
            model = fit_model(window.p1, window.p2)
            path = [] if model is None else [
                _float(spread_value(model, float(window.p1[j]), float(window.p2[j])))
                for j in range(len(window))
            ]
            if not (path and all(math.isfinite(x) for x in path)):
                model = None
                estimates = (math.nan,) * 4
                tradeable = False
            else:
                if config.gamma_override is not None:
                    gamma = config.gamma_override
                else:
                    gamma = min(estimate_gamma(window, config.gamma_floor), 1.0)
                eta = estimate_eta(path)
                estimates = (
                    _float(getattr(model, "beta", math.nan)),
                    _float(getattr(model, "mu", math.nan)),
                    gamma,
                    eta,
                )
                tradeable = gamma < 1.0 and config.leverage * gamma < 1.0 and eta > 0.0
        p1, p2 = float(series.p1[k]), float(series.p2[k])
        spread = math.nan if model is None else _float(spread_value(model, p1, p2))
        tau = _float(threshold(model, p1, p2, estimates[2], estimates[3])) if tradeable else math.inf
        if halted or value <= 0.0:
            halted = True
            n1, n2, active = 0.0, 0.0, False
        else:
            active = abs(spread) > tau
            g1, g2 = spread_gradient(model, p1, p2) if active else (math.nan, math.nan)
            n1, n2 = allocate(_float(g1), _float(g2), p1, p2, spread, tau, value, config.leverage)
        rows.append(LedgerRow(k, series.dates[k], p1, p2, spread, tau, *estimates, n1, n2, value, active))
        if k + 1 < len(series):
            value = value + (n1 * (float(series.p1[k + 1]) - p1) + n2 * (float(series.p2[k + 1]) - p2))
    return rows


def ledger_rows(ledger):
    """The columns of a pairtrade.backtest.Ledger as LedgerRows."""
    columns = [getattr(ledger, name) for name in LEDGER_COLUMNS]
    return [LedgerRow(*row) for row in zip(*(c if isinstance(c, tuple) else c.tolist() for c in columns))]


def _fmt(x):
    return "%.10g" % (x,)


def write_ledger_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.k, r.date, _fmt(r.p1), _fmt(r.p2), _fmt(r.spread), _fmt(r.threshold),
                 _fmt(r.beta), _fmt(r.mu), _fmt(r.gamma), _fmt(r.eta), _fmt(r.n1), _fmt(r.n2),
                 _fmt(r.value), 1 if r.active else 0]
            )


def write_plot_csv(path, series, rows, initial_value):
    bh1 = buy_and_hold(series, 1, initial_value)
    bh2 = buy_and_hold(series, 2, initial_value)
    first = rows[0].k if rows else len(series)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "date", "value", "buyhold_1", "buyhold_2"])
        for k in range(len(series)):
            value = initial_value if k < first else rows[k - first].value
            writer.writerow([k, series.dates[k], _fmt(value), _fmt(bh1[k]), _fmt(bh2[k])])


def load_csv(path) -> PriceSeries:
    """load_csv one row at a time, checking each row as it is read."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader)
        dates: list[str] = []
        p1: list[float] = []
        p2: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise RowError(line_no, f"expected 3 fields, got {len(row)}")
            date = row[0].strip()
            if not date:
                raise RowError(line_no, "empty date")
            vals = []
            for name, text in (("p1", row[1]), ("p2", row[2])):
                try:
                    x = float(text)
                except ValueError:
                    raise RowError(line_no, f"{name} is not a number: {text!r}") from None
                if not (math.isfinite(x) and x > 0.0):
                    raise RowError(line_no, f"{name} must be finite and positive, got {text!r}")
                vals.append(x)
            if dates and not (dates[-1] < date):
                raise OrderingError(
                    f"line {line_no}: date {date!r} does not increase over {dates[-1]!r}"
                )
            dates.append(date)
            p1.append(vals[0])
            p2.append(vals[1])
    if not dates:
        raise FormatError("no data rows")
    return PriceSeries(tuple(dates), p1, p2)
