"""Acceptance gate: end-to-end checks with hard numeric tolerances.

Each criterion prints exactly one `criterion N PASS/FAIL` line so a log scrape
can grade a run without parsing pytest internals. Criterion 9 needs a real
historical dataset and is skipped unless PAIRTRADE_DATASET_CSV is set.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from pairtrade.backtest import BacktestConfig, run_backtest
from pairtrade.cli import main
from pairtrade.domain import PriceSeries
from pairtrade.estimation import estimate_eta, estimate_gamma
from pairtrade.spread import CointegrationSpread, SpreadModel
from pairtrade.synthetic import OUPairSpec, generate_pair

GEN = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, mu_true=0.0, gamma_cap=0.05)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_criterion_1_simulated_growth(self, capsys):
        # full-size Monte Carlo through the CLI; must finish inside a minute
        start = time.monotonic()
        rc = main(["montecarlo", "--trials", "10000", "--periods", "250", "--seed", "0"])
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)
        ok = (
            rc == 0
            and payload["trials"] == 10_000
            and payload["mean_dV"] > 0.0
            and payload["p_value"] < 1e-3
            and elapsed < 60.0
        )
        with capsys.disabled():
            _report(
                1,
                ok,
                f"mean_dV={payload['mean_dV']:.6g} p={payload['p_value']:.3g} "
                f"trials=10000 elapsed={elapsed:.1f}s",
            )

    def test_criterion_2_threshold_bound(self, capsys):
        rc = main(["verify-lemma", "--samples", "10000", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        ok = rc == 0 and payload["max_violation"] <= 1e-12 and payload["samples"] == 10_000
        with capsys.disabled():
            _report(2, ok, f"max_violation={payload['max_violation']:.3g} samples=10000")

    def test_criterion_3_derivative_consistency(self, capsys):
        rng = np.random.default_rng(42)
        h = 1e-6
        worst_g = worst_h = 0.0
        for _ in range(1_000):
            beta = float(rng.uniform(0.05, 5.0)) * float(rng.choice([-1.0, 1.0]))
            mu = float(rng.uniform(-2.0, 2.0))
            model = CointegrationSpread(beta, mu)
            p1, p2 = (float(np.exp(rng.uniform(0.0, np.log(1_000.0)))) for _ in range(2))
            grad = model.gradient(p1, p2)
            h11, _, h22 = model.hessian(p1, p2)
            for axis, price, h_ii in ((0, p1, h11), (1, p2, h22)):
                step = price * h
                lo, hi = _shift(p1, p2, axis, -step), _shift(p1, p2, axis, step)
                fd_g = (model.value(*hi) - model.value(*lo)) / (2.0 * step)
                worst_g = max(worst_g, abs(fd_g - grad[axis]) / max(abs(grad[axis]), 1e-12))
                fd_h = (model.gradient(*hi)[axis] - model.gradient(*lo)[axis]) / (2.0 * step)
                denom = max(abs(h_ii), 1e-12)
                worst_h = max(worst_h, abs(fd_h - h_ii) / denom)
        ok = worst_g <= 1e-6 and worst_h <= 1e-5
        with capsys.disabled():
            _report(3, ok, f"worst gradient rel err {worst_g:.3g}, hessian {worst_h:.3g}")

    def test_criterion_4_full_investment(self, capsys):
        worst = 0.0
        checked = 0
        for lev in (1.0, 2.0):
            series = generate_pair(OUPairSpec(**GEN, seed=14), 600)
            ledger, _ = run_backtest(series, BacktestConfig(leverage=lev))
            on = ledger.active
            gross = np.abs(ledger.n1[on]) * ledger.p1[on] + np.abs(ledger.n2[on]) * ledger.p2[on]
            target = lev * ledger.value[on]
            worst = max(worst, float(np.max(np.abs(gross - target) / target, initial=0.0)))
            checked += int(np.count_nonzero(on))
        ok = checked > 100 and worst <= 1e-9
        with capsys.disabled():
            _report(4, ok, f"gross exposure rel err {worst:.3g} over {checked} active rows")

    def test_criterion_5_loss_bound(self, capsys):
        # pinning gamma to the generator cap makes the per-step bound exact
        cfg = BacktestConfig(gamma_override=GEN["gamma_cap"])
        positive = True
        bound_ok = True
        worst = -math.inf
        for seed in range(100):
            series = generate_pair(OUPairSpec(**GEN, seed=seed), 2_000)
            ledger, report = run_backtest(series, cfg)
            positive &= report.final_value > 0.0
            value = ledger.value.tolist()
            for a, b in zip(value, value[1:]):
                loss_ratio = (a - b) / a
                worst = max(worst, loss_ratio)
                bound_ok &= loss_ratio <= GEN["gamma_cap"] * (1.0 + 1e-12)
        ok = positive and bound_ok
        with capsys.disabled():
            _report(
                5,
                ok,
                f"100 seeds x 2000 periods, worst one-step loss {worst:.6f} "
                f"<= gamma {GEN['gamma_cap']}",
            )

    def test_criterion_6_estimators(self, capsys):
        eta_hand = estimate_eta(np.array([1.0, 0.9, 0.8]))
        hand_ok = math.isclose(eta_hand, 0.2 / 1.9, rel_tol=0.0, abs_tol=1e-12)

        theta = 0.3
        decay = 0.9 * np.power(1.0 - theta, np.arange(60))
        decay_ok = math.isclose(estimate_eta(decay), theta, rel_tol=1e-9)

        rng = np.random.default_rng(3)
        p1 = 100.0 * np.exp(np.cumsum(rng.uniform(-0.03, 0.03, 200)))
        p2 = 50.0 * np.exp(np.cumsum(rng.uniform(-0.03, 0.03, 200)))
        series = PriceSeries([f"{i:06d}" for i in range(200)], p1, p2)
        x1 = np.diff(p1) / p1[:-1]
        x2 = np.diff(p2) / p2[:-1]
        brute = max(np.abs(x1).max(), np.abs(x2).max())
        # independent op order (diff/p vs p1/p0 - 1), so allow rounding noise
        gamma_ok = math.isclose(estimate_gamma(series.p1, series.p2), brute, rel_tol=1e-12)

        capped = generate_pair(OUPairSpec(**GEN, seed=5), 500)
        cap_ok = estimate_gamma(capped.p1, capped.p2) <= GEN["gamma_cap"]

        ok = hand_ok and decay_ok and gamma_ok and cap_ok
        with capsys.disabled():
            _report(
                6,
                ok,
                f"eta hand {eta_hand:.10f}, decay recovers theta, "
                f"gamma matches brute force and respects cap",
            )

    def test_criterion_7_degenerate_regimes(self, capsys):
        p1 = 100.0 * np.power(1.01, np.arange(120))
        series = PriceSeries([f"{i:06d}" for i in range(120)], p1, np.full(120, 50.0))
        ledger, report = run_backtest(series, fit_model=_fit_trend)
        trend_ok = (
            report.active_periods == 0
            and bool(np.all(ledger.threshold == math.inf))
            and report.final_value == 10_000.0
        )

        rng = np.random.default_rng(99)
        w1 = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 400)))
        w2 = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 400)))
        walk = PriceSeries([f"{i:06d}" for i in range(400)], w1, w2)
        _, walk_report = run_backtest(walk)
        walk_ok = math.isfinite(walk_report.final_value) and math.isfinite(
            walk_report.max_drawdown
        )

        ok = trend_ok and walk_ok
        with capsys.disabled():
            _report(
                7,
                ok,
                "trending spread never trades (tau inf), random walks complete finite",
            )

    def test_criterion_8_determinism(self, capsys, tmp_path):
        spec = OUPairSpec(**GEN, seed=21)
        series = generate_pair(spec, 300)
        csv_path = tmp_path / "pair.csv"
        lines = ["date,p1,p2"] + [
            f"{series.dates[i]},{float(series.p1[i])!r},{float(series.p2[i])!r}"
            for i in range(len(series))
        ]
        csv_path.write_text("\n".join(lines) + "\n")

        out = tmp_path / "run"
        blobs = []
        for _ in range(2):
            rc = main(["backtest", "--input", str(csv_path), "--out-dir", str(out)])
            assert rc == 0
            blobs.append(
                ((out / "ledger.csv").read_bytes(), (out / "report.json").read_bytes())
            )
        capsys.readouterr()
        backtest_ok = blobs[0] == blobs[1]

        outs = []
        for _ in range(2):
            rc = main(["montecarlo", "--trials", "500", "--periods", "120", "--seed", "4"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        mc_ok = outs[0] == outs[1]

        ok = backtest_ok and mc_ok
        with capsys.disabled():
            _report(8, ok, "repeat runs byte-identical (ledger, report, montecarlo JSON)")

    @pytest.mark.skipif(
        "PAIRTRADE_DATASET_CSV" not in os.environ,
        reason="historical dataset not provided (set PAIRTRADE_DATASET_CSV)",
    )
    def test_criterion_9_historical_pair(self, capsys, tmp_path):
        args = [
            "backtest",
            "--input",
            os.environ["PAIRTRADE_DATASET_CSV"],
            "--out-dir",
            str(tmp_path),
        ]
        adjust = os.environ.get("PAIRTRADE_DATASET_ADJUST")
        if adjust:
            args += ["--adjust", adjust]
        rc = main(args)
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        initial = report["config"]["initial_value"]
        ok = (
            report["total_return"] > 0.0
            and report["buyhold_1_final"] < initial
            and report["buyhold_2_final"] < initial
            and abs(report["total_return"] - 0.60) <= 0.15
        )
        with capsys.disabled():
            _report(
                9,
                ok,
                f"strategy {report['total_return']:+.2%} vs losing buy-and-holds",
            )


def _shift(p1: float, p2: float, axis: int, step: float) -> tuple[float, float]:
    if axis == 0:
        return p1 + step, p2
    return p1, p2 + step


class _TrendModel(SpreadModel):
    """Always-positive, always-rising spread. Test double for criterion 7."""

    def __init__(self, level):
        self.level = level

    def value(self, p1, p2):
        return np.log(p1) - self.level

    def gradient(self, p1, p2):
        return 1.0 / np.asarray(p1, dtype=float), 0.0

    def hessian(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        return -1.0 / (p1 * p1), 0.0, 0.0


def _fit_trend(p1, p2):
    return _TrendModel(np.min(np.log(p1), axis=-1, keepdims=True) - 1.0)
