"""Each output checker accepts the program's real output and rejects one
corruption of it; the tracer and the host-speed sampler do what run.py needs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from pairtrade import cli  # noqa: E402

MC = dict(seed=5, trials=300, periods=60)
LEMMA_SAMPLES = 500


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def _backtest(tmp_path: Path, mode: str) -> tuple[Path, Path, checks.BacktestParams]:
    spec = inputs.PairSpec(drift=0.0, **inputs.BACKTEST_PAIR)
    csv_path, out = tmp_path / "pair.csv", tmp_path / "out"
    inputs.write_csv(csv_path, *inputs.simulate(spec, 300, np.random.default_rng(7)))
    _run(["backtest", "--input", str(csv_path), "--out-dir", str(out), "--threshold-mode", mode])
    return csv_path, out, checks.BacktestParams(threshold_mode=mode)


def _edit_ledger(out: Path, column: str, edit) -> None:
    path = out / "ledger.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    row = next(r for r in rows[1:] if r[rows[0].index("active")] == "1")
    row[col] = edit(row[col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_backtest_output_passes(tmp_path, mode):
    csv_path, out, params = _backtest(tmp_path, mode)
    checks.check_backtest(csv_path, out, params, expect_growth=True)


@pytest.mark.parametrize(
    "column, edit, message",
    [
        ("active", lambda x: "0", "active"),
        ("value", lambda x: repr(float(x) * (1.0 + 1e-6)), "value|gross exposure"),
        ("beta", lambda x: repr(float(x) + 1e-6), "beta"),
        ("eta", lambda x: repr(float(x) * 1.001), "eta"),
        ("spread", lambda x: repr(-float(x)), "spread"),
        ("threshold", lambda x: repr(float(x) * 1.01), "threshold"),
        ("n1", lambda x: repr(float(x) * 1.01), "gross exposure"),
    ],
)
def test_backtest_corruption_rejected(tmp_path, column, edit, message):
    csv_path, out, params = _backtest(tmp_path, "approx")
    _edit_ledger(out, column, edit)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_backtest(csv_path, out, params, expect_growth=True)


def test_backtest_report_disagreeing_with_ledger_rejected(tmp_path):
    csv_path, out, params = _backtest(tmp_path, "approx")
    report = json.loads((out / "report.json").read_text())
    report["active_periods"] += 1
    (out / "report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="active_periods"):
        checks.check_backtest(csv_path, out, params, expect_growth=True)


def test_exact_threshold_closed_form_matches_documented_cases():
    params = checks.BacktestParams(threshold_mode="exact")
    tau = checks.expected_threshold([2.0, 0.5, -0.7], [0.05] * 3, [0.2, 0.2, -0.1], params)
    base = 0.05**2 / 0.95**2 / 0.4
    assert tau[0] == pytest.approx(2.0 * base, rel=1e-15)
    assert tau[1] == pytest.approx(base, rel=1e-15)
    assert tau[2] == np.inf


def test_montecarlo_output_passes():
    stdout = _run(["montecarlo", "--trials", str(MC["trials"]), "--periods", str(MC["periods"]),
                   "--seed", str(MC["seed"])])
    checks.check_montecarlo(stdout, **MC)


@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("trade_events", lambda x: x + 1, "trade_events"),
        ("mean_dV", lambda x: x * (1.0 + 1e-6), "mean_dV"),
        ("p_value", lambda x: 0.01, "p_value"),
    ],
)
def test_montecarlo_corruption_rejected(key, edit, message):
    payload = json.loads(_run(["montecarlo", "--trials", str(MC["trials"]),
                               "--periods", str(MC["periods"]), "--seed", str(MC["seed"])]))
    payload[key] = edit(payload[key])
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_montecarlo(json.dumps(payload), **MC)


def test_lemma_output_passes():
    checks.check_lemma(_run(["verify-lemma", "--samples", str(LEMMA_SAMPLES)]), LEMMA_SAMPLES)


@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("max_remainder", lambda x: checks.lemma_bounds(2.0, 0.05)[1] * 1.001, "max_remainder"),
        ("max_remainder", lambda x: checks.lemma_bounds(2.0, 0.05)[0] * 0.999, "max_remainder"),
        ("max_violation", lambda x: 1e-9, "max_violation"),
        ("max_ratio", lambda x: x * 0.99, "max_ratio"),
    ],
)
def test_lemma_corruption_rejected(key, edit, message):
    payload = json.loads(_run(["verify-lemma", "--samples", str(LEMMA_SAMPLES)]))
    payload[key] = edit(payload[key])
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_lemma(json.dumps(payload), LEMMA_SAMPLES)


def test_lemma_bounds_bracket_the_remainder_on_the_box():
    t = np.linspace(-0.05, 0.05, 201)
    g = np.log1p(t) - t
    rem = np.abs(g[None, :] - 2.0 * g[:, None])
    corner, sup, _ = checks.lemma_bounds(2.0, 0.05)
    assert corner <= rem.max() <= sup
    assert rem.max() == pytest.approx(sup, rel=1e-12)


def test_tracer_counts_calls_and_restores_the_program():
    from pairtrade import synthetic

    original = synthetic.threshold_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run(["verify-lemma", "--samples", "50"])
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert synthetic.threshold_exact is original
    assert snap["cli.main_calls"] == 1
    assert snap["trading.threshold_exact_calls"] == 50
    assert snap["spread.spread_gradient_calls"] == 50
    assert snap["backtest.run_backtest_calls"] == 0
    assert 0.0 < snap["synthetic.verify_lemma_self_s"] < snap["synthetic.verify_lemma_s"]


def test_tracer_reports_a_missing_layer_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("spread.no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "spread.no_such_function" in tracer.absent
    assert "spread.no_such_function_s" not in tracer.snapshot()


def test_host_slowdown_is_the_harmonic_mean_of_the_samples_in_the_interval():
    clock = hostclock.HostClock(ref_s=1.0)
    clock.samples = [(0.5, 1.0), (1.5, 2.0), (2.5, 4.0)]
    assert clock.slowdown(1.0, 3.0) == pytest.approx(2.0 / (1 / 2.0 + 1 / 4.0))
    assert clock.slowdown(5.0, 6.0) == pytest.approx(3.0 / (1.0 + 1 / 2.0 + 1 / 4.0))


def test_host_clock_samples_while_running_and_restores_the_signal():
    clock = hostclock.HostClock()
    clock.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        clock.stop()
    assert len(clock.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
