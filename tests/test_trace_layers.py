"""The program keeps every name the benchmark's tracer wraps.

perfbench/tracing.py wraps public functions by their dotted names and counts
PricePoint constructions; a renamed or deleted one is reported absent, and
the traced run then lacks per-layer metrics that BENCHMARK.json declares.
The tracer is loaded unchanged and run around one small CLI backtest.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from pairtrade.cli import main

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# metrics the benchmark runner adds to the tracer's snapshot
RUNNER_METRICS = {"import.scipy_stats_s", "trace.overhead_s", "host.calib_s"}
ROWS, TRAIN_LEN = 200, 40


def _traced_backtest(perfbench, tmp_path, *extra):
    """(tracer, snapshot) of one traced CLI backtest on a ROWS-row pair."""
    tracing, inputs = perfbench("tracing"), perfbench("inputs")
    csv_path = tmp_path / "pair.csv"
    spec = inputs.PairSpec(drift=0.0, **inputs.BACKTEST_PAIR)
    inputs.write_csv(csv_path, *inputs.simulate(spec, ROWS, np.random.default_rng(3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            argv = ["backtest", "--input", str(csv_path), "--out-dir", str(tmp_path), *extra]
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer, tracer.snapshot()


def test_traced_backtest_has_every_declared_layer(perfbench, tmp_path):
    tracer, snap = _traced_backtest(perfbench, tmp_path)

    assert tracer.absent == []
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert set(snap) | RUNNER_METRICS == declared
    # one array call each per run: the fit, gamma and eta over all training
    # windows, a spread over them and one over the trade blocks, a threshold
    # and a gradient over the trade blocks; no window slices, no PricePoint
    assert snap["spread.fit_cointegration_calls"] == 1
    assert snap["estimation.estimate_gamma_calls"] == 1
    assert snap["estimation.estimate_eta_calls"] == 1
    assert snap["spread.spread_value_calls"] == 2
    assert snap["trading.threshold_approx_calls"] == 1
    assert snap["trading.threshold_exact_calls"] == 0
    assert snap["spread.spread_gradient_calls"] == 1
    assert snap["domain.PriceSeries.window_calls"] == 0
    assert snap["domain.PricePoint_calls"] == 0
    assert snap["backtest.ledger_rows"] == ROWS - TRAIN_LEN


def test_traced_exact_backtest_takes_no_hessian(perfbench, tmp_path):
    # the log-linear curvature bound is closed form: one exact threshold
    # call over the trade blocks, and no Hessian anywhere in the run
    tracer, snap = _traced_backtest(perfbench, tmp_path, "--threshold-mode", "exact")
    assert tracer.absent == []
    assert snap["trading.threshold_exact_calls"] == 1
    assert snap["trading.threshold_approx_calls"] == 0
    assert snap["spread.spread_hessian_calls"] == 0
    assert snap["spread.spread_gradient_calls"] == 1
    assert snap["backtest.ledger_rows"] == ROWS - TRAIN_LEN


def test_traced_approx_backtest_takes_no_hessian(perfbench, tmp_path):
    # the log-linear centre term is the closed form beta - 1: one approx
    # threshold call over the trade blocks, and no Hessian anywhere either
    tracer, snap = _traced_backtest(perfbench, tmp_path, "--threshold-mode", "approx")
    assert tracer.absent == []
    assert snap["trading.threshold_approx_calls"] == 1
    assert snap["trading.threshold_exact_calls"] == 0
    assert snap["spread.spread_hessian_calls"] == 0
    assert snap["spread.spread_gradient_calls"] == 1
    assert snap["backtest.ledger_rows"] == ROWS - TRAIN_LEN


def test_traced_montecarlo_finds_the_moved_layers(perfbench):
    # 1,500 trials are a full chunk of CHUNK_TRIALS and a partial one: the
    # tracer still finds trial_generators, which synthetic takes from
    # seeding, and verify_theorem makes one call of each kernel per chunk
    tracer = perfbench("tracing").Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["montecarlo", "--trials", "1500", "--periods", "40"]) == 0
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert tracer.absent == []
    assert snap["synthetic.trial_generators_calls"] == 1
    assert snap["synthetic.verify_theorem_calls"] == 1
    assert snap["kernels.trade_scan_calls"] == snap["kernels.ou_recursion_calls"] == 2


def test_traced_lemma_makes_one_scalar_call_of_each_per_sample(perfbench):
    # verify_lemma loops over its samples on the float path: one threshold
    # and one gradient call each, and the one PricePoint the CLI builds for
    # p0. A pass over whole arrays would change these counts.
    tracer = perfbench("tracing").Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["verify-lemma", "--samples", "50"]) == 0
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert tracer.absent == []
    assert snap["synthetic.verify_lemma_calls"] == 1
    assert snap["trading.threshold_exact_calls"] == 50
    assert snap["spread.spread_gradient_calls"] == 50
    assert snap["domain.PricePoint_calls"] == 1
