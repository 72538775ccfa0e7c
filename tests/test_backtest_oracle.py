"""The backtest command against perfbench's independent output checker.

perfbench/checks.py recomputes every ledger, report and plot value of a
backtest from the input prices with its own numpy code; perfbench/inputs.py
makes the benchmark's price series. Both are loaded unchanged, so an engine
rewrite is checked against code it does not share.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from pairtrade.cli import main

MODES = ("approx", "exact")


def _backtest(csv_path, out_dir, mode):
    argv = ["backtest", "--input", str(csv_path), "--out-dir", str(out_dir)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv + ["--threshold-mode", mode]) == 0


@pytest.mark.parametrize("mode", MODES)
def test_long_pair(perfbench, tmp_path, mode):
    checks, inputs = perfbench("checks"), perfbench("inputs")
    spec = inputs.PairSpec(drift=0.0, **inputs.BACKTEST_PAIR)
    csv_path = tmp_path / "pair.csv"
    inputs.write_csv(csv_path, *inputs.simulate(spec, 2_000, np.random.default_rng([1, 1])))
    _backtest(csv_path, tmp_path / "out", mode)
    params = checks.BacktestParams(threshold_mode=mode)
    checks.check_backtest(csv_path, tmp_path / "out", params, expect_growth=True)


@pytest.mark.parametrize("mode", MODES)
def test_screen_pairs(perfbench, tmp_path, mode):
    checks, inputs = perfbench("checks"), perfbench("inputs")
    params = checks.BacktestParams(threshold_mode=mode)
    for i, csv_path in enumerate(inputs.screen_inputs(1, tmp_path)[:6]):
        out = tmp_path / f"out{i:02d}"
        _backtest(csv_path, out, mode)
        checks.check_backtest(csv_path, out, params, expect_growth=False)
