"""The block Monte Carlo against the scalar per-trial loop and perfbench's checker.

verify_theorem simulates trials side by side in chunks; scalar_oracle runs
them one after another. Trade events and bin counts must match exactly,
per-event profits within scan_profits.PROFIT_TOL of the account value, and
means within 1e-12 relative. perfbench/checks.py recomputes the montecarlo
command's output with its own numpy code and is imported here unchanged.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import scalar_oracle
from pairtrade import synthetic
from pairtrade.cli import main
from pairtrade.domain import PricePoint
from pairtrade.synthetic import OUPairSpec, generate_pair, verify_theorem
from scan_profits import assert_profits_close, events, values

MEAN_RTOL = 1e-12

SPEC = OUPairSpec(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, seed=11)


def _assert_matches(summary, ref):
    assert summary.tau == ref["tau"]
    assert summary.trade_events == ref["trade_events"]
    if ref["mean_dv"] is None:
        assert summary.mean_dv is None
    else:
        assert summary.mean_dv == pytest.approx(ref["mean_dv"], rel=MEAN_RTOL, abs=0.0)
    if ref["p_value"] is None:
        assert summary.p_value is None
    else:
        assert summary.p_value == pytest.approx(ref["p_value"], rel=1e-9, abs=1e-300)


class TestVerifyTheoremOracle:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="approx"),
            dict(mode="exact"),
            dict(mode="approx", leverage=2.5),
            dict(mode="exact", leverage=0.5, collect_bins=6),
            dict(mode="approx", collect_bins=4, eta_assumed=0.05),
        ],
        ids=["approx", "exact", "leverage", "exact-bins", "approx-bins"],
    )
    def test_matches_scalar_loop(self, monkeypatch, kw):
        # 150 trials in chunks of 64: two full chunks and a partial one
        monkeypatch.setattr(synthetic, "CHUNK_TRIALS", 64)
        summary = verify_theorem(SPEC, trials=150, periods=90, **kw)
        ref = scalar_oracle.verify_theorem(SPEC, 150, 90, **kw)
        _assert_matches(summary, ref)
        if kw.get("collect_bins"):
            assert summary.bin_counts == ref["bin_counts"]
            np.testing.assert_allclose(summary.bin_mean_dv, ref["bin_mean_dv"], rtol=MEAN_RTOL)

    def test_partial_default_chunk(self):
        trials = synthetic.CHUNK_TRIALS + 37
        summary = verify_theorem(SPEC, trials=trials, periods=30, collect_bins=3)
        ref = scalar_oracle.verify_theorem(SPEC, trials, 30, collect_bins=3)
        _assert_matches(summary, ref)
        assert summary.bin_counts == ref["bin_counts"]

    def test_one_path_last_chunk(self):
        # one trial left over: the last chunk runs ou_recursion's one-path loop
        trials = synthetic.CHUNK_TRIALS + 1
        summary = verify_theorem(SPEC, trials=trials, periods=30, collect_bins=3)
        ref = scalar_oracle.verify_theorem(SPEC, trials, 30, collect_bins=3)
        _assert_matches(summary, ref)
        assert summary.bin_counts == ref["bin_counts"]

    def test_event_profits_close(self, monkeypatch):
        # every event is the scalar loop's, in trial order, and its profit
        # within scan_profits.PROFIT_TOL of the account value it was made at
        from pairtrade import kernels

        seen, at = [], []
        scan = kernels.trade_scan

        def recording(*args, **kwargs):
            on = scan(*args, **kwargs)
            dv = kwargs["out"][1]
            seen.append(events(dv, on))
            at.append(events(values(dv, args[6]), on))
            return on

        monkeypatch.setattr(synthetic, "CHUNK_TRIALS", 40)
        monkeypatch.setattr(kernels, "trade_scan", recording)
        verify_theorem(SPEC, trials=100, periods=60, leverage=1.5)
        ref = scalar_oracle.verify_theorem(SPEC, 100, 60, leverage=1.5)
        assert len(seen) == 3
        assert_profits_close(np.concatenate(seen), ref["dv"], np.concatenate(at))

    def test_no_events(self):
        spec = OUPairSpec(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, seed=2)
        summary = verify_theorem(spec, trials=20, periods=40, eta_assumed=-0.1)
        ref = scalar_oracle.verify_theorem(spec, 20, 40, eta_assumed=-0.1)
        assert summary.tau == math.inf
        _assert_matches(summary, ref)
        assert summary.trade_events == 0


class TestGeneratePairOracle:
    @pytest.mark.parametrize("length", [2, 3, 250, 1_001])
    @pytest.mark.parametrize(
        "spec",
        [
            SPEC,
            OUPairSpec(theta=0.05, sigma_s=0.002, sigma_w=0.01, beta_true=-0.5, mu_true=0.3,
                       s0=0.01, p0=PricePoint(40.0, 80.0), seed=5),
        ],
        ids=["default", "negative-beta"],
    )
    def test_arrays_equal(self, spec, length):
        series = generate_pair(spec, length)
        p1, p2 = scalar_oracle.generate_pair_arrays(spec, length)
        assert np.array_equal(series.p1, p1)
        assert np.array_equal(series.p2, p2)


class TestPerfbenchChecker:
    def test_check_montecarlo_accepts_cli_output(self, perfbench):
        checks = perfbench("checks")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main(["montecarlo", "--trials", "500", "--periods", "250", "--seed", "4"])
        assert rc == 0
        checks.check_montecarlo(out.getvalue(), 4, 500, 250)
        assert json.loads(out.getvalue())["trade_events"] > 0
