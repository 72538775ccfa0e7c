"""Command-line interface: exit codes, JSON payloads, precedence, determinism.

Exit code contract: 0 success, 1 usage/validation rejection before any work,
2 runtime failure while executing a validated request.
"""

import json
import math
import re
import warnings

import pytest

from pairtrade.cli import main
from pairtrade.synthetic import OUPairSpec, generate_pair


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    spec = OUPairSpec(
        theta=0.3,
        sigma_s=0.012,
        sigma_w=0.005,
        beta_true=2.0,
        mu_true=0.0,
        gamma_cap=0.05,
        seed=21,
    )
    series = generate_pair(spec, 300)
    path = tmp_path_factory.mktemp("data") / "pair.csv"
    lines = ["date,p1,p2"]
    for i in range(len(series)):
        lines.append(f"{series.dates[i]},{float(series.p1[i])!r},{float(series.p2[i])!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBacktestCommand:
    def test_happy_path(self, prices_csv, tmp_path, capsys):
        rc = main(["backtest", "--input", str(prices_csv), "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("final_value=")
        assert (tmp_path / "ledger.csv").exists()
        assert (tmp_path / "plot.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["train_len"] == 40
        assert report["config"]["trade_len"] == 5
        assert report["config"]["threshold_mode"] == "approx"
        assert report["final_value"] > 0.0

    def test_emit_flags(self, prices_csv, tmp_path, capsys):
        rc = main(
            [
                "backtest",
                "--input",
                str(prices_csv),
                "--out-dir",
                str(tmp_path),
                "--no-ledger",
                "--no-plot",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert not (tmp_path / "ledger.csv").exists()
        assert not (tmp_path / "plot.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_adjustment_flag(self, prices_csv, tmp_path, capsys):
        rc = main(
            [
                "backtest",
                "--input",
                str(prices_csv),
                "--out-dir",
                str(tmp_path),
                "--adjust",
                "2:1:1.0",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["adjust"] == [{"stock": 2, "index": 1, "factor": 1.0}]

    def test_train_len_too_small(self, prices_csv, capsys):
        rc = main(["backtest", "--input", str(prices_csv), "--train-len", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "train" in err

    def test_unknown_flag(self, prices_csv, capsys):
        rc = main(["backtest", "--input", str(prices_csv), "--frobnicate", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_command(self, capsys):
        rc = main([])
        assert rc == 1
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["backtest", "--input", str(tmp_path / "absent.csv")])
        assert rc == 1
        assert "input" in capsys.readouterr().err

    def test_input_flag_required(self, capsys):
        rc = main(["backtest"])
        assert rc == 1
        assert "input" in capsys.readouterr().err

    def test_bad_adjust_string(self, prices_csv, capsys):
        rc = main(["backtest", "--input", str(prices_csv), "--adjust", "2:x:1.0"])
        assert rc == 1
        capsys.readouterr()

    def test_constant_p1_window_does_not_abort(self, prices_csv, tmp_path, capsys):
        # p1 flat over rows 100-159 leaves some training windows without a fit
        lines = prices_csv.read_text().splitlines()
        flat = lines[101].split(",")[1]
        for i in range(101, 161):
            date, _, p2 = lines[i].split(",")
            lines[i] = f"{date},{flat},{p2}"
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["backtest", "--input", str(path), "--out-dir", str(tmp_path)])
        assert rc == 0
        ledger = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
        active = {int(row.split(",")[0]) for row in ledger if row.endswith(",1")}
        assert any(k < 140 for k in active) and any(k >= 165 for k in active)
        assert not any(140 <= k < 165 for k in active)

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,p1,p2\n2020-01-02,100,50\n2020-01-03,oops,49\n")
        rc = main(["backtest", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_used(self, prices_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {prices_csv}\ntrain-len = 50\ngamma.floor = 0.001\n")
        rc = main(["backtest", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["train_len"] == 50
        assert report["config"]["gamma_floor"] == 0.001

    def test_flag_beats_file(self, prices_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {prices_csv}\ntrain-len = 50\n")
        rc = main(
            [
                "backtest",
                "--config",
                str(cfg),
                "--train-len",
                "45",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["train_len"] == 45

    def test_comments_and_blanks_allowed(self, prices_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# demo\n\ninput = {prices_csv}\n")
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_bad_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train-len\n")
        rc = main(["backtest", "--config", str(cfg)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, prices_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {prices_csv}\nwarp-speed = 9\n")
        rc = main(["backtest", "--config", str(cfg)])
        assert rc == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        rc = main(["backtest", "--config", "/nonexistent/run.cfg"])
        assert rc == 1
        capsys.readouterr()


MC_ARGS = ["montecarlo", "--trials", "300", "--periods", "120", "--seed", "7"]


class TestMontecarloCommand:
    def test_payload_shape(self, capsys):
        rc = main(MC_ARGS)
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload) == {"trials", "trade_events", "mean_dV", "p_value", "mode", "config"}
        assert payload["trials"] == 300
        assert payload["trade_events"] > 0
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["mode"] == "approx"
        assert payload["config"]["theta"] == 0.3
        assert "tau_used=" in captured.err

    def test_positive_drift_detected(self, capsys):
        rc = main(["montecarlo", "--trials", "400", "--periods", "250", "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_dV"] > 0.0
        assert payload["p_value"] < 0.001

    def test_stdout_deterministic(self, capsys):
        main(MC_ARGS)
        first = capsys.readouterr().out
        main(MC_ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_result(self, capsys):
        main(MC_ARGS)
        base = json.loads(capsys.readouterr().out)
        main(["montecarlo", "--trials", "300", "--periods", "120", "--seed", "8"])
        other = json.loads(capsys.readouterr().out)
        assert base["mean_dV"] != other["mean_dV"]

    def test_out_dir_file_matches_stdout(self, tmp_path, capsys):
        rc = main(MC_ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert (tmp_path / "montecarlo.json").read_text() == out

    def test_exact_mode(self, capsys):
        rc = main(MC_ARGS + ["--threshold-mode", "exact"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "exact"

    def test_infeasible_noise_rejected(self, capsys):
        rc = main(["montecarlo", "--sigma-s", "0.2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bad_theta_rejected(self, capsys):
        rc = main(["montecarlo", "--theta", "1.5"])
        assert rc == 1
        capsys.readouterr()

    def test_bad_trials_rejected(self, capsys):
        rc = main(["montecarlo", "--trials", "0"])
        assert rc == 1
        capsys.readouterr()


class TestVerifyLemmaCommand:
    def test_bound_holds(self, capsys):
        rc = main(["verify-lemma", "--samples", "3000", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "samples",
            "gamma",
            "max_violation",
            "max_remainder",
            "max_ratio",
            "config",
        }
        assert payload["max_violation"] <= 1e-12
        assert payload["max_ratio"] <= 1.0 + 1e-12
        assert payload["gamma"] == 0.05

    def test_out_dir(self, tmp_path, capsys):
        rc = main(["verify-lemma", "--samples", "500", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads((tmp_path / "verify_lemma.json").read_text()) == json.loads(out)

    def test_gamma_validated(self, capsys):
        rc = main(["verify-lemma", "--gamma", "1.0"])
        assert rc == 1
        capsys.readouterr()

    def test_band_validated(self, capsys):
        rc = main(["verify-lemma", "--band", "0"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["--p0", "0", "50"], "p1 must be a finite positive number, got 0.0"),
            (["--beta", "nan"], "beta must be finite, got nan"),
        ],
    )
    def test_model_arguments_validated(self, capsys, argv, message):
        rc = main(["verify-lemma", *argv])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--band", "706"], "band 706.0 around p0.p1 = 100.0 with gamma 0.05"),
        (["--p0", "1.75e308", "50", "--band", "0.001"],
         "band 0.001 around p0.p1 = 1.75e+308 with gamma 0.05"),
        (["--p0", "100", "1e-300", "--band", "100"],
         "band 100.0 around p0.p2 = 1e-300 with gamma 0.05"),
    ])
    def test_prices_out_of_the_float_range_validated(self, capsys, argv, message):
        rc = main(["verify-lemma", "--samples", "100", *argv])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} takes a price out of the finite positive floats\n"

    def test_remainder_that_is_not_finite_is_a_runtime_error(self, capsys):
        # -beta / p1 overflows at the subnormal p1: no summary, one error line
        # and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify-lemma", "--samples", "100", "--p0", "5e-324", "50",
                       "--band", "0.001"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: DomainError: the first-order remainder is not finite, or "
                            r"its bound is NaN, at p1 = 5e-324, p2 = \S+ \(sample 0\)\n",
                            captured.err)

    def test_band_near_the_float_edge_gives_strict_json(self, capsys):
        # 100 e^705 (1 + 0.05) is finite, 100 e^706 is not: strict JSON
        # has no Infinity or NaN token
        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        assert main(["verify-lemma", "--samples", "1000", "--band", "705"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["max_violation"] <= 1e-12

    def test_larger_gamma_weakens_nothing(self, capsys):
        # bound must hold across the gamma range, not just the default
        for gamma in ("0.01", "0.2"):
            rc = main(["verify-lemma", "--samples", "1500", "--gamma", gamma, "--seed", "2"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["max_violation"] <= 1e-12


class TestJsonStyle:
    def test_sorted_keys_and_trailing_newline(self, capsys):
        main(MC_ARGS)
        out = capsys.readouterr().out
        assert out.endswith("\n")
        payload = json.loads(out)
        assert list(payload) == sorted(payload)
        assert not math.isnan(payload["mean_dV"])
