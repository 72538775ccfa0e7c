"""The command-line contract: every key's flag, config-file key, default and error line.

Each subcommand's fully resolved configuration is echoed under "config"; the
expected echoes below list every key with its built-in default. Config files
may spell a key with dashes, dots or underscores, a flag beats the file, and
each value type rejects a malformed config value with exit 1 and one stderr
line naming the key.
"""

import json

import pytest

from pairtrade.cli import main
from pairtrade.synthetic import OUPairSpec, generate_pair

BACKTEST_DEFAULTS = {
    "subcommand": "backtest",
    "adjust": [],
    "emit_ledger": True,
    "emit_plot": True,
    "emit_report": True,
    "gamma": None,
    "gamma_floor": 0.0001,
    "initial_value": 10000.0,
    "leverage": 1.0,
    "threshold_mode": "approx",
    "trade_len": 5,
    "train_len": 40,
}
MONTECARLO_DEFAULTS = {
    "subcommand": "montecarlo",
    "beta": 2.0,
    "bins": 0,
    "eta": 0.2,
    "gamma": None,
    "gamma_cap": 0.05,
    "initial_value": 10000.0,
    "leverage": 1.0,
    "mu": 0.0,
    "out_dir": None,
    "p0": [100.0, 50.0],
    "periods": 250,
    "s0": 0.0,
    "seed": 0,
    "sigma_s": 0.012,
    "sigma_w": 0.005,
    "theta": 0.3,
    "threshold_mode": "approx",
    "trials": 10000,
}
LEMMA_DEFAULTS = {
    "subcommand": "verify-lemma",
    "band": 1.0,
    "beta": 2.0,
    "gamma": 0.05,
    "mu": 0.0,
    "out_dir": None,
    "p0": [100.0, 50.0],
    "samples": 10000,
    "seed": 0,
}
FLAGS = {
    "backtest": (
        "--config", "--input", "--out-dir", "--adjust", "--train-len", "--trade-len",
        "--leverage", "--initial-value", "--threshold-mode", "--gamma", "--gamma-floor",
        "--no-ledger", "--no-report", "--no-plot",
    ),
    "montecarlo": (
        "--config", "--out-dir", "--trials", "--periods", "--theta", "--sigma-s", "--sigma-w",
        "--beta", "--mu", "--gamma-cap", "--s0", "--p0", "--eta", "--gamma",
        "--threshold-mode", "--leverage", "--initial-value", "--bins", "--seed",
    ),
    "verify-lemma": (
        "--config", "--out-dir", "--samples", "--beta", "--mu", "--gamma", "--band", "--p0",
        "--seed",
    ),
}
MC_SMALL = ["montecarlo", "--trials", "1", "--periods", "2"]
LEMMA_SMALL = ["verify-lemma", "--samples", "1"]


def _same_json(got, want):
    # json text tells 10000 from 10000.0 and None from a missing key
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    spec = OUPairSpec(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, seed=3)
    series = generate_pair(spec, 80)
    path = tmp_path_factory.mktemp("data") / "pair.csv"
    lines = ["date,p1,p2"]
    lines += [f"{series.dates[i]},{float(series.p1[i])!r},{float(series.p2[i])!r}" for i in range(80)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _backtest_config(prices_csv, out_dir, *extra):
    rc = main(["backtest", "--input", str(prices_csv), "--out-dir", str(out_dir), *extra])
    assert rc == 0
    return json.loads((out_dir / "report.json").read_text())["config"]


def _echo(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)["config"]


class TestDefaultEcho:
    def test_backtest(self, prices_csv, tmp_path, capsys):
        config = _backtest_config(prices_csv, tmp_path)
        capsys.readouterr()
        want = dict(BACKTEST_DEFAULTS, input=str(prices_csv), out_dir=str(tmp_path))
        _same_json(config, want)

    def test_backtest_out_dir_default(self, prices_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["backtest", "--input", str(prices_csv)]) == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config["out_dir"] == "."

    def test_second_call_starts_from_defaults(self, prices_csv, tmp_path, capsys):
        # the parser is reused across calls in one process; no flag of the
        # first call may leak into the second
        _backtest_config(prices_csv, tmp_path / "a", "--adjust", "2:10:1.5", "--train-len", "45",
                         "--threshold-mode", "exact", "--no-plot")
        config = _backtest_config(prices_csv, tmp_path / "b")
        capsys.readouterr()
        _same_json(config, dict(BACKTEST_DEFAULTS, input=str(prices_csv), out_dir=str(tmp_path / "b")))
        _echo(capsys, LEMMA_SMALL + ["--p0", "90", "45", "--seed", "3"])
        _same_json(_echo(capsys, LEMMA_SMALL), dict(LEMMA_DEFAULTS, samples=1))

    def test_montecarlo(self, capsys):
        _same_json(_echo(capsys, MC_SMALL), dict(MONTECARLO_DEFAULTS, trials=1, periods=2))

    def test_verify_lemma(self, capsys):
        _same_json(_echo(capsys, LEMMA_SMALL), dict(LEMMA_DEFAULTS, samples=1))


class TestConfigFile:
    @pytest.mark.parametrize("spelling", ["gamma-floor", "gamma.floor", "gamma_floor"])
    def test_spellings(self, prices_csv, tmp_path, capsys, spelling):
        cfg = _write_cfg(tmp_path, f"{spelling} = 0.002\ntrain.len = 45\ninitial-value = 500\n")
        config = _backtest_config(prices_csv, tmp_path, "--config", cfg)
        capsys.readouterr()
        assert config["gamma_floor"] == 0.002
        assert config["train_len"] == 45
        _same_json(config["initial_value"], 500.0)

    def test_every_backtest_key(self, prices_csv, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write_cfg(
            tmp_path,
            f"input = {prices_csv}\nout-dir = {out}\nadjust = 2:3:1.5\ntrain-len = 30\n"
            "trade-len = 4\nleverage = 2\ninitial-value = 100\nthreshold-mode = exact\n"
            "gamma = 0.04\ngamma-floor = 0.001\nemit-ledger = yes\nemit-report = on\n"
            "emit-plot = 0\n",
        )
        assert main(["backtest", "--config", cfg]) == 0
        capsys.readouterr()
        config = json.loads((out / "report.json").read_text())["config"]
        want = dict(
            BACKTEST_DEFAULTS, input=str(prices_csv), out_dir=str(out),
            adjust=[{"stock": 2, "index": 3, "factor": 1.5}], train_len=30, trade_len=4,
            leverage=2.0, initial_value=100.0, threshold_mode="exact", gamma=0.04,
            gamma_floor=0.001, emit_plot=False,
        )
        _same_json(config, want)
        assert sorted(p.name for p in out.iterdir()) == ["ledger.csv", "report.json"]

    def test_every_montecarlo_key(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "trials = 2\nperiods = 3\ntheta = 0.25\nsigma_s = 0.01\nsigma_w = 0.004\n"
            "beta = 1.5\nmu = 0.1\ngamma_cap = 0.06\ns0 = 0.001\np0 = 80 40\neta = 0.3\n"
            "gamma = 0.04\nthreshold_mode = exact\nleverage = 0.5\ninitial_value = 7\n"
            "bins = 2\nseed = 9\n",
        )
        want = dict(
            MONTECARLO_DEFAULTS, trials=2, periods=3, theta=0.25, sigma_s=0.01, sigma_w=0.004,
            beta=1.5, mu=0.1, gamma_cap=0.06, s0=0.001, p0=[80.0, 40.0], eta=0.3, gamma=0.04,
            threshold_mode="exact", leverage=0.5, initial_value=7.0, bins=2, seed=9,
        )
        _same_json(_echo(capsys, ["montecarlo", "--config", cfg]), want)

    def test_every_lemma_key(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "samples = 3\nbeta = -1\nmu = 0.5\ngamma = 0.1\nband = 0.5\np0 = 20, 30\nseed = 4\n",
        )
        want = dict(
            LEMMA_DEFAULTS, samples=3, beta=-1.0, mu=0.5, gamma=0.1, band=0.5, p0=[20.0, 30.0],
            seed=4,
        )
        _same_json(_echo(capsys, ["verify-lemma", "--config", cfg]), want)

    def test_flag_beats_file(self, prices_csv, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "train-len = 50\nleverage = 2\nadjust = 1:5:2.0\n")
        config = _backtest_config(
            prices_csv, tmp_path, "--config", cfg, "--train-len", "45", "--adjust", "2:4:0.5"
        )
        capsys.readouterr()
        assert config["train_len"] == 45
        assert config["leverage"] == 2.0
        assert config["adjust"] == [{"stock": 2, "index": 4, "factor": 0.5}]

    def test_flag_beats_file_p0(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "p0 = 80, 40\nseed = 3\n")
        config = _echo(capsys, LEMMA_SMALL + ["--config", cfg, "--p0", "90", "45"])
        assert config["p0"] == [90.0, 45.0]
        assert config["seed"] == 3


class TestCoercionErrors:
    @pytest.mark.parametrize(
        "command,line,message",
        [
            ("backtest", "train-len = x", "config key 'train_len': expected an integer, got 'x'"),
            ("montecarlo", "seed = 1.5", "config key 'seed': expected an integer, got '1.5'"),
            ("verify-lemma", "samples = many", "config key 'samples': expected an integer, got 'many'"),
            ("backtest", "leverage = abc", "config key 'leverage': expected a number, got 'abc'"),
            ("montecarlo", "sigma.s = 1e", "config key 'sigma_s': expected a number, got '1e'"),
            ("backtest", "emit_plot = maybe", "config key 'emit_plot': expected a boolean, got 'maybe'"),
            ("montecarlo", "p0 = 100", "config key 'p0': expected two numbers, got '100'"),
            ("verify-lemma", "p0 = 1, 2, 3", "config key 'p0': expected two numbers, got '1, 2, 3'"),
            ("montecarlo", "p0 = 100, x", "config key 'p0': expected a number, got 'x'"),
            ("backtest", "adjust = 2:x:1.0", "adjustment must be stock:index:factor, got '2:x:1.0'"),
            ("backtest", "adjust = 2:1", "adjustment must be stock:index:factor, got '2:1'"),
            ("backtest", "adjust = 2:1:-1",
             "adjustment '2:1:-1': factor must be finite and positive, got -1.0"),
            ("backtest", "warp-speed = 9", "config file: unknown key 'warp_speed' for backtest"),
            ("verify-lemma", "trials = 9", "config file: unknown key 'trials' for verify-lemma"),
            ("backtest", "threshold-mode = foo",
             "config key 'threshold_mode': expected one of approx, exact, got 'foo'"),
        ],
    )
    def test_config_value(self, tmp_path, capsys, command, line, message):
        rc = main([command, "--config", _write_cfg(tmp_path, line + "\n")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["montecarlo", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
            (["verify-lemma", "--band", "wide"], "argument --band: invalid float value: 'wide'"),
            (["montecarlo", "--p0", "1"], "argument --p0: expected 2 arguments"),
            (["backtest", "--adjust", "2:1"],
             "argument --adjust: adjustment must be stock:index:factor, got '2:1'"),
            (["backtest", "--adjust", "3:1:1"],
             "argument --adjust: adjustment '3:1:1': stock must be 1 or 2, got 3"),
            (["montecarlo", "--bins", "-1"], "--bins must be non-negative"),
            (["backtest"], "backtest: --input is required"),
        ],
    )
    def test_flag_value(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_threshold_mode_choices(self, tmp_path, capsys):
        assert main(["montecarlo", "--threshold-mode", "foo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --threshold-mode: invalid choice: 'foo'")
        cfg = _write_cfg(tmp_path, "threshold-mode = foo\n")
        assert main(["montecarlo", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'threshold_mode': expected one of approx, exact, got 'foo'\n"
        )


class TestEmitSwitches:
    @pytest.mark.parametrize("name", ["ledger", "report", "plot"])
    def test_file_false_matches_flag(self, prices_csv, tmp_path, capsys, name):
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        cfg = _write_cfg(tmp_path, f"emit_{name} = false\n")
        base = ["backtest", "--input", str(prices_csv)]
        assert main(base + ["--out-dir", str(by_flag), f"--no-{name}"]) == 0
        flag_out = capsys.readouterr().out
        assert main(base + ["--out-dir", str(by_file), "--config", cfg]) == 0
        assert capsys.readouterr().out == flag_out
        files = sorted(p.name for p in by_flag.iterdir())
        assert files == sorted(p.name for p in by_file.iterdir())
        assert f"{name}.csv" not in files and f"{name}.json" not in files
        assert len(files) == 2
        for f in files:
            if f != "report.json":
                assert (by_flag / f).read_bytes() == (by_file / f).read_bytes()

    def test_all_off_writes_nothing(self, prices_csv, tmp_path, capsys):
        out = tmp_path / "none"
        rc = main(["backtest", "--input", str(prices_csv), "--out-dir", str(out),
                   "--no-ledger", "--no-report", "--no-plot"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("final_value=")
        assert not out.exists()


class TestListValues:
    def test_repeated_adjust_matches_config_list(self, prices_csv, tmp_path, capsys):
        by_flag = _backtest_config(
            prices_csv, tmp_path / "a", "--adjust", "2:10:1.5", "--adjust", "1:20:0.5"
        )
        cfg = _write_cfg(tmp_path, "adjust = 2:10:1.5, 1:20:0.5\n")
        by_file = _backtest_config(prices_csv, tmp_path / "b", "--config", cfg)
        capsys.readouterr()
        want = [{"stock": 2, "index": 10, "factor": 1.5}, {"stock": 1, "index": 20, "factor": 0.5}]
        assert by_flag["adjust"] == want
        assert by_file["adjust"] == want
        ledger_a = (tmp_path / "a" / "ledger.csv").read_bytes()
        assert ledger_a == (tmp_path / "b" / "ledger.csv").read_bytes()

    @pytest.mark.parametrize("text", ["90, 45", "90 45", "90,45", "  90   ,  45 "])
    def test_p0_config_forms(self, tmp_path, capsys, text):
        cfg = _write_cfg(tmp_path, f"p0 = {text}\n")
        for small in (MC_SMALL, LEMMA_SMALL):
            assert _echo(capsys, small + ["--config", cfg])["p0"] == [90.0, 45.0]

    def test_p0_flag(self, capsys):
        config = _echo(capsys, LEMMA_SMALL + ["--p0", "90", "45"])
        _same_json(config["p0"], [90.0, 45.0])


class TestHelp:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_flag_listed(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: pairtrade {command} ")
        for flag in FLAGS[command]:
            assert f"{flag} " in text or f"{flag}\n" in text, flag

    def test_commands_listed(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: pairtrade ")
        for command in FLAGS:
            assert command in text
