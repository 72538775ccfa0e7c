"""Command-line entry point.

Subcommands:

    backtest      run the sliding-window strategy over a price CSV
    montecarlo    Monte Carlo check that traded periods profit in expectation
    verify-lemma  Monte Carlo check of the curvature bound on the spread

Every value resolves with precedence: command-line flag, then config file,
then built-in default. The config file is flat UTF-8 `key = value` text with
`#` line comments; dots and dashes in keys normalize to underscores, so
`gamma.floor`, `gamma-floor`, and `gamma_floor` name the same key. The fully
resolved configuration is echoed under the "config" key of the emitted JSON.

Exit codes: 0 success, 1 flag/config validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .backtest import (
    BacktestConfig,
    run_backtest,
    write_ledger_csv,
    write_plot_csv,
    write_report_json,
)
from .domain import DomainError, PricePoint, check_seed
from .estimation import DEFAULT_GAMMA_FLOOR, WindowConfig
from .ingest import AdjustmentRule, apply_adjustments, load_csv
from .spread import CointegrationSpread
from .synthetic import OUPairSpec, check_price_band, verify_lemma, verify_theorem
from .trading import THRESHOLD_MODES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class UsageError(argparse.ArgumentTypeError):
    """Invalid flags or config values; maps to exit 1.

    Raised from a flag's type function, argparse reports it with the flag's
    name in front.
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _parse_adjustment(text: str) -> AdjustmentRule:
    try:
        stock, index, factor = text.split(":")
        stock, index, factor = int(stock), int(index), float(factor)
    except ValueError:
        raise UsageError(f"adjustment must be stock:index:factor, got {text!r}") from None
    try:
        return AdjustmentRule(stock, index, factor)
    except DomainError as exc:
        raise UsageError(f"adjustment {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# the key table: one row per setting of a subcommand


@dataclass(frozen=True)
class Key:
    """One setting: config-file key `name`, flag `--name-with-dashes`.

    `type` parses one flag token or config value; a bool key `emit_X` is the
    switch `--no-X`. `flag` holds argparse extras: `nargs` makes a flag take
    that many tokens (a config value lists them split by commas or spaces),
    and `action="append"` makes it repeatable (a comma-separated config list).
    """

    name: str
    type: Callable[[str], object]
    default: object
    help: str
    flag: dict = field(default_factory=dict)


_SEED = Key("seed", int, 0, "RNG seed")
_BETA = Key("beta", float, 2.0, "cointegration slope")
_MU = Key("mu", float, 0.0, "cointegration level")
_LEVERAGE = Key("leverage", float, 1.0, "leverage factor L")
_INITIAL_VALUE = Key("initial_value", float, 10_000.0, "starting account value")
_THRESHOLD_MODE = Key(
    "threshold_mode", str, "approx", "threshold variant", dict(choices=THRESHOLD_MODES)
)

KEYS: dict[str, tuple[Key, ...]] = {
    "backtest": (
        Key("input", str, None, "price CSV with header date,p1,p2", dict(metavar="PATH")),
        Key("out_dir", str, ".", "output directory", dict(metavar="DIR")),
        Key(
            "adjust",
            _parse_adjustment,
            (),
            "price correction rule, repeatable; scales STOCK before INDEX by FACTOR",
            dict(metavar="STOCK:INDEX:FACTOR", action="append"),
        ),
        Key("train_len", int, 40, "training window length", dict(metavar="N")),
        Key("trade_len", int, 5, "trading window length", dict(metavar="M")),
        _LEVERAGE,
        _INITIAL_VALUE,
        _THRESHOLD_MODE,
        Key("gamma", float, None, "fixed gamma override instead of the window estimate"),
        Key("gamma_floor", float, DEFAULT_GAMMA_FLOOR, "gamma floor for flat windows"),
        Key("emit_ledger", bool, True, "skip ledger.csv"),
        Key("emit_report", bool, True, "skip report.json"),
        Key("emit_plot", bool, True, "skip plot.csv"),
    ),
    "montecarlo": (
        Key("out_dir", str, None, "also write montecarlo.json here", dict(metavar="DIR")),
        Key("trials", int, 10_000, "number of independent trials"),
        Key("periods", int, 250, "periods per trial"),
        Key("theta", float, 0.3, "true reversion rate in (0,1)"),
        Key("sigma_s", float, 0.012, "spread innovation scale"),
        Key("sigma_w", float, 0.005, "log-price step scale"),
        _BETA,
        _MU,
        Key("gamma_cap", float, 0.05, "hard per-period return cap"),
        Key("s0", float, 0.0, "initial spread"),
        Key("p0", float, (100.0, 50.0), "initial prices", dict(nargs=2, metavar=("P1", "P2"))),
        Key("eta", float, 0.2, "assumed reversion rate for the threshold"),
        Key("gamma", float, None, "assumed return bound (default: gamma-cap)"),
        _THRESHOLD_MODE,
        _LEVERAGE,
        _INITIAL_VALUE,
        Key("bins", int, 0, "spread bins for the stderr diagnostic"),
        _SEED,
    ),
    "verify-lemma": (
        Key("out_dir", str, None, "also write verify_lemma.json here", dict(metavar="DIR")),
        Key("samples", int, 10_000, "number of sampled points"),
        _BETA,
        _MU,
        Key("gamma", float, 0.05, "box half-width in (0,1)"),
        Key("band", float, 1.0, "log-uniform price band half-width"),
        Key("p0", float, (100.0, 50.0), "band center prices", dict(nargs=2, metavar=("P1", "P2"))),
        _SEED,
    ),
}

_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _scalar(key: Key, text: str):
    try:
        if key.type is bool:
            return _BOOLS[text.strip().lower()]
        value = key.type(text)
    except (KeyError, ValueError):
        raise UsageError(
            f"config key {key.name!r}: expected {_EXPECTED[key.type]}, got {text!r}"
        ) from None
    choices = key.flag.get("choices")
    if choices is not None and value not in choices:
        raise UsageError(
            f"config key {key.name!r}: expected one of {', '.join(choices)}, got {text!r}"
        )
    return value


def _from_text(key: Key, text: str):
    """A config-file value, coerced as the key's flag would parse it."""
    if "nargs" in key.flag:
        parts = text.replace(",", " ").split()
        if len(parts) != key.flag["nargs"]:
            raise UsageError(f"config key {key.name!r}: expected two numbers, got {text!r}")
        return [_scalar(key, part) for part in parts]
    if key.flag.get("action") == "append":
        return [_scalar(key, tok.strip()) for tok in text.split(",") if tok.strip()]
    return _scalar(key, text)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from None
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip().replace("-", "_").replace(".", "_")
        value = value.strip()
        if not sep or not key or not value:
            raise UsageError(f"config file line {line_no}: expected `key = value`")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# parser


def _help(key: Key) -> str:
    shown = " ".join(map(str, key.default)) if isinstance(key.default, tuple) else key.default
    return key.help if shown in (None, "") else f"{key.help} (default {shown})"


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused: parsing leaves it unchanged."""
    parser = _Parser(prog="pairtrade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, run) in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for key in KEYS[command]:
            if key.type is bool:
                flag = "--no-" + key.name.removeprefix("emit_")
                p.add_argument(flag, dest=key.name, action="store_const", const=False, help=key.help)
            else:
                flag = "--" + key.name.replace("_", "-")
                p.add_argument(flag, dest=key.name, type=key.type, help=_help(key), **key.flag)
    return parser


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge flag > file > default into a plain config dict."""
    keys = {key.name: key for key in KEYS[ns.command]}
    file_vals: dict[str, object] = {}
    if ns.config is not None:
        for name, text in _read_config_file(ns.config).items():
            if name not in keys:
                raise UsageError(f"config file: unknown key {name!r} for {ns.command}")
            file_vals[name] = _from_text(keys[name], text)
    resolved: dict[str, object] = {"subcommand": ns.command}
    for name, key in keys.items():
        flag_val = getattr(ns, name)
        resolved[name] = flag_val if flag_val is not None else file_vals.get(name, key.default)
    return resolved


def _echo_config(cfg: dict) -> dict:
    """JSON form of the resolved config for the report's `config` block."""
    out = dict(cfg)
    if "adjust" in out:
        out["adjust"] = [
            {"stock": r.stock, "index": r.effective_index, "factor": r.factor} for r in cfg["adjust"]
        ]
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _validate_backtest(cfg: dict) -> BacktestConfig:
    _require(cfg["input"] is not None, "backtest: --input is required")
    _require(Path(cfg["input"]).is_file(), f"--input: no such file: {cfg['input']}")
    return BacktestConfig(
        window=WindowConfig(train_len=cfg["train_len"], trade_len=cfg["trade_len"]),
        leverage=cfg["leverage"],
        initial_value=cfg["initial_value"],
        threshold_mode=cfg["threshold_mode"],
        gamma_override=cfg["gamma"],
        gamma_floor=cfg["gamma_floor"],
    )


def _validate_montecarlo(cfg: dict) -> OUPairSpec:
    spec = OUPairSpec(
        theta=cfg["theta"],
        sigma_s=cfg["sigma_s"],
        sigma_w=cfg["sigma_w"],
        beta_true=cfg["beta"],
        mu_true=cfg["mu"],
        gamma_cap=cfg["gamma_cap"],
        s0=cfg["s0"],
        p0=PricePoint(*cfg["p0"]),
        seed=cfg["seed"],
    )
    _require(cfg["trials"] >= 1, "--trials must be at least 1")
    _require(cfg["periods"] >= 2, "--periods must be at least 2")
    _require(cfg["bins"] >= 0, "--bins must be non-negative")
    _require(math.isfinite(cfg["eta"]), "--eta must be a finite number")
    _require(
        math.isfinite(cfg["leverage"]) and cfg["leverage"] > 0.0,
        "--leverage must be finite and positive",
    )
    _require(
        math.isfinite(cfg["initial_value"]) and cfg["initial_value"] > 0.0,
        "--initial-value must be finite and positive",
    )
    # without --gamma, verify_theorem assumes gamma_cap, which OUPairSpec checked
    _require(cfg["gamma"] is None or 0.0 < cfg["gamma"] < 1.0, "--gamma must lie in (0, 1)")
    return spec


def _validate_lemma(cfg: dict) -> tuple[CointegrationSpread, PricePoint]:
    _require(cfg["samples"] >= 1, "--samples must be at least 1")
    _require(math.isfinite(cfg["band"]) and cfg["band"] > 0.0, "--band must be finite and positive")
    _require(
        math.isfinite(cfg["gamma"]) and 0.0 < cfg["gamma"] < 1.0, "--gamma must lie in (0, 1)"
    )
    p0 = PricePoint(*cfg["p0"])
    model = CointegrationSpread(cfg["beta"], cfg["mu"])
    check_seed(cfg["seed"])
    check_price_band(p0, cfg["gamma"], cfg["band"])
    return model, p0


# ---------------------------------------------------------------------------
# subcommands


def _run_backtest(cfg: dict, bt_config: BacktestConfig) -> None:
    """Run the sliding-window strategy over a price CSV."""
    series = load_csv(cfg["input"])
    if cfg["adjust"]:
        series = apply_adjustments(series, cfg["adjust"])
    ledger, report = run_backtest(series, bt_config)
    out_dir = Path(cfg["out_dir"])
    if cfg["emit_ledger"] or cfg["emit_report"] or cfg["emit_plot"]:
        out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["emit_ledger"]:
        write_ledger_csv(ledger, out_dir / "ledger.csv")
    if cfg["emit_report"]:
        write_report_json(report, out_dir / "report.json", extra={"config": _echo_config(cfg)})
    if cfg["emit_plot"]:
        write_plot_csv(out_dir / "plot.csv", series, ledger, bt_config.initial_value)
    print(
        f"final_value={report.final_value:.2f} "
        f"total_return={report.total_return:.6f} "
        f"max_drawdown={report.max_drawdown:.6f} "
        f"active_periods={report.active_periods}"
    )


def _emit_json(cfg: dict, payload: dict, filename: str) -> None:
    """Print the payload plus the config echo; also write it to out_dir/filename."""
    text = json.dumps({**payload, "config": _echo_config(cfg)}, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if cfg["out_dir"] is not None:
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, encoding="utf-8")


def _run_montecarlo(cfg: dict, spec: OUPairSpec) -> None:
    """Monte Carlo check of traded-period expected profit."""
    summary = verify_theorem(
        spec,
        trials=cfg["trials"],
        periods=cfg["periods"],
        eta_assumed=cfg["eta"],
        gamma_assumed=cfg["gamma"],
        mode=cfg["threshold_mode"],
        leverage=cfg["leverage"],
        initial_value=cfg["initial_value"],
        collect_bins=cfg["bins"],
    )
    ratio = summary.tau_approx / summary.tau_exact if summary.tau_exact > 0.0 else math.nan
    print(
        f"tau_used={summary.tau:.10g} tau_exact={summary.tau_exact:.10g} "
        f"tau_approx={summary.tau_approx:.10g} approx/exact={ratio:.6g}",
        file=sys.stderr,
    )
    if summary.trade_events == 0:
        print("inconclusive: no trading events occurred", file=sys.stderr)
    if summary.bin_edges is not None:
        for i in range(len(summary.bin_counts)):
            print(
                f"bin[{summary.bin_edges[i]:.6g}, {summary.bin_edges[i + 1]:.6g}): "
                f"events={summary.bin_counts[i]} mean_dV={summary.bin_mean_dv[i]:.6g}",
                file=sys.stderr,
            )
    payload = {
        "trials": summary.trials,
        "trade_events": summary.trade_events,
        "mean_dV": summary.mean_dv,
        "p_value": summary.p_value,
        "mode": summary.mode,
    }
    _emit_json(cfg, payload, "montecarlo.json")


def _run_lemma(cfg: dict, validated: tuple[CointegrationSpread, PricePoint]) -> None:
    """Monte Carlo check of the curvature bound."""
    model, p0 = validated
    summary = verify_lemma(
        model, p0, cfg["gamma"], samples=cfg["samples"], band=cfg["band"], seed=cfg["seed"]
    )
    _emit_json(cfg, asdict(summary), "verify_lemma.json")


# validate(cfg) raises UsageError or DomainError before any work; run(cfg, validated)
# does the work, and its docstring is the command's help line
COMMANDS = {
    "backtest": (_validate_backtest, _run_backtest),
    "montecarlo": (_validate_montecarlo, _run_montecarlo),
    "verify-lemma": (_validate_lemma, _run_lemma),
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        ns = _parser().parse_args(argv)
        cfg = _resolve(ns)
        validate, run = COMMANDS[ns.command]
        validated = validate(cfg)
    except SystemExit:
        # argparse exits only after printing --help; its errors raise UsageError
        return EXIT_OK
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        run(cfg, validated)
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
