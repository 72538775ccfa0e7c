#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

    python3 benchmarks/compare_outputs.py --repo A --repo B [--seed 1 --seed 2 ...]

For each seed (default 1) it writes perfbench's inputs with
`perfbench/inputs.py` of the checkout holding this script, loaded as it is:
the `backtest` pair and the 36 `screen` pairs. Each tree then runs these
calls, every one in a fresh interpreter with PYTHONPATH=<tree>/src:

- `backtest` on every one of those inputs, in both threshold modes
- `backtest` on the `backtest` pair with each of the settings in
  `BACKTEST_SETTINGS` (every window a one-row block, at train_len 3 and at
  the default, where most estimate columns have no runs of equal bits;
  every estimate repeated once, at the ledger writer's half cut for runs;
  a partial last block; leverage high enough that windows go untradeable
  with a warning; a fixed gamma; a fixed gamma and a leverage that leave
  every window untradeable, with a warning each, and no row active), and on
  `flat_p1.csv`, whose p1 stands still over rows 100-159 so that five
  windows have no fit, and on `halting.csv`, the `backtest` pair with p2 30
  times higher after a row past the middle that holds p2 short in both
  modes, so that the account goes below zero and trading halts with a
  warning; each in both threshold modes
- `montecarlo --seed S`, its other settings at their defaults, again in
  exact mode with `--bins 4 --leverage 2.5`, and at `--leverage 15`, where
  the account values, and with them the trade scan's last-bit differences
  between ways of computing a profit, grow the most
- `montecarlo` at the fixed seed `WIDE_SEED`, 2**64 + 5, three 32-bit words
  of entropy, with 1500 trials, so its last chunk of trials is partial
- `montecarlo` at the tile edges of the trade scan (`TILE_EDGE_PERIODS`):
  `--periods 2`, a scan of one period, and `--periods` `kernels.TILE` + 2,
  one full tile and a partial tile of one period, with 1500 trials and
  `--bins 4`
- `verify-lemma --samples 10000 --seed S`, again with gamma, band, p0,
  beta and mu moved off their defaults, and at each beta in `LEMMA_BETAS`;
  with the default beta 2 and the moved -0.5 these reach every branch of
  the log-linear curvature bound's c = max(beta, 1) + max(-beta, 0)
- `backtest` on `quoted.csv`, the first `CHUNK_INPUT_ROWS` rows of the
  `backtest` pair with ",x" appended to every date, so that both writers
  quote them, and blank lines at a chunk edge of ingest and after every
  1000th row
- failing `backtest` calls on the bad CSVs of `write_bad_inputs`: a bad
  number in the second chunk of `READ_CHUNK` records, a date out of order
  at that chunk's first row, a row of wrong arity, an empty file, an empty
  date, a zero price, a `nan` price, a bad number right after blank lines,
  and a negative price before a field too large for the csv module, which
  raises its own error later in the file
- the invalid settings in `ERROR_CALLS`, which must fail alike: `backtest`
  on the `backtest` pair with a window too short, a bad adjustment, a zero
  gamma floor, an infinite initial value and a gamma of 1, alone and with a
  zero gamma floor, which pins the order of the checks; `montecarlo` with
  each generator parameter out of its domain, and two at once; and
  `verify-lemma` with each of its own settings out of its domain, and with a
  band and a p0 that take a sampled price past the largest float

It lists every exit code, stdout, stderr and output file whose bytes differ
between the trees, and exits 1 if anything differs. Giving the same tree
twice checks that repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the program's own edges, from the pairtrade of this checkout, so that the
# edge inputs follow a change to them: WRITE_CHUNK rows formatted per write
# call and TILE periods per tile of trade_scan
sys.path.insert(0, str(ROOT / "src"))
from pairtrade.backtest import WRITE_CHUNK, BacktestConfig, run_backtest  # noqa: E402
from pairtrade.ingest import load_csv  # noqa: E402
from pairtrade.kernels import TILE  # noqa: E402

# data records per pass of the column parser load_csv once had; the ingest
# inputs keep their faults and blank lines at its chunk edge
READ_CHUNK = 512

CLI = "import sys; from pairtrade.cli import main; sys.exit(main(sys.argv[1:]))"
CALL_TIMEOUT_S = 600
# extra backtest settings run on the backtest pair
BACKTEST_SETTINGS = {
    "train3-trade1": ["--train-len", "3", "--trade-len", "1"],
    "trade1": ["--trade-len", "1"],
    "trade2": ["--trade-len", "2"],
    "trade7": ["--trade-len", "7"],
    "leverage25": ["--leverage", "25"],
    "leverage50": ["--leverage", "50"],
    "gamma0.02": ["--gamma", "0.02"],
    "untradeable": ["--gamma", "0.99", "--leverage", "2"],
}
# verify-lemma betas, each run at --samples 10000
LEMMA_BETAS = ("1", "0.5", "0")
# a montecarlo seed of three 32-bit words
WIDE_SEED = 2**64 + 5
# montecarlo --periods values whose scans of periods - 1 rows end at the edges
# of trade_scan's tiles of TILE periods: one row, and one full tile and one row
TILE_EDGE_PERIODS = (2, TILE + 2)
# rows of quoted.csv: its ledger and plot have more than WRITE_CHUNK rows
CHUNK_INPUT_ROWS = WRITE_CHUNK + 140
# invalid settings: each must fail the same way, exit code and stderr; a
# backtest call runs on the backtest pair
ERROR_CALLS = [
    ("backtest", ["--train-len", "2"]),
    ("backtest", ["--trade-len", "0"]),
    ("backtest", ["--adjust", "1:-1:2"]),
    ("backtest", ["--gamma-floor", "0"]),
    ("backtest", ["--initial-value", "inf"]),
    ("backtest", ["--gamma", "1"]),
    ("backtest", ["--gamma", "1", "--gamma-floor", "0"]),
    ("verify-lemma", ["--seed", "-1"]),
    ("verify-lemma", ["--p0", "0", "50"]),
    ("verify-lemma", ["--gamma", "1"]),
    ("verify-lemma", ["--band", "0"]),
    ("verify-lemma", ["--samples", "0"]),
    ("verify-lemma", ["--beta", "nan"]),
    ("verify-lemma", ["--mu", "inf"]),
    ("verify-lemma", ["--band", "706"]),
    ("verify-lemma", ["--p0", "1.75e308", "50", "--band", "0.001"]),
    ("montecarlo", ["--leverage", "0"]),
    ("montecarlo", ["--trials", "0"]),
    ("montecarlo", ["--seed", "-1"]),
    ("montecarlo", ["--theta", "1"]),
    ("montecarlo", ["--sigma-s", "-0.1"]),
    ("montecarlo", ["--gamma-cap", "1"]),
    ("montecarlo", ["--s0", "nan"]),
    ("montecarlo", ["--beta", "inf"]),
    ("montecarlo", ["--sigma-s", "-1", "--gamma-cap", "1"]),
]


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def write_flat_p1(source: Path, path: Path, rows: int = 300) -> None:
    """The first rows of a date,p1,p2 CSV with p1 held at its row-100 text
    over rows 100-159."""
    lines = source.read_text(encoding="utf-8").splitlines()[: rows + 1]
    flat = lines[101].split(",")[1]
    for i in range(101, 161):
        date, _, p2 = lines[i].split(",")
        lines[i] = f"{date},{flat},{p2}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_halting(source: Path, path: Path) -> None:
    """A date,p1,p2 CSV with p2 30 times higher after the first row past the
    middle that holds p2 short in both threshold modes, as this checkout's
    backtest runs it: a loss of about ten times the account value."""
    series = load_csv(source)
    short = []
    for mode in ("approx", "exact"):
        ledger, _ = run_backtest(series, BacktestConfig(threshold_mode=mode))
        short.append({k for k, n2 in zip(ledger.k.tolist(), ledger.n2.tolist()) if n2 < 0.0})
    at = min(k for k in short[0] & short[1] if k >= len(series) // 2)
    lines = source.read_text(encoding="utf-8").splitlines()
    # line r + 1 holds row r
    for i in range(at + 2, len(lines)):
        date, p1, p2 = lines[i].split(",")
        lines[i] = f"{date},{p1},{float(p2) * 30.0!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_quoted(source: Path, path: Path) -> None:
    """The first CHUNK_INPUT_ROWS rows of a date,p1,p2 CSV with ",x" appended
    to every date, quoted, and blank lines: five across ingest's first chunk
    edge and one after every 1000th row."""
    lines = source.read_text(encoding="utf-8").splitlines()[: CHUNK_INPUT_ROWS + 1]
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        date, rest = line.split(",", 1)
        out.append(f'"{date},x",{rest}')
        if i == READ_CHUNK - 3:
            out.extend([""] * 5)
        elif i % 1000 == 999:
            out.append("")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def write_bad_inputs(source: Path, data: Path) -> list[Path]:
    """CSVs that load_csv must reject, made from the first READ_CHUNK + 100
    rows of a date,p1,p2 CSV, which reach into the second chunk."""
    lines = source.read_text(encoding="utf-8").splitlines()[: READ_CHUNK + 101]
    bad = {}
    number = list(lines)
    date, p1, p2 = number[READ_CHUNK + 50].split(",")
    number[READ_CHUNK + 50] = f"{date},{p1},1.0x"
    bad["bad-number"] = number
    order = list(lines)
    # data row READ_CHUNK, the first of the second chunk, repeats the date before it
    date = order[READ_CHUNK].split(",")[0]
    order[READ_CHUNK + 1] = ",".join([date, *order[READ_CHUNK + 1].split(",")[1:]])
    bad["bad-order"] = order
    bad["bad-arity"] = [*lines, lines[-1].rsplit(",", 1)[0]]
    bad["bad-empty"] = []

    def with_row(i, date=None, p1=None, p2=None):
        """lines with fields of data row i replaced."""
        out = list(lines)
        fields = out[i + 1].split(",")
        out[i + 1] = ",".join(field if given is None else given
                              for given, field in zip((date, p1, p2), fields))
        return out

    bad["bad-empty-date"] = with_row(READ_CHUNK + 20, date=" ")
    bad["bad-zero-price"] = with_row(READ_CHUNK + 30, p1="0")
    bad["bad-nan-price"] = with_row(40, p2="nan")
    # three blank lines, then a bad number on data row READ_CHUNK
    blanks = with_row(READ_CHUNK, p1="1.0.0")
    blanks[READ_CHUNK + 1:READ_CHUNK + 1] = [""] * 3
    bad["bad-after-blanks"] = blanks
    # a field over the csv module's default limit of 131072 characters
    csv_error = with_row(100, p2="-1.5")
    csv_error[READ_CHUNK + 61] = "x" * 200_000 + ",1,1"
    bad["bad-before-csv-error"] = csv_error
    paths = []
    for stem, rows in bad.items():
        path = data / f"{stem}.csv"
        path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
        paths.append(path)
    return paths


def calls(seed: int, data: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every call for one seed; a backtest writes to out/<name>."""
    inputs = load_inputs()
    backtest = data / "backtest.csv"
    inputs.backtest_input(seed, backtest)
    flat_p1 = data / "flat_p1.csv"
    write_flat_p1(backtest, flat_p1)
    runs = [(path.stem, path, []) for path in [backtest, *inputs.screen_inputs(seed, data)]]
    runs += [(f"backtest-{label}", backtest, extra) for label, extra in BACKTEST_SETTINGS.items()]
    runs.append((flat_p1.stem, flat_p1, []))
    halting = data / "halting.csv"
    write_halting(backtest, halting)
    runs.append((halting.stem, halting, []))
    out = []
    for stem, path, extra in runs:
        for mode in ("approx", "exact"):
            name = f"{stem}-{mode}"
            out.append((name, ["backtest", "--input", str(path), "--out-dir", f"out/{name}",
                               "--threshold-mode", mode, *extra]))
    out.append(("montecarlo", ["montecarlo", "--seed", str(seed)]))
    out.append(("montecarlo-exact", ["montecarlo", "--threshold-mode", "exact", "--bins", "4",
                                     "--leverage", "2.5", "--seed", str(seed)]))
    out.append(("montecarlo-leverage15", ["montecarlo", "--leverage", "15", "--seed", str(seed)]))
    out.append(("montecarlo-wide-seed", ["montecarlo", "--seed", str(WIDE_SEED), "--trials",
                                         "1500", "--periods", "40"]))
    out.append(("montecarlo-periods2", ["montecarlo", "--periods", str(TILE_EDGE_PERIODS[0]),
                                        "--seed", str(seed)]))
    out.append(("montecarlo-partial-tile", ["montecarlo", "--periods", str(TILE_EDGE_PERIODS[1]),
                                            "--trials", "1500", "--bins", "4",
                                            "--seed", str(seed)]))
    out.append(("lemma", ["verify-lemma", "--samples", "10000", "--seed", str(seed)]))
    out.append(("lemma-moved", ["verify-lemma", "--gamma", "0.1", "--band", "0.5", "--p0", "40",
                                "80", "--beta", "-0.5", "--mu", "0.3", "--seed", str(seed)]))
    for beta in LEMMA_BETAS:
        out.append((f"lemma-beta{beta}", ["verify-lemma", "--samples", "10000", "--beta", beta,
                                          "--seed", str(seed)]))
    quoted = data / "quoted.csv"
    write_quoted(backtest, quoted)
    out.append((quoted.stem, ["backtest", "--input", str(quoted), "--out-dir", f"out/{quoted.stem}"]))
    for path in write_bad_inputs(backtest, data):
        out.append((path.stem, ["backtest", "--input", str(path), "--out-dir", f"out/{path.stem}"]))
    for command, bad in ERROR_CALLS:
        name = f"{command} {' '.join(bad)}"
        pair = ["--input", str(backtest), "--out-dir", f"out/{name}"] if command == "backtest" else []
        out.append((name, [command, *pair, *bad]))
    return out


def child_env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def run(tree: Path, name: str, argv: list[str], cwd: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and every output file of one call, as bytes."""
    proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=cwd, env=child_env(tree),
                          capture_output=True, timeout=CALL_TIMEOUT_S)
    got = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    out_dir = cwd / "out" / name
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            got[path.name] = path.read_bytes()
    return got


def check_tree(tree: Path) -> None:
    """Fail unless a child interpreter imports pairtrade from tree/src."""
    proc = subprocess.run([sys.executable, "-c", "import pairtrade; print(pairtrade.__file__)"],
                          env=child_env(tree), capture_output=True, text=True, check=True)
    where = Path(proc.stdout.strip()).resolve()
    if not where.is_relative_to(tree / "src"):
        sys.exit(f"pairtrade imports from {where}, not from {tree / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, action="append", required=True,
                        help="a source tree; give exactly two")
    parser.add_argument("--seed", type=int, action="append", help="input seed (repeatable)")
    args = parser.parse_args(argv)
    if len(args.repo) != 2:
        parser.error("give --repo exactly twice")
    trees = [repo.resolve() for repo in args.repo]
    for tree in trees:
        check_tree(tree)

    differences = total = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for seed in args.seed or [1]:
            data = Path(tmp) / f"seed{seed}" / "data"
            data.mkdir(parents=True)
            sides = [Path(tmp) / f"seed{seed}" / side for side in ("a", "b")]
            for name, argv in calls(seed, data):
                total += 1
                got = []
                for tree, cwd in zip(trees, sides):
                    cwd.mkdir(exist_ok=True)
                    got.append(run(tree, name, argv, cwd))
                for key in sorted(set(got[0]) | set(got[1])):
                    a, b = (g.get(key) for g in got)
                    if a != b:
                        differences += 1
                        size = ["absent" if x is None else f"{len(x)} bytes" for x in (a, b)]
                        print(f"seed {seed} {name} {key}: differs ({size[0]} vs {size[1]})")
    print(f"{total} calls per tree, {differences} differences", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
