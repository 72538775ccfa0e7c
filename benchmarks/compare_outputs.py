#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

    python3 benchmarks/compare_outputs.py --repo A --repo B [--seed 1 --seed 2 ...]

For each seed (default 1) it writes perfbench's inputs with
`perfbench/inputs.py` of the checkout holding this script, loaded as it is:
the `backtest` pair and the 36 `screen` pairs. Each tree then runs these
calls, every one in a fresh interpreter with PYTHONPATH=<tree>/src:

- `backtest` on every one of those inputs, in both threshold modes
- `backtest` on the `backtest` pair with each of the settings in
  `BACKTEST_SETTINGS` (every window a one-row block, a partial last block,
  leverage high enough that windows go untradeable with a warning, a fixed
  gamma), and on `flat_p1.csv`, whose p1 stands still over rows 100-159 so
  that five windows have no fit; each in both threshold modes
- `montecarlo --seed S`, its other settings at their defaults, and again in
  exact mode with `--bins 4 --leverage 2.5`
- `montecarlo` at the fixed seed `WIDE_SEED`, 2**64 + 5, three 32-bit words
  of entropy, with 1500 trials, so its last chunk of trials is partial
- `verify-lemma --samples 10000 --seed S`, again with gamma, band, p0,
  beta and mu moved off their defaults, and at each beta in `LEMMA_BETAS`;
  with the default beta 2 and the moved -0.5 these reach every branch of
  the log-linear curvature bound's c = max(beta, 1) + max(-beta, 0)
- the invalid settings in `ERROR_CALLS`, which must fail alike

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
CLI = "import sys; from pairtrade.cli import main; sys.exit(main(sys.argv[1:]))"
CALL_TIMEOUT_S = 600
# extra backtest settings run on the backtest pair
BACKTEST_SETTINGS = {
    "train3-trade1": ["--train-len", "3", "--trade-len", "1"],
    "trade7": ["--trade-len", "7"],
    "leverage25": ["--leverage", "25"],
    "leverage50": ["--leverage", "50"],
    "gamma0.02": ["--gamma", "0.02"],
}
# verify-lemma betas, each run at --samples 10000
LEMMA_BETAS = ("1", "0.5", "0")
# a montecarlo seed of three 32-bit words
WIDE_SEED = 2**64 + 5
# invalid settings: each must fail the same way, exit code and stderr
ERROR_CALLS = [
    ("verify-lemma", ["--seed", "-1"]),
    ("verify-lemma", ["--p0", "0", "50"]),
    ("verify-lemma", ["--gamma", "1"]),
    ("verify-lemma", ["--band", "0"]),
    ("verify-lemma", ["--samples", "0"]),
    ("verify-lemma", ["--beta", "nan"]),
    ("montecarlo", ["--leverage", "0"]),
    ("montecarlo", ["--trials", "0"]),
    ("montecarlo", ["--seed", "-1"]),
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
    out = []
    for stem, path, extra in runs:
        for mode in ("approx", "exact"):
            name = f"{stem}-{mode}"
            out.append((name, ["backtest", "--input", str(path), "--out-dir", f"out/{name}",
                               "--threshold-mode", mode, *extra]))
    out.append(("montecarlo", ["montecarlo", "--seed", str(seed)]))
    out.append(("montecarlo-exact", ["montecarlo", "--threshold-mode", "exact", "--bins", "4",
                                     "--leverage", "2.5", "--seed", str(seed)]))
    out.append(("montecarlo-wide-seed", ["montecarlo", "--seed", str(WIDE_SEED), "--trials",
                                         "1500", "--periods", "40"]))
    out.append(("lemma", ["verify-lemma", "--samples", "10000", "--seed", str(seed)]))
    out.append(("lemma-moved", ["verify-lemma", "--gamma", "0.1", "--band", "0.5", "--p0", "40",
                                "80", "--beta", "-0.5", "--mu", "0.3", "--seed", str(seed)]))
    for beta in LEMMA_BETAS:
        out.append((f"lemma-beta{beta}", ["verify-lemma", "--samples", "10000", "--beta", beta,
                                          "--seed", str(seed)]))
    for command, bad in ERROR_CALLS:
        out.append((f"{command} {' '.join(bad)}", [command, *bad]))
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
