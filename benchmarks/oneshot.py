#!/usr/bin/env python3
"""Time one-shot CLI calls, each in a fresh interpreter, into BENCH_oneshot_<label>.json.

    python3 benchmarks/oneshot.py --label NAME [--repo DIR] [--runs 7] [--seed 1]
        [--baseline PARENT --baseline-label LABEL]

perfbench runs its rounds in one process, so it never sees import time. This
script starts a new interpreter (PYTHONPATH=DIR/src) for every call and takes
its wall time, startup and imports included:

- `import`: `import pairtrade.cli` alone, the floor under every command
- `backtest` on perfbench's `backtest` pair for the seed, written by
  `perfbench/inputs.py` of the checkout holding this script
- `montecarlo --seed S` and `verify-lemma --seed S`, at their defaults

Calls interleave (every command once, then again), so a slow phase of the
host touches all of them alike. Per command the output holds every wall time
and its min (best-of-N), quartiles, median and max; the spread is max - min.
A call that exits non-zero fails the script. With --baseline, a second
checkout (the parent commit) runs each call in a pair with DIR, alternating
which side goes first, and is written to BENCH_oneshot_<baseline-label>.json.
Files are written at the root of the checkout holding this script.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import CLI, CALL_TIMEOUT_S, ROOT, check_tree, child_env, load_inputs
from record import summary


def commands(seed: int, data: Path) -> dict[str, list[str]]:
    """{name: argv after the interpreter} of every timed call."""
    backtest = data / "backtest.csv"
    load_inputs().backtest_input(seed, backtest)
    return {
        "import": ["-c", "import pairtrade.cli"],
        # each side runs in its own directory next to data/
        "backtest": ["-c", CLI, "backtest", "--input", f"../data/{backtest.name}",
                     "--out-dir", "out"],
        "montecarlo": ["-c", CLI, "montecarlo", "--seed", str(seed)],
        "verify-lemma": ["-c", CLI, "verify-lemma", "--seed", str(seed)],
    }


def time_call(tree: Path, argv: list[str], cwd: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(tree),
                          capture_output=True, timeout=CALL_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        shown = argv[2:] or argv[1:]
        sys.exit(f"{tree}: {shown} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_oneshot_<label>.json")
    parser.add_argument("--runs", type=int, default=7, help="calls per command")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to time")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path,
                        help="a second checkout, timed in pairs with --repo")
    parser.add_argument("--baseline-label", help="names the baseline's output file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    if (args.baseline is None) != (args.baseline_label is None):
        parser.error("give --baseline and --baseline-label together")
    sides = [(args.label, args.repo.resolve())]
    if args.baseline is not None:
        sides.append((args.baseline_label, args.baseline.resolve()))
    for _, tree in sides:
        check_tree(tree)

    walls: dict[str, dict[str, list[float]]] = {label: {} for label, _ in sides}
    with tempfile.TemporaryDirectory(prefix="oneshot_") as tmp:
        data = Path(tmp) / "data"
        data.mkdir()
        calls = commands(args.seed, data)
        for i in range(args.runs):
            for name, call in calls.items():
                for label, tree in sides[i % 2:] + sides[: i % 2]:
                    cwd = Path(tmp) / label
                    cwd.mkdir(exist_ok=True)
                    walls[label].setdefault(name, []).append(time_call(tree, call, cwd))
            print(f"run {i + 1} of {args.runs} done", file=sys.stderr)

    for label, _ in sides:
        stats = {name: {**summary(w), "spread": max(w) - min(w), "walls_s": w}
                 for name, w in walls[label].items()}
        payload = {"label": label, "seed": args.seed, "runs": args.runs,
                   "python": platform.python_version(), "machine": platform.machine(),
                   "commands": {name: call[2:] or call[1:] for name, call in calls.items()},
                   "wall_s": stats}
        out = ROOT / f"BENCH_oneshot_{label}.json"
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        best = ", ".join(f"{name} {s['min']:.3f} s" for name, s in stats.items())
        print(f"wrote {out}: best of {args.runs}: {best}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
