#!/usr/bin/env python3
"""Record repeated perfbench runs into one BENCH_<label>.json file.

    python3 benchmarks/record.py --label seed --runs 5 [--repo DIR] [--seed 1]
        [--workload NAME ...] [--baseline PARENT --baseline-label LABEL]

Runs the benchmark command of BENCHMARK.json (`python3 perfbench/run.py
--workload W --seed S --seconds T --trace X`, T its `run_seconds`) unmodified,
as a subprocess with DIR as its working directory, RUNS times for every
workload (or each one named by a --workload) and both trace modes. Runs
interleave (every workload and mode once, then again), so a slow phase of
the host touches all of them alike.
The output keeps every run's result line (the last line of stdout) and its
`env` line verbatim, and per workload and trace mode the min, median and quartiles of
every metric. DIR defaults to the checkout holding this script; pointing it at
another checkout records that commit with the same benchmark settings. The
file is written at the root of the checkout holding this script.

With --baseline, a second checkout (the parent commit) runs in pairs with
DIR: each run of a workload and trace mode is one parent/change pair,
alternating which side goes first, and the baseline's runs go into
BENCH_<baseline-label>.json. The change's file then also holds a `pairs`
block: per workload and end-to-end metric of BENCHMARK.json, over the
untraced pairs where both runs gave a value, the change's wins, ties and
losses (a win is better in the metric's `better` direction) and the median
of the change/parent ratios.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRACE_MODES = (0, 1)
RUN_TIMEOUT_S = 900


def run_once(repo: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    run = {
        "workload": workload,
        "trace": trace,
        "started": t0,
        "returncode": proc.returncode,
        "env_line": next((line for line in lines if line.startswith("env ")), None),
        "result_line": lines[-1] if lines else "",
    }
    result = parse_result(run)
    run["stderr_tail"] = "" if result is not None and result["correct"] else proc.stderr[-2000:]
    return run


def parse_result(run: dict) -> dict | None:
    """The run's result object, or None when its last line is not one."""
    try:
        result = json.loads(run["result_line"])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"n": len(ordered), "min": ordered[0], "q1": q1,
            "median": statistics.median(ordered), "q3": q3, "max": ordered[-1]}


def summarize(runs: list[dict]) -> dict:
    """{workload: {"trace0"/"trace1": {metric: summary}}} over well-formed runs."""
    out: dict = {}
    for run in runs:
        result = parse_result(run)
        if result is None:
            continue
        metrics = out.setdefault(run["workload"], {}).setdefault(f"trace{run['trace']}", {})
        for name, metric in result["metrics"].items():
            if isinstance(metric.get("value"), (int, float)):
                metrics.setdefault(name, []).append(metric["value"])
    return {w: {mode: {name: summary(vals) for name, vals in sorted(ms.items())}
                for mode, ms in modes.items()}
            for w, modes in out.items()}


def pair_counts(runs: list[dict], base_runs: list[dict]) -> dict:
    """{workload: {metric: {wins, ties, losses, median_ratio}}} of the
    end-to-end metrics over the untraced pairs, `runs` being the change."""
    def values(side: list[dict]) -> dict:
        return {(run["workload"], run["run"]): result["metrics"] for run in side
                if run["trace"] == 0 and (result := parse_result(run)) is not None}

    change, parent = values(runs), values(base_runs)
    pairs: dict = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for metric in BENCHMARK["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            counts = {"wins": 0, "ties": 0, "losses": 0}
            ratios = []
            for key, metrics in change.items():
                if key[0] != workload or key not in parent:
                    continue
                a = metrics.get(name, {}).get("value")
                b = parent[key].get(name, {}).get("value")
                if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
                    continue
                diff = sign * (a - b)
                counts["wins" if diff > 0 else "losses" if diff < 0 else "ties"] += 1
                if b:
                    ratios.append(a / b)
            pairs.setdefault(workload, {})[name] = {
                **counts, "median_ratio": statistics.median(ratios) if ratios else None}
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload and trace mode")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=[w["name"] for w in BENCHMARK["workloads"]],
                        help="record only this workload; repeatable (default: every workload)")
    parser.add_argument("--baseline", type=Path,
                        help="a second checkout, run in alternating pairs with --repo")
    parser.add_argument("--baseline-label", help="names the baseline's BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    if args.workloads is None:
        args.workloads = [w["name"] for w in BENCHMARK["workloads"]]
    if (args.baseline is None) != (args.baseline_label is None):
        parser.error("give --baseline and --baseline-label together")
    sides = [(args.label, args.repo.resolve())]
    if args.baseline is not None:
        sides.append((args.baseline_label, args.baseline.resolve()))
    for _, repo in sides:
        if not (repo / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {repo}")

    runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
    for i in range(args.runs):
        for workload in args.workloads:
            for trace in TRACE_MODES:
                # a pair's first side alternates from one run to the next
                for label, repo in sides[i % 2:] + sides[: i % 2]:
                    run = run_once(repo, workload, args.seed, trace)
                    run["run"] = i
                    runs[label].append(run)
                    result = parse_result(run)
                    state = "malformed" if result is None else (
                        f"correct={result['correct']} failed={result['failed']}")
                    print(f"{label} run {i} {workload} trace={trace}: exit {run['returncode']}, "
                          f"{state}", file=sys.stderr)
    pairs = {}
    if args.baseline is not None:
        pairs[args.label] = pair_counts(runs[args.label], runs[args.baseline_label])
    return max(write(label, runs[label], args, pairs.get(label)) for label, _ in sides)


def write(label: str, runs: list[dict], args: argparse.Namespace, pairs: dict | None) -> int:
    """Write BENCH_<label>.json; 1 if a run was malformed or incorrect, else 0."""
    results = [parse_result(run) for run in runs]
    env_line = next((run["env_line"] for run in runs if run["env_line"]), None)
    payload = {
        "label": label,
        "command": BENCHMARK["command"],
        "seed": args.seed,
        "seconds": BENCHMARK["run_seconds"],
        "runs_per_mode": args.runs,
        "workloads": args.workloads,
        "env": json.loads(env_line[4:]) if env_line else None,
        "malformed": sum(result is None for result in results),
        "incorrect": sum(result is not None and not result["correct"] for result in results),
        "summary": summarize(runs),
        "runs": runs,
    }
    if pairs is not None:
        payload["pairs"] = pairs
    out_path = ROOT / f"BENCH_{label}.json"
    out_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0 if payload["malformed"] == 0 and payload["incorrect"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
