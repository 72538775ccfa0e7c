#!/usr/bin/env python3
"""Benchmark of the pairtrade command line: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload backtest --seed 1 --seconds 15 --trace 0

Runs from a source checkout and imports the program from its `src/`. One run
makes the workload's inputs from --seed, then calls `pairtrade.cli.main`
in-process, one call after another, until --seconds have passed, and checks
the outputs of the last round against independent computations. Times are
scaled to the reference host by the host-speed sampler in hostclock.py. The
last line of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One thread per BLAS pool; set before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
TRACE_DIR = BENCH_DIR / "_out"

SETUP_SAMPLES = 5
MC_TRIALS, MC_PERIODS = 10_000, 250
LEMMA_SAMPLES = 10_000
IMPORT_PROBE = f"""
import sys, time
sys.path.append({str(BENCH_DIR)!r})
import hostclock
clock = hostclock.HostClock(hostclock.object_loop, hostclock.OBJECT_REF_S)
clock.start()
t0 = time.perf_counter()
import pairtrade.cli
t1 = time.perf_counter()
clock.stop()
import pairtrade
print(t1 - t0, clock.slowdown(t0, t1), pairtrade.__file__)
"""
# `python -X importtime` logs no line for scipy.stats when it is loaded by
# `from scipy import stats`, so the probe times that load at the import
# machinery's entry point, which every first import of a module passes.
SCIPY_STATS_PROBE = """
import importlib._bootstrap as bootstrap, time
inner, spent = bootstrap._find_and_load, []
def timed(name, import_):
    if name != "scipy.stats":
        return inner(name, import_)
    t0 = time.perf_counter()
    try:
        return inner(name, import_)
    finally:
        spent.append(time.perf_counter() - t0)
bootstrap._find_and_load = timed
import pairtrade.cli
print(sum(spent))
"""


@dataclass
class Round:
    """One round of a workload: CLI calls made one after another."""

    argvs: list[list[str]]
    items: int
    out_dirs: list[Path]
    check: Callable[[list[str]], None]  # takes each call's stdout


def prepare_backtest(seed: int, work: Path) -> Round:
    import checks
    import inputs

    csv_path, out = work / "pair.csv", work / "out"
    inputs.backtest_input(seed, csv_path)
    params = checks.BacktestParams()
    return Round(
        argvs=[["backtest", "--input", str(csv_path), "--out-dir", str(out)]],
        items=inputs.BACKTEST_ROWS - params.train_len,
        out_dirs=[out],
        check=lambda stdouts: checks.check_backtest(csv_path, out, params, expect_growth=True),
    )


def prepare_screen(seed: int, work: Path) -> Round:
    import checks
    import inputs

    pairs = inputs.screen_inputs(seed, work)
    outs = [work / f"out{i:02d}" for i in range(len(pairs))]
    params = checks.BacktestParams(threshold_mode="exact")

    def check(stdouts):
        for path, out in zip(pairs, outs):
            checks.check_backtest(path, out, params, expect_growth=False)

    return Round(
        argvs=[["backtest", "--input", str(p), "--out-dir", str(o), "--threshold-mode", "exact"]
               for p, o in zip(pairs, outs)],
        items=len(pairs),
        out_dirs=outs,
        check=check,
    )


def prepare_montecarlo(seed: int, work: Path) -> Round:
    import checks

    return Round(
        argvs=[["montecarlo", "--trials", str(MC_TRIALS), "--periods", str(MC_PERIODS),
                "--seed", str(seed)]],
        items=MC_TRIALS * MC_PERIODS,
        out_dirs=[],
        check=lambda stdouts: checks.check_montecarlo(stdouts[0], seed, MC_TRIALS, MC_PERIODS),
    )


def prepare_lemma(seed: int, work: Path) -> Round:
    import checks

    return Round(
        argvs=[["verify-lemma", "--samples", str(LEMMA_SAMPLES), "--seed", str(seed)]],
        items=LEMMA_SAMPLES,
        out_dirs=[],
        check=lambda stdouts: checks.check_lemma(stdouts[0], LEMMA_SAMPLES),
    )


WORKLOADS = {
    "backtest": prepare_backtest,
    "screen": prepare_screen,
    "montecarlo": prepare_montecarlo,
    "lemma": prepare_lemma,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of pairtrade.cli, each in a fresh interpreter, and the
    host slowdown during each."""
    times, slowdowns = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, slowdown, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"pairtrade imported from {module_file}, not from {SRC}")
        times.append(float(seconds))
        slowdowns.append(float(slowdown))
    return times, slowdowns


def scipy_stats_import_s() -> float:
    """Time spent loading scipy.stats inside `import pairtrade.cli`, in a fresh
    interpreter; 0 when the program does not load it."""
    proc = subprocess.run([sys.executable, "-c", SCIPY_STATS_PROBE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def environment() -> dict:
    import numpy
    import scipy

    import pairtrade

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "backend": getattr(pairtrade, "KERNEL_BACKEND", "absent"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_round(cli, rnd: Round) -> tuple[float, float, list[str], int]:
    """Start and end of one round, each call's stdout, and the number of failed calls."""
    stdouts, failed = [], 0
    t0 = time.perf_counter()
    for argv in rnd.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            failed += 1
            print(f"call failed with exit {rc}: {argv}\n{err.getvalue()}", file=sys.stderr)
        stdouts.append(out.getvalue())
    return t0, time.perf_counter(), stdouts, failed


def fingerprint(rnd: Round, stdouts: list[str]) -> str:
    digest = hashlib.sha256()
    for text in stdouts:
        digest.update(text.encode())
    for out in rnd.out_dirs:
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pairtrade" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'pairtrade'}", file=sys.stderr)
        return 2

    setup, setup_slowdown = measure_setup()
    import_stats = scipy_stats_import_s() if args.trace else None
    sys.path.insert(0, str(SRC))
    from pairtrade import cli

    import hostclock
    import tracing

    env = environment()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rnd = WORKLOADS[args.workload](args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        clock = hostclock.HostClock()
        rounds, snapshots, prints = [], [], set()  # rounds: (start, end, traced)
        attempted = failed = 0
        clock.start()
        try:
            run_start = time.perf_counter()
            deadline = run_start + args.seconds
            while True:
                traced = tracer is not None and len(rounds) % 2 == 1
                if traced:
                    tracer.install()
                try:
                    start, end, stdouts, bad = run_round(cli, rnd)
                finally:
                    if traced:
                        tracer.uninstall()
                rounds.append((start, end, traced))
                attempted += len(rnd.argvs)
                failed += bad
                if traced:
                    snapshots.append(tracer.snapshot())
                    tracer.reset()
                prints.add(fingerprint(rnd, stdouts))
                if time.perf_counter() >= deadline and (tracer is None or snapshots):
                    break
        finally:
            clock.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = True
        try:
            if len(prints) != 1:
                raise AssertionError(f"rounds gave {len(prints)} different outputs")
            rnd.check(stdouts)
        except Exception:  # noqa: BLE001 - any checker error means the outputs are wrong
            correct = False
            traceback.print_exc()

        # times as they would be on the reference host
        scaled = {False: [], True: []}
        for start, end, traced in rounds:
            scaled[traced].append((end - start) / clock.slowdown(start, end))
        setup_scaled = [t / h for t, h in zip(setup, setup_slowdown)]
        print("env " + json.dumps(env, sort_keys=True))
        print("rounds " + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "setup_s": setup, "setup_slowdown": setup_slowdown,
            "round_s": [end - start for start, end, _ in rounds],
            "slowdown": [clock.slowdown(start, end) for start, end, _ in rounds],
            "traced": [traced for _, _, traced in rounds],
        }))
        if tracer is None:
            metrics = {
                "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
                "items_per_s": {"value": rnd.items / statistics.median(scaled[False]),
                                "unit": "items/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
        else:
            metrics, consistent = per_layer(snapshots)
            correct = correct and consistent
            metrics["import.scipy_stats_s"] = {"value": import_stats, "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(scaled[True]) - statistics.median(scaled[False]),
                "unit": "s"}
            metrics["host.calib_s"] = {"value": clock.mean_loop_s(), "unit": "s"}
            if tracer.absent:
                print("absent " + json.dumps(tracer.absent))
            TRACE_DIR.mkdir(exist_ok=True)
            (TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "env": env, "rounds": [(a - run_start, b - run_start, t) for a, b, t in rounds],
                "per_round": snapshots, "absent": tracer.absent,
                "spans": [(n, a - run_start, b - run_start, p) for n, a, b, p in tracer.spans],
            }))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(snapshots: list[dict]) -> tuple[dict, bool]:
    """Median time and exact count per layer over the traced rounds; counts
    must agree between rounds, since every round does the same work."""
    metrics, consistent = {}, True
    for name in snapshots[0]:
        values = [snap[name] for snap in snapshots]
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                consistent = False
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = {"value": values[0], "unit": "bytes" if "bytes" in name else "count"}
    return metrics, consistent


if __name__ == "__main__":
    sys.exit(main())
