"""benchmarks/record.py's pair counts: wins, ties and losses by BENCHMARK.json's direction."""

import importlib.util
import json
from pathlib import Path

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


def _load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(i, trace, rate, rss, workload="montecarlo"):
    metrics = {"items_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}}
    line = json.dumps({"correct": True, "failed": 0, "metrics": metrics})
    return {"workload": workload, "run": i, "trace": trace, "result_line": line}


def test_pairs_follow_the_better_direction():
    record = _load_record()
    change = [_run(0, 0, 110.0, 50.0), _run(1, 0, 100.0, 52.0), _run(2, 0, 90.0, 50.0),
              _run(0, 1, 1.0, 99.0), _run(3, 0, 120.0, 50.0)]
    parent = [_run(0, 0, 100.0, 51.0), _run(1, 0, 100.0, 51.0), _run(2, 0, 100.0, 50.0),
              _run(0, 1, 500.0, 1.0), {**_run(3, 0, 1.0, 1.0), "result_line": "crashed"}]
    pairs = record.pair_counts(change, parent)
    # traced runs and pairs without a parent result are not counted
    assert pairs["montecarlo"]["items_per_s"] == {
        "wins": 1, "ties": 1, "losses": 1, "median_ratio": 1.0}
    rss = pairs["montecarlo"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["losses"]) == (1, 1, 1)
    assert pairs["backtest"]["items_per_s"] == {
        "wins": 0, "ties": 0, "losses": 0, "median_ratio": None}
