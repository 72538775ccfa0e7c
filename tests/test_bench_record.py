"""benchmarks/record.py's pair counts: wins, ties and losses by BENCHMARK.json's direction."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _fake_runs(record, monkeypatch, tmp_path):
    """Replace the benchmark subprocess with a stub that logs (repo name,
    workload, trace) and write BENCH files under tmp_path."""
    calls = []

    def run_once(repo, workload, seed, trace):
        calls.append((repo.name, workload, trace))
        return _run(0, trace, 100.0, 50.0, workload) | {"env_line": None, "returncode": 0}

    monkeypatch.setattr(record, "run_once", run_once)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    return calls


def test_workload_option_records_only_the_named_workloads(monkeypatch, tmp_path):
    record = _load_record()
    calls = _fake_runs(record, monkeypatch, tmp_path)
    repo = RECORD.parent.parent
    argv = ["--label", "x", "--runs", "2", "--workload", "lemma", "--workload", "screen",
            "--repo", str(repo)]
    assert record.main(argv) == 0
    # both trace modes of each named workload, in the order given, every run
    assert [c[1:] for c in calls] == [("lemma", 0), ("lemma", 1), ("screen", 0), ("screen", 1)] * 2
    payload = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert payload["workloads"] == ["lemma", "screen"]
    assert set(payload["summary"]) == {"lemma", "screen"}


def test_every_workload_is_recorded_by_default(monkeypatch, tmp_path):
    record = _load_record()
    calls = _fake_runs(record, monkeypatch, tmp_path)
    assert record.main(["--label", "x", "--runs", "1", "--repo", str(RECORD.parent.parent)]) == 0
    names = [w["name"] for w in record.BENCHMARK["workloads"]]
    assert [c[1:] for c in calls] == [(w, t) for w in names for t in record.TRACE_MODES]


def test_unknown_workload_is_refused(monkeypatch, tmp_path, capsys):
    record = _load_record()
    calls = _fake_runs(record, monkeypatch, tmp_path)
    with pytest.raises(SystemExit) as exc:
        record.main(["--label", "x", "--workload", "nope"])
    assert exc.value.code == 2
    assert calls == [] and "nope" in capsys.readouterr().err
