"""tools/bench_record.py: the A/B record appended to BENCH_<w>.json."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    END_TO_END = json.load(_f)["end_to_end"]

HOST = {"nproc": 2, "platform": "Linux-x86_64", "python": "3.11.7"}


def write_run(path, rate, latency, host=HOST, correct=True):
    """A --trace 0 zoo result file: ``sim_inst_per_s`` = ``rate``,
    ``latency_p50_ms`` = ``latency``, every other metric 1.0."""
    metrics = {spec["name"]: {"unit": spec["unit"], "value": 1.0}
               for spec in END_TO_END}
    metrics["sim_inst_per_s"]["value"] = rate
    metrics["latency_p50_ms"]["value"] = latency
    run = {"workload": "zoo", "trace": 0, "seed": 1, "seconds": 20.0,
           "host": host, "correct": correct, "failed": 0,
           "metrics": metrics}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run, handle)
    return str(path)


def record_args(tmp_path, parent, change):
    return ["--workload", "zoo", "--parent-commit", "abc1234",
            "--change", "faster", "--out", str(tmp_path / "BENCH.json"),
            "--parent", *parent, "--change-runs", *change]


def test_record_medians_quartiles_pairs_and_ratio(tmp_path):
    parent = [write_run(tmp_path / "p0.json", 100.0, 10.0),
              write_run(tmp_path / "p1.json", 200.0, 20.0)]
    change = [write_run(tmp_path / "c0.json", 150.0, 12.0),
              write_run(tmp_path / "c1.json", 170.0, 14.0)]
    assert bench_record.main(record_args(tmp_path, parent, change)) == 0
    with open(tmp_path / "BENCH.json", encoding="utf-8") as handle:
        trajectory = json.load(handle)
    assert trajectory["workload"] == "zoo"
    (entry,) = trajectory["records"]
    assert entry["parent_commit"] == "abc1234"
    assert entry["host"] == HOST
    assert entry["runs"] == {"parent": 2, "change": 2}
    rate = entry["metrics"]["sim_inst_per_s"]
    # Inclusive quartiles of two runs sit a quarter of the way in.
    assert rate["parent"] == {"median": 150.0, "q1": 125.0, "q3": 175.0}
    assert rate["change"] == {"median": 160.0, "q1": 155.0, "q3": 165.0}
    assert rate["ratio"] == pytest.approx(160.0 / 150.0)
    # Higher is better: 150 > 100 wins, 170 < 200 loses.
    assert rate["pairs_won"] == 1
    latency = entry["metrics"]["latency_p50_ms"]
    assert latency["ratio"] == pytest.approx(13.0 / 15.0)
    # Lower is better: 12 > 10 loses, 14 < 20 wins.
    assert latency["pairs_won"] == 1
    # A second record appends to the same trajectory.
    assert bench_record.main(record_args(tmp_path, parent, change)) == 0
    with open(tmp_path / "BENCH.json", encoding="utf-8") as handle:
        assert len(json.load(handle)["records"]) == 2


def test_rejects_runs_from_different_hosts(tmp_path):
    other = dict(HOST, nproc=8)
    parent = [write_run(tmp_path / "p0.json", 100.0, 10.0),
              write_run(tmp_path / "p1.json", 100.0, 10.0, host=other)]
    change = [write_run(tmp_path / "c0.json", 150.0, 12.0),
              write_run(tmp_path / "c1.json", 150.0, 12.0)]
    with pytest.raises(SystemExit, match="different hosts"):
        bench_record.main(record_args(tmp_path, parent, change))
    assert not (tmp_path / "BENCH.json").exists()


def test_rejects_incorrect_runs(tmp_path):
    parent = [write_run(tmp_path / "p0.json", 100.0, 10.0),
              write_run(tmp_path / "p1.json", 100.0, 10.0)]
    change = [write_run(tmp_path / "c0.json", 150.0, 12.0),
              write_run(tmp_path / "c1.json", 150.0, 12.0, correct=False)]
    with pytest.raises(SystemExit, match="incorrect"):
        bench_record.main(record_args(tmp_path, parent, change))
    assert not (tmp_path / "BENCH.json").exists()
