"""The aggregation of tools/record_bench.py, on canned benchmark outputs."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import record_bench  # noqa: E402


def canned_output(seed, solve_s, rss, digest, slowdown=1.2):
    info = {"workload": "suite-default", "seed": seed, "seconds": 30.0, "digest": digest,
            "versions": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}, "nproc": 2,
            "host_slowdown": slowdown}
    result = {"correct": True, "attempted": 40, "failed": 0,
              "metrics": {"solve_s": {"value": solve_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        f"{'solve_s':42s} {solve_s:14.6g} s",
        f"{'peak_rss_mb':42s} {rss:14.6g} MB",
        "info " + json.dumps(info),
        json.dumps(result),
    ]) + "\n"


def test_parse_output_reads_the_info_line_and_the_last_line():
    info, result = record_bench.parse_output(canned_output(3, 0.0006, 44.5, "abc"))
    assert (info["seed"], info["digest"], info["host_slowdown"]) == (3, "abc", 1.2)
    assert result["metrics"]["solve_s"] == {"value": 0.0006, "unit": "s"}


@pytest.mark.parametrize("text", ["", '{"correct": true}\n'])
def test_parse_output_rejects_incomplete_runs(text):
    with pytest.raises(ValueError):
        record_bench.parse_output(text)


def test_median_and_interquartile_range():
    assert record_bench.median_iqr([5.0]) == (5.0, 0.0)
    assert record_bench.median_iqr([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0)
    assert record_bench.median_iqr([1.0, 2.0]) == (1.5, 0.5)


def test_record_aggregates_each_workload():
    solves = [0.0007, 0.0005, 0.0006, 0.0009, 0.0004]
    runs = [record_bench.parse_output(canned_output(s, v, 44.0 + s, f"d{s}", 1.0 + s / 10))
            for s, v in enumerate(solves, start=1)]
    doc = record_bench.record("5558d3f", {"suite-default": runs})
    assert doc["commit"] == "5558d3f" and doc["nproc"] == 2 and doc["seconds"] == 30.0
    assert doc["versions"]["numpy"] == "2.4.6"
    wl = doc["workloads"]["suite-default"]
    assert wl["metrics"]["solve_s"] == {"median": 0.0006, "iqr": pytest.approx(0.0002), "unit": "s"}
    assert wl["metrics"]["peak_rss_mb"] == {"median": 47.0, "iqr": 2.0, "unit": "MB"}
    assert [r["digest"] for r in wl["runs"]] == ["d1", "d2", "d3", "d4", "d5"]
    assert [r["host_slowdown"] for r in wl["runs"]] == [1.1, 1.2, 1.3, 1.4, 1.5]
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] == 40 for r in wl["runs"])
    json.dumps(doc)  # the record is plain JSON


def test_failed_run_reports_its_stderr_and_exits_non_zero(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 30,
        "workloads": [{"name": "congested-dp"}],
    }))
    stderr = "".join(f"noise {i}\n" for i in range(40)) + "Traceback (most recent call last):\nValueError: boom\n"

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return record_bench.subprocess.CompletedProcess(cmd, 0, "abc1234\n", "")
        return record_bench.subprocess.CompletedProcess(cmd, 3, "", stderr)

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    assert record_bench.main(["--root", str(tmp_path), "--seeds", "2"]) != 0
    err = capsys.readouterr().err
    assert "congested-dp seed 1: exit code 3" in err
    assert "ValueError: boom" in err and "noise 39" in err
    assert "noise 0\n" not in err  # only the tail
    assert not list(tmp_path.glob("BENCH_*.json"))
