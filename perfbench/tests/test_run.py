"""Caps, failure accounting, the result line and BENCHMARK.json agree."""

import json
import shutil
import subprocess
import sys

import hopfcross.cli as cli
import run
import workloads


def test_tiny_cap_is_a_timeout_and_counts_as_failed(tmp_path, monkeypatch):
    inputs = workloads.make_inputs("ladder-qq", 1, run.DATA, tmp_path)
    slow = next(i for i in inputs if i.largest)
    monkeypatch.setattr(workloads, "CAP_FLOOR", 0.0)
    monkeypatch.setattr(slow, "est_s", 0.05 / workloads.CAP_FACTOR)
    p = run.run_pass(cli, inputs, deadline=float("inf"))
    assert p.status == {"ok": 1, "timeout": 1}
    assert p.problems[slow.id][0] == "timeout"
    assert p.times[slow.id] < 5
    status, problems, attempted, failed = run._tally([p])
    assert (attempted, failed) == (2, 1)
    assert run.end_to_end([p], inputs, 0.1)["decided_share"] == 0.5


def test_passed_deadline_records_timeouts_without_running():
    inputs = [workloads.Input("x", "verify", run.DATA / "f_c3.json",
                              {"exit": 0}, 1.0, largest=True)]
    p = run.run_pass(cli, inputs, deadline=0.0)
    assert p.status == {"timeout": 1} and p.times["x"] == 0.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
