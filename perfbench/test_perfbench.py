"""Tiny-scale checks of the benchmark itself: ``python -m pytest perfbench``.

Each workload and the traced run go through ``run.py`` as the benchmark
is run, at ``--scale tiny`` so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def _run(*args: str, cwd: Path = ROOT, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0", "--scale", "tiny")
    result = _result(proc)
    _check_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert result["metrics"]["success_ratio"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:  # one line per metric, with its unit
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in proc.stdout.splitlines()
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_writes_a_trace(workload):
    from repro.obs.trace import validate_chrome_trace

    trace = ROOT / ".perfbench_out" / f"trace-{workload}-seed4.json"
    trace.unlink(missing_ok=True)
    result = _result(
        _run("--workload", workload, "--seed", "4", "--seconds", "2", "--trace", "1", "--scale", "tiny")
    )
    _check_metrics(result, SPEC["per_layer"])
    summary = validate_chrome_trace(json.loads(trace.read_text()))
    names = {event["name"] for event in json.loads(trace.read_text())["traceEvents"]}
    assert {"bench.rung", "frontier", "index.refresh"} <= names, summary
    # upstream traces need several frontier rounds at the gateway
    assert result["metrics"]["server.sharding.rounds_per_op"]["value"] >= 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_streams_are_seeded_and_balanced():
    from perfbench import streams

    scape = streams.generate("tiny")
    for make in (streams.search_stream, streams.lineage_stream, streams.release_mix_stream):
        first, again, other = make(scape, 7, 120), make(scape, 7, 120), make(scape, 8, 120)
        assert [op.key for op in first] == [op.key for op in again]
        assert [op.key for op in first] != [op.key for op in other]
        # every seed asks for the same amount of each form
        assert Counter(op.key[0] for op in first) == Counter(op.key[0] for op in other)
        assert Counter(op.slot for op in first) == Counter(op.slot for op in other)
