"""Tests of the benchmark itself: tiny runs of every workload and of the
course job, the output checks, the span arithmetic and the result contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import ROOT, require_program

require_program()

import coursejob  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402
from spans import SpanRecorder  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(serveload, "BLOCK", 256)
    monkeypatch.setattr(serveload, "WARMUP_BLOCKS", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_serve_workload_tiny_run_has_no_failures(tiny_blocks, workload, traced):
    metrics, out, spans = run.serve_run(workload, seed=3, seconds=0.2, traced=traced)
    assert out.attempted > 0
    assert (out.failed, out.wrong) == (0, 0)
    if traced:
        assert metrics["serve.admission.shed"] == 0
        assert len(spans.durations("serve.gateway.submit")) > 0
        assert metrics["serve.batching.batch_size_mean"] > 1
    else:
        assert metrics["throughput_rps"] > 0 and metrics["latency_p50_ms"] > 0


def test_course_job_has_no_failures_and_times_every_layer():
    spans = SpanRecorder()
    metrics, out = run.course_cell(1, spans, jobs=2)
    assert out.attempted == 3 * len(coursejob.EXPERIMENTS)
    assert (out.failed, out.wrong) == (0, 0)
    assert metrics["obs.trace.events_per_job"] > 0
    assert all(metrics[f"bench.{e}.s"] > 0 for e in coursejob.EXPERIMENTS)
    assert 0 < metrics["obs.analyze.s_per_job"] < metrics["course.job_s"]


def test_serve_check_catches_a_wrong_value():
    records = serveload.ServeRecords()
    for key in (5, 6, 7):
        records.kinds.append(1)
        records.keys.append(key)
        records.values.append(serveload.BODIES[1](key))
    assert serveload.check_serve(records) == 0
    records.values[1] ^= 1
    assert serveload.check_serve(records) == 1


def test_course_check_catches_a_wrong_report():
    reports = coursejob.committed_reports()
    reports["abl_sched"] = reports["abl_sched"].replace("0", "1", 1)
    _, out, _ = coursejob.run_job(1, reports, SpanRecorder(enabled=False))
    assert (out.failed, out.wrong) == (1, 1)


def test_self_time_subtracts_covered_child_intervals():
    spans = SpanRecorder()
    spans.add("job", 0.0, 10.0)
    spans.add("child", 1.0, 3.0, parent=0)
    spans.add("child", 2.0, 4.0, parent=0)  # overlaps the first child
    spans.add("child", 9.0, 12.0, parent=0)  # runs past the parent's end
    assert spans.self_times("job") == [10.0 - 3.0 - 1.0]
    assert spans.self_times("child") == [2.0, 2.0, 3.0]
    assert SpanRecorder(enabled=False).self_times("job") == []


def test_sums_per_group():
    spans = SpanRecorder()
    with spans.span("course.job") as job:
        spans.add("obs.analyze", 0.0, 1.0, job)
        spans.add("obs.analyze", 2.0, 2.5, job)
    with spans.span("course.job") as job:
        spans.add("obs.analyze", 3.0, 3.25, job)
    assert spans.sums_per("course.job", "obs.analyze") == [1.5, 0.25]


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(run.MOVES) == set(run.PER_LAYER)


def test_cli_prints_the_result_contract_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-threads-skewed",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-threads-skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_of_processes_leaves_no_process_behind():
    # the wrapper adopts the probe's orphans, so a helper the probe left
    # running (or unwaited for) shows up as the wrapper's child
    code = (
        "import subprocess, sys\n"
        "from common import _children, adopt_orphans\n"
        "adopt_orphans()\n"
        "subprocess.run([sys.executable, 'probe.py', 'serve-processes-unique'], check=True)\n"
        "print('left', len(_children()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ready", "left 0"]
