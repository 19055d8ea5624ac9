"""Benchmark entry point: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metric names and units come from ``BENCHMARK.json`` at the
checkout root (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it runs the workload for half the time untraced
and half under the benchmark's own spans, then the course job and the
per-layer cells, and reports the per-layer metrics and the tracing
overhead.

Stdout ends with a provenance line and then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable table goes to stderr.  Exit code 2 means there is nothing to
measure (no program in this checkout) or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

from common import (
    OUT,
    ROOT,
    Outcome,
    adopt_orphans,
    end_children,
    median,
    provenance,
    require_program,
    reset_rss_peak,
    spin_ms,
    use_checkout_tmp,
)
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent

#: set-up cycles before each serve stack is built; ``setup_s`` is the
#: median of all of them, spread over the run
SETUP_CYCLES_PER_STACK = 3
SETUP_TIMEOUT_S = 120.0
#: traced course jobs after the warm-up job; their medians are reported
COURSE_JOBS = 3

#: metric names and units, with tracing off (end to end) and on (per layer)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "latency_p99_ms": "end-to-end, moved here: it does not repeat within a tenth on processes",
    "serve.gateway.submit_us_p50": "throughput_rps on serve-threads-skewed",
    "serve.gateway.wait_us_p50": "latency_p50_ms on serve-processes-unique",
    "serve.admission.shed": "must stay 0: every shed request is a failure",
    "serve.cache.hit_ratio": "throughput_rps on serve-threads-skewed",
    "serve.cache.evictions_per_req": "throughput_rps on serve-threads-skewed",
    "serve.batching.batch_size_mean": "throughput_rps on serve-processes-unique",
    "executor.threads.noop_rtt_us": "latency_p99_ms on serve-threads-skewed",
    "executor.threads.batch_us_per_task": "latency_p99_ms on serve-threads-skewed",
    "executor.processes.noop_rtt_us": "throughput_rps, latency_p50_ms on serve-processes-unique",
    "executor.processes.batch_us_per_task": "throughput_rps, latency_p50_ms on serve-processes-unique",
    "executor.processes.start_s": "setup_s on serve-processes-unique",
    "ladder.gateway_threads_rtt_us": "throughput_rps on serve-threads-skewed",
    "ladder.gateway_processes_rtt_us": "throughput_rps on serve-processes-unique",
    "ladder.gateway_over_threads": "base: executor.threads.noop_rtt_us",
    "ladder.processes_over_threads": "base: executor.threads.noop_rtt_us",
    "course.job_s": "the course job's own time (not an end-to-end workload)",
    **{
        name: "course.job_s"
        for name in (
            "simkernel.step_us", "ptask.spawn_join_us", "obs.trace.emit_ns",
            "obs.trace.events_per_job", "obs.analyze.s_per_job",
            *(f"bench.{exp}.s" for exp in ("proj1", "proj2", "proj4", "abl_amdahl", "abl_sched")),
        )
    },
    "trace.overhead_pct": "throughput_rps of the untraced half over the traced half, minus 1",
    "host.spin_ms": "none: host calibration, slow neighbours show here",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


# -- set-up cycles -------------------------------------------------------------


class SetupCycles:
    """Fresh-interpreter set-up cycles of a workload (see probe.py): import,
    stack start-up and the first completed request.  Each call runs
    ``SETUP_CYCLES_PER_STACK`` of them and keeps their wall seconds."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.times: list[float] = []
        self.out = Outcome()

    def __call__(self) -> None:
        for _ in range(SETUP_CYCLES_PER_STACK):
            self.out.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), self.workload],
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
            )
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline().strip()
                dt = time.perf_counter() - t0
                proc.communicate()
            finally:
                watchdog.cancel()
            if line == "ready" and proc.returncode == 0:
                self.times.append(dt)
            else:
                self.out.failed += 1
                self.out.wrong += line == "wrong"

    def median(self) -> float:
        if not self.times:
            raise RuntimeError(f"no set-up cycle of {self.workload} completed")
        return median(self.times)


# -- runs ----------------------------------------------------------------------


def serve_run(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    before_stack: Callable[[], None] = lambda: None,
) -> tuple[dict, Outcome, SpanRecorder]:
    from serveload import SEGMENTS, serve_inputs, serve_window

    inputs = serve_inputs(workload, seed)
    reset_rss_peak()
    spans = SpanRecorder(enabled=traced)
    if not traced:
        blocks, out, _, rss, _ = serve_window(
            workload, inputs, seconds, SEGMENTS, 0, spans, before_stack
        )
        metrics = {**blocks.metrics(), "rss_peak_mb": rss}
    else:
        half = SEGMENTS // 2
        plain, out, d0, _, nxt = serve_window(
            workload, inputs, seconds / 2, half, 0, SpanRecorder(enabled=False)
        )
        blocks, out1, d, _, _ = serve_window(workload, inputs, seconds / 2, half, nxt, spans)
        out.add(out1)
        lookups = d["hits"] + d["misses"] + d["coalesced"]
        metrics = {
            "latency_p99_ms": plain.metrics()["latency_p99_ms"],
            "serve.gateway.submit_us_p50": median(spans.durations("serve.gateway.submit")) * 1e6,
            "serve.gateway.wait_us_p50": median(spans.durations("serve.gateway.wait")) * 1e6,
            "serve.admission.shed": d0["shed"] + d["shed"],
            "serve.cache.hit_ratio": (d["hits"] + d["coalesced"]) / lookups,
            "serve.cache.evictions_per_req": d["evictions"] / d["submitted"],
            "serve.batching.batch_size_mean": (d["admitted"] - d["hits"] - d["coalesced"]) / d["batches"],
            "trace.overhead_pct": 100.0
            * (plain.metrics()["throughput_rps"] / blocks.metrics()["throughput_rps"] - 1.0),
        }
    return metrics, out, spans


def course_cell(seed: int, spans: SpanRecorder, jobs: int = COURSE_JOBS) -> tuple[dict, Outcome]:
    """One untraced warm-up course job, then ``jobs`` traced jobs; every
    value is the median over the traced jobs."""
    from coursejob import EXPERIMENTS, committed_reports, run_job

    reports = committed_reports()
    _, out, _ = run_job(seed, reports, SpanRecorder(enabled=False))
    job_s, events = [], []
    for j in range(1, jobs + 1):
        s, o, n = run_job(seed + j, reports, spans)
        job_s.append(s)
        events.append(n)
        out.add(o)
    metrics = {
        "course.job_s": median(job_s),
        "obs.trace.events_per_job": median(events),
        "obs.analyze.s_per_job": median(spans.sums_per("course.job", "obs.analyze")),
        **{f"bench.{e}.s": median(spans.self_times(f"bench.{e}")) for e in EXPERIMENTS},
    }
    return metrics, out


# -- reporting -----------------------------------------------------------------


def _report(prov: dict, metrics: dict, out: Outcome, traced: bool) -> None:
    err = sys.stderr
    print(f"perfbench {prov['workload']} seed={prov['seed']} trace={int(traced)} "
          f"nproc={prov['nproc']} python={prov['python']} host.spin_ms={prov['host.spin_ms']:.2f}",
          file=err)
    print(f"  {prov['platform']}", file=err)
    print(f"  attempted={out.attempted} failed={out.failed} wrong={out.wrong}", file=err)
    for name, value in metrics.items():
        unit = value["unit"]
        moves = f"  -> {MOVES[name]}" if traced else ""
        print(f"  {name:38s} {value['value']:>14.6g} {unit:9s}{moves}", file=err)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_program()
    use_checkout_tmp()
    adopt_orphans()
    try:
        return measure(args)
    finally:
        end_children()


def measure(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    prov = provenance(args.workload, args.seed, traced)
    spin_before = spin_ms()

    if traced:
        from layers import cells

        values, out, spans = serve_run(args.workload, args.seed, args.seconds, traced)
        course, course_out = course_cell(args.seed, spans)
        values.update(course)
        out.add(course_out)
        values.update(cells())
        spans.write(OUT / f"spans-{args.workload}.csv")
    else:
        setup = SetupCycles(args.workload)
        values, out, _ = serve_run(args.workload, args.seed, args.seconds, traced, setup)
        values["setup_s"] = setup.median()
        out.add(setup.out)
    prov["host.spin_ms"] = values["host.spin_ms"] = median([spin_before, spin_ms()])

    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    _report(prov, metrics, out, traced)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
