"""The course job: five experiments on the sim backend, traced.

One job runs ``EXPERIMENTS`` on the sim backend under a ``TraceRecorder``
and analyses each trace, as ``python -m repro analyze`` does: simkernel,
ptask/pyjama, obs.trace and obs.analyze do the work, serve and the real
pools do none.  Every report must equal the committed
``benchmarks/reports/<exp>.txt``.

The job is timed in every traced run for the per-layer metrics.  It is
not an end-to-end workload: as pure single-threaded Python its wall time
follows the host's speed, which on a small shared host switches between
regimes about 1.4x apart for tens of seconds at a time, so whole runs
land in one regime or the other (see README.md).
"""

from __future__ import annotations

import random
import time

import repro.bench as bench
from repro.obs import TraceRecorder, analyze_trace, render_text, use

from common import ROOT, Outcome
from spans import SpanRecorder

EXPERIMENTS = ("proj1", "proj2", "proj4", "abl_amdahl", "abl_sched")
REPORTS = ROOT / "benchmarks" / "reports"


def committed_reports() -> dict[str, str]:
    return {e: (REPORTS / f"{e}.txt").read_text() for e in EXPERIMENTS}


def run_experiment(exp_id: str, spans: SpanRecorder) -> tuple[str, int, str]:
    """Run one experiment traced and analyse its trace, as ``python -m
    repro analyze`` does; returns (report, trace events, analysis text).

    The steps are those of ``Experiment.__call__`` with the analysis
    split out, so the traced run can time each layer on its own."""
    exp = bench.get_experiment(exp_id)
    recorder = TraceRecorder()
    with spans.span(f"bench.{exp_id}"):
        with use(recorder), recorder.span("experiment", exp_id):
            result = exp.run()
        events = recorder.events()
        with spans.span("obs.analyze"):
            analysis = analyze_trace(events, metrics=recorder.metrics.snapshot())
        with spans.span("obs.report"):
            text = render_text(analysis)
    return result.render() + "\n", len(events), text


def run_job(seed: int, reports: dict[str, str], spans: SpanRecorder) -> tuple[float, Outcome, int]:
    """Run one job, the experiments in an order permuted by ``seed`` (the
    reports do not depend on it); returns its wall seconds, its outcome
    and the trace events it recorded."""
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    out = Outcome()
    events = 0
    t0 = time.perf_counter()
    with spans.span("course.job"):
        for exp_id in order:
            report, n, text = run_experiment(exp_id, spans)
            events += n
            out.attempted += 1
            if report != reports[exp_id] or not text:
                out.failed += 1
                out.wrong += 1
    return time.perf_counter() - t0, out, events
