"""Per-layer cells: each times one layer's public calls from outside.

The ladder sends a no-op through ``executor.threads``, through
``executor.processes``, and through a ``Gateway`` over each, so a gain
can be placed on a rung.  The remaining cells time the layers the course
job rests on: the sim kernel, ptask spawn/join and the trace recorder.
Every value is the median over fixed-size windows after warm-up windows.
"""

from __future__ import annotations

import time
from typing import Any, Generator

from repro.executor import create
from repro.obs import TraceRecorder
from repro.ptask import ParallelTaskRuntime
from repro.serve import BatchPolicy, Completed, Gateway
from repro.simkernel import Simulator

from common import CORES, median, per_op, windowed

WINDOWS = 11


def noop() -> None:
    """The no-op request (module-level, so worker processes can import it)."""


def _rtt(executor: Any, n: int) -> float:
    """Seconds of one serial ``submit`` + ``result``."""
    submit = executor.submit

    def op(n: int) -> None:
        for _ in range(n):
            submit(noop).result()

    return windowed(lambda: per_op(op, n), WINDOWS)


def _batch_per_task(executor: Any, n: int) -> float:
    """Seconds per task of one ``submit_many`` of ``n`` and its results."""

    def op(n: int) -> None:
        for future in executor.submit_many(noop, [()] * n):
            future.result()

    return windowed(lambda: per_op(op, n), WINDOWS)


def _gateway_rtt(executor: Any, n: int) -> float:
    """Seconds of one serial request through a ``Gateway`` with no cache
    and single-request batches (each is dispatched inside ``submit``)."""
    gw = Gateway(executor, batching=BatchPolicy(max_size=1, max_delay=0.0))

    def op(n: int) -> None:
        for _ in range(n):
            resp = gw.result(gw.submit(noop, key=None), timeout=10.0)
            if type(resp) is not Completed:
                raise RuntimeError(f"ladder no-op request did not complete: {resp!r}")

    try:
        return windowed(lambda: per_op(op, n), WINDOWS)
    finally:
        gw.shutdown()


def processes_start_s(reps: int = 3) -> float:
    """Median seconds from ``create("processes")`` to the first result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        executor = create("processes", cores=CORES)
        try:
            executor.submit(noop).result(timeout=60.0)
            times.append(time.perf_counter() - t0)
        finally:
            executor.shutdown()
    return median(times)


def ladder() -> dict[str, float]:
    """The no-op ladder; both ratios are over ``executor.threads.noop_rtt_us``."""
    out: dict[str, float] = {}
    for kind, rtt_n, batch_n in (("threads", 2000, 4096), ("processes", 200, 1024)):
        executor = create(kind, cores=CORES)
        try:
            out[f"executor.{kind}.noop_rtt_us"] = _rtt(executor, rtt_n) * 1e6
            out[f"executor.{kind}.batch_us_per_task"] = _batch_per_task(executor, batch_n) * 1e6
            out[f"ladder.gateway_{kind}_rtt_us"] = _gateway_rtt(executor, rtt_n // 2) * 1e6
        finally:
            executor.shutdown()
    base = out["executor.threads.noop_rtt_us"]
    out["ladder.gateway_over_threads"] = out["ladder.gateway_threads_rtt_us"] / base
    out["ladder.processes_over_threads"] = out["executor.processes.noop_rtt_us"] / base
    out["executor.processes.start_s"] = processes_start_s()
    return out


def _sim_process_set(procs: int = 200, phases: int = 10) -> Simulator:
    """A fixed process set: sleeps, waits on shared gates and joins."""
    sim = Simulator()
    gates = [sim.event(name=f"gate{p}") for p in range(phases)]

    def coordinator() -> Generator[Any, Any, None]:
        for gate in gates:
            yield 1.0
            gate.fire()

    def worker(i: int) -> Generator[Any, Any, int]:
        for gate in gates:
            yield 0.25 + (i % 7) * 0.01
            yield gate
        return i

    workers = [sim.spawn(worker(i), name=f"w{i}") for i in range(procs)]

    def joiner(partner: Any) -> Generator[Any, Any, None]:
        yield partner

    for w in workers[::2]:
        sim.spawn(joiner(w), name="join")
    sim.spawn(coordinator(), name="coord")
    return sim


def _sim_step() -> float:
    sim = _sim_process_set()
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / sim.steps


def _ptask_spawn_join(n: int = 500) -> float:
    runtime = ParallelTaskRuntime(create("sim", cores=CORES))
    return per_op(lambda n: [runtime.spawn(noop).result() for _ in range(n)], n)


def _trace_emit(n: int = 20_000) -> float:
    event = TraceRecorder().event

    def op(n: int) -> None:
        for j in range(n):
            event("task", "bench", task_id=j, worker=j & 1)

    return per_op(op, n)


def cells() -> dict[str, float]:
    """Every per-layer cell, keyed by its metric name."""
    out = ladder()
    out["simkernel.step_us"] = windowed(_sim_step, WINDOWS) * 1e6
    out["ptask.spawn_join_us"] = windowed(_ptask_spawn_join, WINDOWS) * 1e6
    out["obs.trace.emit_ns"] = windowed(_trace_emit, WINDOWS) * 1e9
    return out
