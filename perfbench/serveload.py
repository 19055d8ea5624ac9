"""The workloads: two closed-loop serving mixes.

serve-threads-skewed
    ``Gateway`` over ``create("threads", cores=2)`` with an
    ``LRUTTLCache``.  Keys are skewed over a keyspace twelve times the
    cache capacity, so about 30% of requests hit: hits, misses with
    inserts and evictions, batching and the threads pool all carry load.
    The hit share is kept well below 1 on purpose: hits resolve inside
    ``submit``, so an almost-all-hit mix measures the handoff between the
    client and dispatcher threads, not the layers below the cache.
serve-processes-unique
    The same loop over ``create("processes", cores=2)`` with every key
    unique: every request misses, inserts, evicts and crosses the process
    boundary in full batches.  A cache-hit optimisation predicts no
    change here.

A measured window is split over ``SEGMENTS`` freshly built stacks, each
warmed up before its blocks count.  Load comes from one client thread
that keeps ``WINDOW`` tickets outstanding (a closed loop).  The window is
wide enough that every batch fills to ``max_size`` before the
``max_delay`` timer fires; with a narrow window the loop measures the
batch timer, not the code.
"""

from __future__ import annotations

import multiprocessing
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.executor import create
from repro.serve import AdmissionPolicy, BatchPolicy, Completed, Gateway, LRUTTLCache
from repro.serve.loadgen import KINDS

from common import CORES, Outcome, median, nearest_rank, rss_peak_mb
from spans import SpanRecorder

SERVE_BACKENDS = {
    "serve-threads-skewed": ("threads", False),
    "serve-processes-unique": ("processes", True),
}

KIND_NAMES = tuple(KINDS)
BODIES = tuple(KINDS[k][0] for k in KIND_NAMES)

WINDOW = 64  # outstanding tickets kept by the client
BLOCK = 8192  # completions per measured block
WARMUP_BLOCKS = 1  # blocks run and discarded before measuring, per stack
#: fresh stacks per measured window: one pool's process and thread placement
#: on the cores persists for its life and moves its throughput by up to a
#: tenth, so a window is spread over several pools
SEGMENTS = 6
CACHE_CAPACITY = 4096
KEYSPACE = 16384  # keys per kind: 3 kinds x 16384 = 12x the cache capacity
SKEW = 3.0  # key = floor(KEYSPACE * u**SKEW): about 30% of requests hit
INPUT_LEN = 1 << 20  # generated requests, replayed cyclically
INPUT_CHUNK = 1 << 14
TIMEOUT_S = 10.0
BATCHING = BatchPolicy(max_size=8, max_delay=0.002)
#: no rate limit, and a queue bound far above the client window: nothing sheds
ADMISSION = AdmissionPolicy(rate=None, max_queue=16 * WINDOW)


@dataclass
class Blocks:
    """Per-block wall times and within-block latency percentiles (s)."""

    completions: int
    durations: list[float] = field(default_factory=list)
    p50s: list[float] = field(default_factory=list)
    p99s: list[float] = field(default_factory=list)

    def extend(self, other: "Blocks") -> None:
        self.durations += other.durations
        self.p50s += other.p50s
        self.p99s += other.p99s

    def metrics(self) -> dict[str, float]:
        return {
            "throughput_rps": median([self.completions / d for d in self.durations]),
            "latency_p50_ms": median(self.p50s) * 1e3,
            "latency_p99_ms": median(self.p99s) * 1e3,
        }


@dataclass
class ServeInputs:
    kinds: bytes  # kind index per request
    keys: array | None  # skewed keys, or None for unique keys from ``base``
    base: int


def serve_inputs(workload: str, seed: int) -> ServeInputs:
    """Requests made from ``seed`` alone: kind mix from ``KINDS`` weights,
    keys either skewed over ``KEYSPACE`` or unique.  They are drawn in
    chunks straight into compact arrays, so drawing them leaves no peak
    of temporaries above what is kept."""
    _, unique = SERVE_BACKENDS[workload]
    rng = np.random.default_rng([seed, 751])
    weights = np.array([KINDS[k][2] for k in KIND_NAMES])
    p = weights / weights.sum()
    kinds = bytearray()
    keys = None if unique else array("H")
    for _ in range(INPUT_LEN // INPUT_CHUNK):
        kinds += rng.choice(len(KIND_NAMES), size=INPUT_CHUNK, p=p).astype(np.int8).tobytes()
        if keys is not None:
            chunk = (KEYSPACE * rng.random(INPUT_CHUNK) ** SKEW).astype(np.uint16)
            keys.frombytes(np.minimum(chunk, KEYSPACE - 1).tobytes())
    base = int(rng.integers(1 << 20, 1 << 40)) if unique else 0
    return ServeInputs(bytes(kinds), keys, base)


class ServeStack:
    """Executor + cache + gateway for one serve workload."""

    def __init__(self, workload: str) -> None:
        backend, _ = SERVE_BACKENDS[workload]
        self.executor = create(backend, cores=CORES)
        self.cache = LRUTTLCache(CACHE_CAPACITY)
        self.gateway = Gateway(
            self.executor, admission=ADMISSION, batching=BATCHING, cache=self.cache
        )

    def counters(self) -> dict[str, int]:
        g, c = self.gateway.stats, self.cache.stats
        return {
            "submitted": g.submitted,
            "admitted": g.admitted,
            "batches": g.batches,
            "shed": g.shed_total,
            "hits": c.hits,
            "misses": c.misses,
            "coalesced": c.coalesced,
            "evictions": c.evictions,
        }

    def close(self) -> None:
        self.gateway.shutdown()
        self.executor.shutdown()


@dataclass
class ServeRecords:
    """Every completed request, kept compactly for checking after the run."""

    kinds: array = field(default_factory=lambda: array("b"))
    keys: array = field(default_factory=lambda: array("q"))
    values: array = field(default_factory=lambda: array("I"))


def serve_pass(
    stack: ServeStack,
    inputs: ServeInputs,
    seconds: float,
    start: int,
    records: ServeRecords,
    spans: SpanRecorder,
) -> tuple[Blocks, Outcome, int]:
    """Run the closed loop for ``seconds`` of measured blocks after the
    warm-up blocks; returns the blocks, the outcome and the next input
    index.

    A request's latency is timed here, from just before ``submit`` to the
    return of ``Gateway.result``: the time the client waits for its
    response.  The gateway's own ``Completed.latency`` stamp only serves
    as a cross-check: it lies inside that interval, on the same monotonic
    clock.  ``spans`` records ``Gateway.submit`` and the client's wait in
    ``Gateway.result`` for every request."""
    gw = stack.gateway
    submit, result = gw.submit, gw.result
    kinds, keys, base = inputs.kinds, inputs.keys, inputs.base
    n = len(kinds)
    perf = time.perf_counter
    traced = spans.enabled
    i = start

    def send() -> tuple:
        nonlocal i
        j = i % n
        k = kinds[j]
        key = keys[j] if keys is not None else base + i
        i += 1
        t0 = perf()
        ticket = submit(BODIES[k], key, task=KIND_NAMES[k])
        if traced:
            spans.add("serve.gateway.submit", t0, perf(), root)
        return ticket, k, key, t0

    out = Outcome()
    latencies = array("d")
    rk, rkey, rval = records.kinds, records.keys, records.values
    marks: list[float] = []
    warmup = WARMUP_BLOCKS * BLOCK
    deadline = float("inf")
    stopped = False
    with spans.span("serve.pass") as root:
        pending = deque(send() for _ in range(WINDOW))
        while pending:
            ticket, k, key, t_submit = pending.popleft()
            t0 = perf()
            try:
                resp = result(ticket, TIMEOUT_S)
            except TimeoutError:
                resp = None
            t1 = perf()
            if traced:
                spans.add("serve.gateway.wait", t0, t1, root)
            out.attempted += 1
            ok = False
            if type(resp) is Completed:
                value = resp.value
                # every body returns a 32-bit unsigned int; anything else is
                # wrong, and so is a gateway latency longer than the wait
                ok = (
                    type(value) is int
                    and 0 <= value <= 0xFFFFFFFF
                    and 0.0 <= resp.latency <= t1 - t_submit
                )
                if ok:
                    latencies.append(t1 - t_submit)
                    rk.append(k)
                    rkey.append(key)
                    rval.append(value)
                else:
                    out.wrong += 1
            if not ok:  # Failed, Rejected, a timeout or a malformed response
                out.failed += 1
                latencies.append(float("nan"))
            done = out.attempted
            if not stopped and done >= warmup and (done - warmup) % BLOCK == 0:
                now = perf()
                marks.append(now)
                if len(marks) == 1:
                    deadline = now + seconds
                stopped = now >= deadline
            if not stopped:
                pending.append(send())
    blocks = Blocks(BLOCK)
    for b in range(len(marks) - 1):
        blocks.durations.append(marks[b + 1] - marks[b])
        lo = warmup + b * BLOCK
        window = sorted(x for x in latencies[lo : lo + BLOCK] if x == x)
        blocks.p50s.append(nearest_rank(window, 0.50))
        blocks.p99s.append(nearest_rank(window, 0.99))
    return blocks, out, i


def serve_window(
    workload: str,
    inputs: ServeInputs,
    seconds: float,
    segments: int,
    start: int,
    spans: SpanRecorder,
    before_stack: Callable[[], None] = lambda: None,
) -> tuple[Blocks, Outcome, dict[str, int], float, int]:
    """Measure ``seconds`` of blocks spread over ``segments`` fresh stacks,
    checking each stack's outputs after it is shut down.  ``before_stack``
    runs before each stack is built, outside the timed blocks.

    Returns the pooled blocks, the outcome, the stacks' summed counters,
    the peak RSS (MB) of this process plus a stack's workers, and the next
    input index."""
    blocks, out = Blocks(BLOCK), Outcome()
    counters: dict[str, int] = {}
    rss = 0.0
    for _ in range(segments):
        before_stack()
        records = ServeRecords()
        stack = ServeStack(workload)
        try:
            b, o, start = serve_pass(stack, inputs, seconds / segments, start, records, spans)
            workers = [p.pid for p in multiprocessing.active_children() if p.pid is not None]
            rss = max(rss, rss_peak_mb(workers))
            for name, value in stack.counters().items():
                counters[name] = counters.get(name, 0) + value
        finally:
            stack.close()
        wrong = check_serve(records)
        o.wrong += wrong
        o.failed += wrong
        blocks.extend(b)
        out.add(o)
    return blocks, out, counters, rss, start


def check_serve(records: ServeRecords) -> int:
    """Recompute every completed value from its key; returns the number
    of wrong values."""
    return sum(
        value != BODIES[k](key)
        for k, key, value in zip(records.kinds, records.keys, records.values)
    )
