"""The submission gateway: one front door over any executor backend.

``Gateway.submit()`` is the serving analogue of ``Executor.submit()``:
it admits (or sheds), consults the memoizing cache, micro-batches, and
dispatches to the wrapped executor, resolving each request's
:class:`~repro.serve.requests.Ticket` with a typed response.  The same
client code runs identically over every backend.

Every request follows one lifecycle, each step written once:

* **admit** — ``submit`` sheds with a typed ``Rejected`` or admits;
* **cache** — ``_cache_locked``: a hit resolves at once, a request for
  a key already in flight joins that key's coalesced followers
  (``_waiters``), a miss leads;
* **batch** — the :class:`~repro.serve.batching.MicroBatcher` groups
  leaders by kind until a batch fills or ages out;
* **dispatch** — ``_prepare_locked`` rejects cancelled and overdue
  requests, then the batch runs;
* **resolve** — ``_deliver_locked`` stores or fails the key in the
  cache, resolves its followers, then resolves the request.

Only *dispatch* depends on the backend's clock discipline, which the
gateway derives from the executor (:func:`runs_driven`):

* **driven** (inline/sim, virtual time) — the gateway owns a
  :class:`~repro.util.stopwatch.ManualClock` and a service-time model
  (``executor.cores`` servers, earliest-free assignment), so a seeded
  arrival trace yields byte-identical latency/shed/hit numbers on every
  run.  Work still *executes* eagerly at dispatch (real values come
  back); only time is modeled, and completions are delivered when the
  clock reaches them.
* **thread** (threads/processes, wall time) — a dispatcher thread ages
  out open batches on the real clock, ``_send`` hands batches to the
  executor and completions arrive via future callbacks; latency is
  measured wall time.

Overload can only shed, never block: ``submit`` returns a resolved
``Rejected`` ticket instead of queueing past the admission limits, and
``shutdown(drain=False)`` resolves every queued-but-undispatched
request with ``Rejected("shutdown")`` — the serving mirror of the
executor's ``ExecutorShutdown`` stranded-future guarantee.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.executor.base import Executor, ExecutorShutdown
from repro.executor.future import Future
from repro.executor.inline import InlineExecutor
from repro.executor.simulated import SimExecutor
from repro.obs.rtrace import RequestTrace, RequestTraceCollector
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.resilience.cancel import CancelToken
from repro.resilience.retry import RetryPolicy
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batching import (
    Batch,
    BatchPolicy,
    MicroBatcher,
    run_batch,
    run_batch_timed,
)
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.requests import (
    Completed,
    Failed,
    Rejected,
    Response,
    Ticket,
    Uncacheable,
    canonical_key,
)
from repro.util.stopwatch import Clock, ManualClock, WallClock

__all__ = ["Gateway", "GatewayStats", "runs_driven"]

_AUTO = object()  # sentinel: derive the cache key from (task, args, kwargs)

#: no backoff sleeps inside the gateway — retries are immediate, so the
#: driven mode stays a pure function of the arrival trace
_DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


def runs_driven(executor: Executor) -> bool:
    """True for the eager virtual-time backends (inline, sim), which a
    gateway drives on a modeled clock; real pools run in thread mode."""
    return isinstance(executor, (InlineExecutor, SimExecutor))


@dataclass
class GatewayStats:
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    batches: int = 0
    shed: dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


@dataclass
class _Request:
    ticket: Ticket
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict
    task: str
    cost: float
    key: str | None
    arrival: float
    deadline: float | None
    cancel: CancelToken | None
    #: per-request stage clock; None when request tracing is off
    rt: RequestTrace | None = None


#: a batch ready to run: its surviving requests and its label
#: ``"<gateway>:<kind>[<size>]"``, which names the batch's executor
#: task and its retry events in both modes
_Prepared = tuple[list[_Request], str]


class Gateway:
    """Serving front door over an :class:`~repro.executor.base.Executor`.

    The gateway *uses* the executor but does not own it: ``shutdown()``
    releases gateway resources only, and the caller remains responsible
    for ``executor.shutdown()``.  ``mode`` is ``"driven"`` on the eager
    virtual-time backends (inline, sim) and ``"thread"`` otherwise.  The
    gateway holds the coalesced followers of its in-flight keys, so a
    cache serves one gateway.
    """

    def __init__(
        self,
        executor: Executor,
        *,
        admission: AdmissionPolicy | None = None,
        batching: BatchPolicy | None = None,
        cache: LRUTTLCache | ModeledCache | None = None,
        retry: RetryPolicy | None = None,
        dispatch_overhead: float = 0.0,
        trace: TraceRecorder | None = None,
        rtrace: RequestTraceCollector | None = None,
        name: str = "serve",
    ) -> None:
        driven = runs_driven(executor)
        self.executor = executor
        self.mode = "driven" if driven else "thread"
        self.clock: Clock = ManualClock() if driven else WallClock()
        self.cache = cache
        self.retry = retry or _DEFAULT_RETRY
        self.dispatch_overhead = dispatch_overhead
        self.trace = resolve_recorder(trace)
        self.rtrace = rtrace
        # thread mode measures execution where it runs: batches go
        # through run_batch_timed and workers are told to emit
        # per-request shard spans (no-op on backends without pipes)
        self._timed = rtrace is not None and not driven
        self.name = name
        self.stats = GatewayStats()
        self._admission = AdmissionController(admission, now=self.clock.now())
        self._batcher = MicroBatcher(batching)
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._next_id = 0
        self._depth = 0  # admitted-but-unresolved requests
        self._shut = False
        # driven mode: per-core earliest-free times + pending completions
        # (finish, seq, request, status, value, batch size, attempts)
        self._core_free = [self.clock.now()] * max(1, executor.cores)
        self._completions: list[tuple] = []
        self._seq = 0
        # key -> coalesced followers waiting on the key's in-flight leader
        self._waiters: dict[str, list[_Request]] = {}
        # unresolved admitted requests (drain waits on these)
        self._live: dict[int, _Request] = {}
        self._dispatcher: threading.Thread | None = None
        if self._timed:
            self.executor.signal("serve.rtrace", True)
        if not driven:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name=f"{name}-dispatcher", daemon=True
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------ API

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        task: str | None = None,
        cost: float = 0.0,
        key: Any = _AUTO,
        deadline: float | None = None,
        cancel: CancelToken | None = None,
        **kwargs: Any,
    ) -> Ticket:
        """Submit one request; never blocks, never raises for overload.

        ``task`` names the request kind (batching groups by it; defaults
        to the function name).  ``cost`` is the declared service cost in
        reference-seconds — it drives the latency model in driven mode
        and is ignored on real backends.  ``key`` controls memoization:
        the default derives a canonical key from the arguments, ``None``
        bypasses the cache, a string is used verbatim.  ``deadline`` is
        seconds from arrival the request must be *dispatched* within
        (the same start-by contract as ``Executor.submit``).
        """
        kind = task or getattr(fn, "__name__", "request")
        with self._lock:
            now = self.clock.now()
            if self.mode == "driven":
                self._advance_locked(now)
            self._next_id += 1
            ticket = Ticket(self._next_id, kind)
            self.stats.submitted += 1
            self.trace.count("serve.submitted")
            if self._shut:
                return self._shed(ticket, "shutdown", "gateway is shut down", now)
            reason = self._admission.decide(now, self._depth)
            if reason is not None:
                detail = (
                    f"queue depth {self._depth} at limit"
                    if reason == "queue"
                    else "rate limit exceeded"
                )
                return self._shed(ticket, reason, detail, now)
            self.stats.admitted += 1
            self.trace.count("serve.admitted")
            rt = None
            if self.rtrace is not None:
                # admitted requests get a stage clock; admission itself
                # is instantaneous from the request's point of view
                rt = self.rtrace.begin(self._next_id, kind, now)
                rt.mark("admit", now)
            if key is _AUTO:
                if self.cache is None:
                    key = None
                else:
                    try:
                        key = canonical_key(kind, args, kwargs)
                    except Uncacheable:
                        key = None
            ticket.key = key
            req = _Request(
                ticket, fn, args, dict(kwargs), kind, cost, key, now, deadline, cancel,
                rt=rt,
            )
            self._depth += 1
            self._live[ticket.request_id] = req
            if key is not None and self.cache is not None:
                if self._cache_locked(req, now):
                    return ticket
            elif rt is not None:
                # no cacheable key: the lookup segment is zero-width
                rt.mark("cache", now)
            self.trace.set_gauge("serve.queue_depth", self._depth)
            batch = self._batcher.add(req, now)
            if batch is not None:
                self._dispatch_locked([batch], now)
            elif self.mode == "thread":
                self._wake.notify_all()
        return ticket

    def result(self, ticket: Ticket, timeout: float | None = None) -> Response:
        """Resolve ``ticket`` to its :class:`Response`.

        In driven mode an unresolved ticket means its batch has not been
        dispatched or its virtual completion time not reached — the
        gateway drains to resolve it.  In thread mode this blocks (up to
        ``timeout``) like ``Future.result``.
        """
        if not ticket.done() and self.mode == "driven":
            self.drain()
        return ticket.response(timeout)

    def pump(self, now: float | None = None) -> None:
        """Driven mode: advance to ``now`` (default: current clock),
        dispatching due batches and delivering due completions.  Thread
        mode does this continuously on its dispatcher thread, so there
        pumping is a no-op."""
        if self.mode != "driven":
            return
        with self._lock:
            if now is not None and now > self.clock.now():
                self.clock.advance_to(now)  # type: ignore[attr-defined]
            self._advance_locked(self.clock.now())

    def drain(self) -> float:
        """Flush open batches and deliver everything in flight.

        Driven mode advances the virtual clock to the last completion
        and returns it; thread mode blocks until live requests resolve
        and returns the wall clock.  The gateway stays open.
        """
        with self._wake:
            now = self.clock.now()
            if self.mode == "driven":
                self._advance_locked(now)
            flushed = sorted(self._batcher.flush(), key=lambda b: b.opened_at)
            self._dispatch_locked(flushed, now)
            if self.mode == "driven":
                end = max((c[0] for c in self._completions), default=now)
                if end > now:
                    self.clock.advance_to(end)  # type: ignore[attr-defined]
                self._advance_locked(end)
                return end
            self._wake.notify_all()
        while True:
            with self._lock:
                live = list(self._live.values())
            if not live:
                return self.clock.now()
            for req in live:
                req.ticket.response(timeout=30.0)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting requests; idempotent.

        ``drain=True`` flushes and delivers queued work first.
        ``drain=False`` resolves every queued-but-undispatched request
        (and any coalesced follower of one) with ``Rejected("shutdown")``
        so no client waits forever — batches already handed to the
        executor still complete via their callbacks.
        """
        with self._lock:
            if self._shut:
                return
            self._shut = True
            if not drain:
                now = self.clock.now()
                for batch in self._batcher.flush():
                    for req in batch.requests:
                        self._reject_locked(
                            req, "shutdown", "gateway shut down before dispatch", now
                        )
                # driven mode: completed-but-undelivered work is real
                # results — deliver it rather than discarding
                self._complete_until_locked(math.inf)
            self._wake.notify_all()
        if drain:
            self.drain()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    # ------------------------------------------------------ admit and cache

    def _shed(self, ticket: Ticket, reason: str, detail: str, now: float) -> Ticket:
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        self.trace.count("serve.shed")
        if self.rtrace is not None:
            self.rtrace.shed(now)
        ticket._resolve(Rejected(reason, detail))
        return ticket

    def _cache_locked(self, req: _Request, now: float) -> bool:
        """Consult the cache; True if the request is fully handled here
        (hit, coalesced follower, or modeled warm key), False if it
        leads and goes on to be batched."""
        assert self.cache is not None and req.key is not None
        decision = self.cache.begin(req.key, now)
        if decision.status == "wait":
            self.trace.count("serve.cache_coalesced")
            self._waiters.setdefault(req.key, []).append(req)
            return True
        if decision.status == "lead" and decision.charge:
            self.trace.count("serve.cache_misses")
            if req.rt is not None:
                # miss: the lookup itself is instantaneous on the stage clock
                req.rt.mark("cache", now)
            return False
        # A hit, or a modeled warm key (sim) served as one: the body of a
        # warm key still runs once so the client gets a real value, but
        # at zero service cost and without occupying the queue.
        self.trace.count("serve.cache_hits")
        if req.rt is not None:
            req.rt.mark("cache", now)
            req.rt.mark("resolve", now)
        value = decision.value
        if decision.status == "lead":
            try:
                value = req.fn(*req.args, **req.kwargs)
            except Exception as exc:  # noqa: BLE001 — failures become responses
                self._deliver_locked(req, "err", exc, now)
                return True
            self.cache.complete(req.key, value, now)
        self._resolve_locked(req, Completed(value, latency=0.0, cached=True))
        return True

    # ---------------------------------------------------- batch and dispatch

    def _dispatch_locked(self, batches: list[Batch], now: float) -> None:
        """Dispatch closed batches at ``now``: eagerly on the modeled
        cores in driven mode, through :meth:`_send` in thread mode."""
        prepared = self._prepare_locked(batches, now)
        if self.mode == "thread":
            self._send(prepared)
            return
        for survivors, label in prepared:
            self._run_driven_locked(survivors, label, now)

    def _prepare_locked(self, batches: list[Batch], now: float) -> list[_Prepared]:
        """Reject cancelled and overdue requests at dispatch time; count
        and stage-mark the batches that still have survivors."""
        prepared: list[_Prepared] = []
        for batch in batches:
            survivors: list[_Request] = []
            for req in batch.requests:
                if req.cancel is not None and req.cancel.cancelled:
                    self._reject_locked(
                        req, "cancelled", f"token {req.cancel.name!r} cancelled", now
                    )
                elif req.deadline is not None and now - req.arrival > req.deadline:
                    self._reject_locked(
                        req,
                        "deadline",
                        f"not dispatched within {req.deadline}s of arrival",
                        now,
                    )
                else:
                    survivors.append(req)
            if not survivors:
                continue
            self.stats.batches += 1
            self.trace.count("serve.batches")
            self.trace.observe("serve.batch_occupancy", len(survivors))
            if self.rtrace is not None:
                for req in survivors:
                    if req.rt is not None:
                        req.rt.mark("batch", now)
            prepared.append(
                (survivors, f"{self.name}:{batch.kind}[{len(survivors)}]")
            )
        return prepared

    def _emit_retry(self, label: str, attempt: int, exc: BaseException) -> None:
        self.stats.retries += 1
        self.trace.count("serve.retries")
        if self.trace.enabled:
            self.trace.event(
                "retry", label, attempt=attempt, delay=0.0, exception=type(exc).__name__
            )

    # -------------------------------------------------------------- resolve

    def _deliver_locked(
        self,
        req: _Request,
        status: str,
        value: Any,
        t: float,
        size: int = 1,
        attempts: int = 1,
    ) -> None:
        """Resolve a dispatched request with its outcome at ``t``:
        ``status`` is ``"ok"`` (``value`` is the result) or ``"err"``
        (``value`` is the exception).  The key is stored or failed in
        the cache and its followers resolved first."""
        ok = status == "ok"
        self._settle_key_locked(req.key, ok, value, t)
        latency = t - req.arrival
        self._resolve_locked(
            req,
            Completed(value, latency=latency, batch_size=size, attempts=attempts)
            if ok
            else Failed(value, latency=latency, attempts=attempts),
        )

    def _settle_key_locked(
        self, key: str | None, ok: bool, value: Any, t: float
    ) -> None:
        """The leader of ``key`` finished (``ok``) or will never run:
        store or fail the key, then resolve its coalesced followers."""
        if key is None or self.cache is None:
            return
        if ok:
            self.cache.complete(key, value, t)
        else:
            self.cache.fail(key)
        for waiter in self._waiters.pop(key, ()):
            if waiter.rt is not None:
                # the whole coalesced wait was spent on the cache leader
                waiter.rt.mark("cache", t)
                waiter.rt.mark("resolve", t)
            latency = t - waiter.arrival
            self._resolve_locked(
                waiter,
                Completed(value, latency=latency, cached=True)
                if ok
                else Failed(value, latency=latency),
            )

    def _reject_locked(self, req: _Request, reason: str, detail: str, now: float) -> None:
        """An undispatched request will not run: reject it typed and fail
        its key, so the key's followers resolve and the next request
        for the key leads afresh."""
        error = (
            ExecutorShutdown(detail)
            if reason == "shutdown"
            else RuntimeError(f"coalesced leader rejected: {detail}")
        )
        self._settle_key_locked(req.key, False, error, now)
        if req.rt is not None:
            req.rt.mark("batch", now)
            req.rt.mark("resolve", now)
        self._resolve_locked(req, Rejected(reason, detail))

    def _fail_locked(
        self,
        reqs: list[_Request],
        exc: BaseException,
        now: float,
        stage: str,
        attempts: int = 1,
    ) -> None:
        """A whole batch failed at ``now``: fail every request in it; the
        time since dispatch is charged to ``stage``."""
        for req in reqs:
            if req.rt is not None:
                req.rt.mark(stage, now)
                req.rt.mark("resolve", now)
            self._deliver_locked(req, "err", exc, now, attempts=attempts)

    def _resolve_locked(self, req: _Request, response: Response) -> None:
        if not req.ticket._resolve(response):
            return
        if req.rt is not None:
            assert self.rtrace is not None
            self.rtrace.finish(req.rt, response)
            req.rt = None
        self._depth -= 1
        self._live.pop(req.ticket.request_id, None)
        self.trace.set_gauge("serve.queue_depth", self._depth)
        if isinstance(response, Completed):
            self.stats.completed += 1
            self.trace.observe("serve.latency_seconds", response.latency)
        elif isinstance(response, Failed):
            self.stats.failed += 1
            self.trace.count("serve.failures")
        elif isinstance(response, Rejected):
            self.stats.shed[response.reason] = (
                self.stats.shed.get(response.reason, 0) + 1
            )
            self.trace.count("serve.shed")

    # -------------------------------------------------------- driven mode

    def _advance_locked(self, now: float) -> None:
        due = self._batcher.due(now)
        for batch in sorted(due, key=lambda b: b.opened_at):
            # dispatch at the instant the batch aged out, not at "now":
            # the latency model should not depend on how often we pump
            self._dispatch_locked(
                [batch], batch.opened_at + self._batcher.policy.max_delay
            )
        self._complete_until_locked(now)

    def _complete_until_locked(self, now: float) -> None:
        """Deliver the modeled completions due by ``now``."""
        while self._completions and self._completions[0][0] <= now:
            finish, _, req, status, value, size, attempts = heapq.heappop(
                self._completions
            )
            self._deliver_locked(req, status, value, finish, size, attempts)

    def _run_driven_locked(self, survivors: list[_Request], label: str, t: float) -> None:
        """Run one batch on the eager executor with immediate retries,
        book it on the earliest-free modeled core, and schedule each
        request's completion at the batch's virtual finish."""
        calls = [(r.fn, r.args, r.kwargs) for r in survivors]
        cost = self.dispatch_overhead + sum(r.cost for r in survivors)
        attempts = 1
        while True:
            try:
                future = self.executor.submit(run_batch, calls, cost=cost, name=label)
                outcome = future.exception()
            except ExecutorShutdown as shutdown_exc:
                outcome = shutdown_exc
                break
            if outcome is None:
                outcome = future.result()
                break
            if not self.retry.should_retry(outcome, attempts):
                break
            self._emit_retry(label, attempts, outcome)
            attempts += 1
        start = max(t, heapq.heappop(self._core_free))
        finish = start + cost
        heapq.heappush(self._core_free, finish)
        size = len(survivors)
        if self.rtrace is not None:
            # the whole virtual timeline of this batch is known here —
            # stage the marks now, delivery happens at `finish`
            for req in survivors:
                if req.rt is None:
                    continue
                req.rt.mark("queue", start)
                req.rt.mark("execute", finish)
                if attempts > 1:
                    req.rt.mark("retry", finish)
                req.rt.mark("resolve", finish)
        if isinstance(outcome, BaseException):
            outcome = [("err", outcome)] * size
        for req, (status, value) in zip(survivors, outcome):
            self._seq += 1
            heapq.heappush(
                self._completions,
                (finish, self._seq, req, status, value, size, attempts),
            )

    # -------------------------------------------------------- thread mode

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                if self._shut:
                    return
                deadline = self._batcher.next_deadline()
                now = self.clock.now()
                if deadline is None:
                    self._wake.wait()
                elif deadline > now:
                    self._wake.wait(timeout=deadline - now)
                if self._shut:
                    return
                now = self.clock.now()
                self._dispatch_locked(self._batcher.due(now), now)

    def _send(self, prepared: list[_Prepared], attempt: int = 1) -> None:
        """Thread mode: hand each prepared batch to the executor as one
        task named by its label; the future's callback delivers the
        batch or re-enters here to retry it."""
        for reqs, label in prepared:
            calls = [(r.fn, r.args, r.kwargs) for r in reqs]
            try:
                if self._timed:
                    rids = [r.ticket.request_id for r in reqs]
                    future = self.executor.submit(run_batch_timed, calls, rids, name=label)
                else:
                    future = self.executor.submit(run_batch, calls, name=label)
            except ExecutorShutdown as exc:
                with self._lock:
                    self._fail_locked(
                        reqs, exc, self.clock.now(), "retry" if attempt > 1 else "queue", attempt
                    )
                continue
            future.add_done_callback(
                lambda fut, s=reqs, n=label: self._on_batch_done(fut, s, n, attempt)
            )

    def _on_batch_done(
        self, future: Future, survivors: list[_Request], label: str, attempt: int
    ) -> None:
        exc = future.exception()
        if exc is not None:
            if not isinstance(exc, ExecutorShutdown) and self.retry.should_retry(
                exc, attempt
            ):
                self._emit_retry(label, attempt, exc)
                self._send([(survivors, label)], attempt + 1)
                return
            now = self.clock.now()
            with self._lock:
                self._fail_locked(
                    survivors, exc, now, "retry" if attempt > 1 else "queue", attempt
                )
            return
        raw = future.result()
        if self._timed:
            results, info = raw
        else:
            results, info = raw, None
        now = self.clock.now()
        size = len(survivors)
        # Execution-span attribution: threads/inline stamp the span on
        # the future's meta (same time.monotonic() epoch as WallClock);
        # process workers can't, so reconstruct from the measured batch
        # total — callback transit then lands in the resolve stage.
        base = wid = pid = None
        cum: list[float] = []
        if info is not None:
            pid = info["pid"]
            durs = info["durs"]
            span = getattr(future, "meta", {}).get("rt_span")
            if span is not None:
                base, _, wid = span
            else:
                base = now - info["total"]
            acc = 0.0
            for d in durs:
                cum.append(acc)
                acc += d
            if span is not None and self.trace.enabled:
                off = time.monotonic() - self.trace.now()
                for i, req in enumerate(survivors):
                    self.trace.emit_span(
                        "rexec",
                        f"req:{req.ticket.request_id}",
                        base + cum[i] - off,
                        base + cum[i] + durs[i] - off,
                        worker=wid if wid is not None else 0,
                        pid=os.getpid(),
                    )
        with self._lock:
            for i, (req, (status, value)) in enumerate(zip(survivors, results)):
                if req.rt is not None:
                    if base is not None:
                        req.rt.mark("retry" if attempt > 1 else "queue", base + cum[i])
                        req.rt.mark("execute", base + cum[i] + info["durs"][i])
                        req.rt.worker = wid
                        req.rt.pid = pid
                    req.rt.mark("resolve", now)
                self._deliver_locked(req, status, value, now, size, attempt)
