"""The :class:`Executor` interface all backends implement.

The interface is deliberately richer than a plain thread pool: the task
layers (Parallel Task, Pyjama) need *cost accounting* (``compute``),
*named critical sections* (``critical``), *team barriers* (``barrier``)
and *precedence constraints* (``submit(after=...)``) so that exactly the
same program text can run on real threads and in virtual time.

Cost model contract
-------------------
``cost`` values are reference-core seconds (see
:mod:`repro.machine.spec`).  On the simulated backend they drive the
virtual schedule; on real backends they may be ignored or realised as
sleeps, depending on configuration.  Code that wants its work accounted
calls ``executor.compute(cost)`` at the point the work happens.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.executor.future import Future
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.resilience.cancel import CancelToken

__all__ = ["Executor", "ExecutorShutdown"]


class ExecutorShutdown(RuntimeError):
    """Submit after shutdown, or a task stranded by a non-draining one."""


class Executor(abc.ABC):
    """Common interface of inline, threaded and simulated execution."""

    #: number of processing units this executor models or uses
    cores: int = 1

    #: observability recorder (see :mod:`repro.obs`); backends set this
    #: from their ``trace=`` argument, defaulting to the disabled
    #: :data:`~repro.obs.trace.NULL_RECORDER` so instrumentation is free
    #: unless a recorder is installed.  Layers above (ptask, pyjama)
    #: emit through the same recorder, keeping one timeline per run.
    trace: TraceRecorder = NULL_RECORDER

    @abc.abstractmethod
    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost: float | None = None,
        name: str = "",
        after: Sequence[Future] = (),
        cancel: CancelToken | None = None,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Schedule ``fn(*args, **kwargs)`` as a task.

        ``cost``: declared work in reference-seconds (for the simulated
        backend); ``None`` means "unknown" — the task still runs, it just
        contributes only whatever it reports via :meth:`compute`.

        ``after``: futures that must complete before this task starts.
        A *cancelled* dependency cancels the dependent task (its own
        cancellation cascades further); a *failed* one fails it.

        ``cancel``: a :class:`~repro.resilience.CancelToken`; cancelling
        it cancels the future if the task has not started, and the token
        is installed ambiently (:func:`repro.resilience.current_token`)
        while the body runs so cooperative code can stop early.

        ``deadline``: seconds from submission the task must *start*
        within; an overdue task is cancelled with
        :class:`~repro.resilience.DeadlineExceeded` rather than silently
        abandoned.  On the eager backends (inline, sim) only a
        non-positive deadline can trigger, since tasks start at submit.
        """

    @abc.abstractmethod
    def compute(self, cost: float) -> None:
        """Charge ``cost`` reference-seconds of work to the current task."""

    @abc.abstractmethod
    def critical(self, name: str = "default") -> Any:
        """Context manager serialising a named critical section."""

    @abc.abstractmethod
    def barrier(self, key: str, parties: int) -> None:
        """Rendezvous of ``parties`` tasks on the named barrier.

        Barriers are cyclic: the same key can be reused for successive
        rendezvous of the same team.
        """

    @abc.abstractmethod
    def task_id(self) -> int:
        """Identity of the currently executing task (0 = the main program).

        Task identity is what task-local storage and the task-safe
        collections key on — distinct from thread identity, because one
        thread executes many tasks and (with helping) nests them.
        """

    def shutdown(self, drain: bool = True) -> None:
        """Release any resources; idempotent.  Default: nothing to do.

        ``drain=True`` finishes already-queued work before returning;
        ``drain=False`` completes every queued-but-unstarted task's
        future with :class:`ExecutorShutdown` so no waiter blocks
        forever.  Backends without queues accept and ignore the flag.
        """

    def signal(self, name: str, value: Any = True) -> None:
        """Broadcast an out-of-band named flag to wherever tasks run.

        In-process backends need nothing — task bodies see the caller's
        globals already — so the default is a no-op.  The processes
        backend forwards the signal over its cancel pipes and worker
        processes record it via :func:`repro.obs.rtrace.set_worker_signal`
        (the serving gateway uses this to switch per-request execution
        tracing on inside workers).  Best-effort and fire-and-forget:
        callers must not rely on delivery ordering with queued tasks.
        """

    # -- conveniences shared by all backends --------------------------------

    def submit_many(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[Sequence[Any]],
        *,
        costs: Sequence[float] | None = None,
        name: str = "batch",
    ) -> list[Future]:
        """Submit ``fn(*args)`` for each argument tuple; futures in order.

        Semantically identical to a loop of :meth:`submit` — this default
        *is* that loop — but backends may override it as a fast path that
        amortises per-submit overhead (the thread pool takes its queue
        lock once and wakes workers once for the whole group).
        """
        arg_tuples = list(arg_tuples)
        if costs is not None and len(costs) != len(arg_tuples):
            raise ValueError(
                f"costs has {len(costs)} entries for {len(arg_tuples)} tasks"
            )
        futures = []
        for i, args in enumerate(arg_tuples):
            cost = costs[i] if costs is not None else None
            futures.append(self.submit(fn, *args, cost=cost, name=f"{name}[{i}]"))
        return futures

    def map(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        cost_fn: Callable[[Any], float] | None = None,
        name: str = "map",
    ) -> list[Future]:
        """Submit one task per item; returns futures in item order."""
        futures = []
        for i, item in enumerate(items):
            cost = cost_fn(item) if cost_fn is not None else None
            futures.append(self.submit(fn, item, cost=cost, name=f"{name}[{i}]"))
        return futures

    def wait_all(self, futures: Sequence[Future]) -> list[Any]:
        """Block until all futures complete; return results in order.

        Raises the first exception encountered (in future order).
        """
        return [f.result() for f in futures]

    @contextmanager
    def _null_context(self) -> Iterator[None]:
        yield

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
