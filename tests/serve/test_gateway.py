"""Gateway behaviour across backends: same API, typed responses, no hangs.

Process workers unpickle task bodies by import, so every body submitted
to the processes backend is a module-level function from the ``repro``
package (``repro.serve.loadgen.panel_body``) — the same spawn-safety
discipline the backend asks of applications.
"""

import sys
import threading

import pytest

from repro.executor.factory import create
from repro.obs import TraceRecorder
from repro.resilience import CancelToken, FaultPlan, InjectedFault, RetryPolicy
from repro.serve.admission import AdmissionPolicy
from repro.serve.batching import BatchPolicy
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.gateway import Gateway
from repro.serve.loadgen import panel_body
from repro.serve.requests import Completed, Failed, Rejected


def small_batches() -> BatchPolicy:
    return BatchPolicy(max_size=4, max_delay=0.001)


class TestSameSemanticsEveryBackend:
    @pytest.mark.parametrize("backend", ["inline", "sim", "threads"])
    def test_values_identical(self, backend):
        with create(backend) as executor:
            gateway = Gateway(executor, batching=small_batches())
            tickets = [
                gateway.submit(panel_body, k, task="panel", cost=0.001)
                for k in range(10)
            ]
            gateway.drain()
            values = [gateway.result(t, timeout=10.0).value for t in tickets]
            gateway.shutdown()
        assert values == [panel_body(k) for k in range(10)]

    def test_values_identical_processes(self):
        with create("processes", cores=2) as executor:
            gateway = Gateway(executor, batching=small_batches())
            tickets = [
                gateway.submit(panel_body, k, task="panel") for k in range(8)
            ]
            gateway.drain()
            values = [gateway.result(t, timeout=30.0).value for t in tickets]
            gateway.shutdown()
        assert values == [panel_body(k) for k in range(8)]

    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_batch_size_reported(self, backend):
        with create(backend) as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=4, max_delay=5.0)
            )
            tickets = [
                gateway.submit(panel_body, k, task="panel") for k in range(4)
            ]
            resp = gateway.result(tickets[0], timeout=10.0)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.batch_size == 4


class TestAdmission:
    def test_queue_depth_sheds_typed(self):
        with create("sim") as executor:
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(max_queue=3),
                batching=BatchPolicy(max_size=100, max_delay=10.0),
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(5)]
            responses = [t.response(0.1) if t.done() else None for t in tickets]
            shed = [r for r in responses if isinstance(r, Rejected)]
            assert len(shed) == 2 and all(r.reason == "queue" for r in shed)
            gateway.shutdown()

    def test_rate_limit_sheds_typed(self):
        with create("inline") as executor:
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(rate=1.0, burst=2.0, max_queue=None),
                batching=small_batches(),
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(4)]
            shed = [
                t.response(0.1)
                for t in tickets
                if t.done() and isinstance(t.response(0.1), Rejected)
            ]
            assert len(shed) == 2 and all(r.reason == "rate" for r in shed)
            gateway.shutdown()

    def test_submit_never_blocks_under_overload(self):
        with create("sim") as executor:
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(max_queue=1),
                batching=BatchPolicy(max_size=1000, max_delay=100.0),
            )
            for k in range(200):
                gateway.submit(panel_body, k, key=None)  # must return instantly
            assert gateway.queue_depth <= 1
            gateway.shutdown()


class TestLifecycle:
    def test_cancel_token_rejects_at_dispatch(self):
        token = CancelToken(name="client-gone")
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=10, max_delay=0.5))
            ticket = gateway.submit(panel_body, 1, key=None, cancel=token)
            token.cancel()
            gateway.drain()
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Rejected) and resp.reason == "cancelled"

    def test_deadline_rejects_when_dispatch_is_late(self):
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=10, max_delay=1.0))
            ticket = gateway.submit(panel_body, 1, key=None, deadline=0.5)
            gateway.pump(now=2.0)  # batch ages out at t=1.0 > deadline
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Rejected) and resp.reason == "deadline"

    def test_deadline_met_when_dispatch_is_prompt(self):
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=1, max_delay=0.0))
            ticket = gateway.submit(panel_body, 1, key=None, deadline=0.5)
            gateway.drain()
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Completed)

    def test_shutdown_drain_false_rejects_queued_requests(self):
        """The stranded-request mirror of ExecutorShutdown: queued but
        undispatched work resolves with Rejected, nobody waits forever."""
        with create("sim") as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=1000, max_delay=100.0)
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(7)]
            gateway.shutdown(drain=False)
            responses = [t.response(1.0) for t in tickets]
        assert all(isinstance(r, Rejected) and r.reason == "shutdown" for r in responses)

    def test_shutdown_drain_false_threads_no_hang(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=1000, max_delay=100.0)
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(20)]
            gateway.shutdown(drain=False)
            responses = [t.response(5.0) for t in tickets]  # must all resolve
        assert all(isinstance(r, (Rejected, Completed, Failed)) for r in responses)
        assert any(isinstance(r, Rejected) and r.reason == "shutdown" for r in responses)

    def test_submit_after_shutdown_is_rejected_not_raised(self):
        with create("inline") as executor:
            gateway = Gateway(executor)
            gateway.shutdown()
            resp = gateway.submit(panel_body, 1).response(1.0)
        assert isinstance(resp, Rejected) and resp.reason == "shutdown"

    def test_shutdown_idempotent(self):
        with create("inline") as executor:
            gateway = Gateway(executor)
            gateway.shutdown()
            gateway.shutdown(drain=False)


class TestCacheIntegration:
    def test_modeled_warm_key_serves_cached_zero_latency(self):
        with create("sim") as executor:
            gateway = Gateway(
                executor,
                cache=ModeledCache(hit_rate=1.0, seed=0),
                batching=small_batches(),
            )
            ticket = gateway.submit(panel_body, 3, task="panel", cost=0.01)
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Completed)
        assert resp.cached and resp.latency == 0.0 and resp.value == panel_body(3)

    def test_lru_repeat_request_is_a_hit(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor, cache=LRUTTLCache(capacity=16), batching=small_batches()
            )
            first = gateway.submit(panel_body, 5, task="panel")
            gateway.drain()
            assert isinstance(first.response(5.0), Completed)
            second = gateway.submit(panel_body, 5, task="panel")
            resp = second.response(5.0)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.cached

    def test_uncacheable_arguments_still_served(self):
        class Opaque:
            pass

        captured = []

        def probe(x):
            captured.append(x)
            return "ok"

        with create("inline") as executor:
            gateway = Gateway(
                executor, cache=LRUTTLCache(capacity=4), batching=small_batches()
            )
            ticket = gateway.submit(probe, Opaque(), task="opaque")
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.value == "ok"
        assert ticket.key is None and len(captured) == 1


class TestCoalescedFollowers:
    """Requests for a key already in flight wait on its leader and share
    its outcome, whichever way the leader ends, on every clock discipline."""

    BACKENDS = ["inline", "sim", "threads"]

    @staticmethod
    def held_batches() -> BatchPolicy:
        # the leader stays queued long enough for followers to join it
        return BatchPolicy(max_size=100, max_delay=0.05)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_followers_share_the_leaders_value(self, backend):
        runs = []

        def body(x):
            runs.append(x)
            return x * 2

        with create(backend) as executor:
            cache = LRUTTLCache(capacity=8)
            gateway = Gateway(executor, cache=cache, batching=self.held_batches())
            tickets = [gateway.submit(body, 3, task="double") for _ in range(3)]
            gateway.drain()
            responses = [t.response(5.0) for t in tickets]
            gateway.shutdown()
        assert runs == [3]
        assert all(isinstance(r, Completed) and r.value == 6 for r in responses)
        assert [r.cached for r in responses] == [False, True, True]
        assert cache.stats.coalesced == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leader_body_raises_fails_followers_typed(self, backend):
        runs = []

        def flaky(x):
            runs.append(x)
            if len(runs) == 1:
                raise ValueError("first run fails")
            return x * 2

        with create(backend) as executor:
            gateway = Gateway(
                executor, cache=LRUTTLCache(capacity=8), batching=self.held_batches()
            )
            leader = gateway.submit(flaky, 3, task="flaky")
            followers = [gateway.submit(flaky, 3, task="flaky") for _ in range(2)]
            gateway.drain()
            failed = [t.response(5.0) for t in (leader, *followers)]
            # nothing was cached: the next request leads a fresh run
            again = gateway.submit(flaky, 3, task="flaky")
            gateway.drain()
            fresh = again.response(5.0)
            gateway.shutdown()
        assert all(isinstance(r, Failed) for r in failed)
        assert all(isinstance(r.error, ValueError) for r in failed)
        assert isinstance(fresh, Completed) and fresh.value == 6 and not fresh.cached
        assert runs == [3, 3]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("why", ["cancelled", "deadline"])
    def test_leader_rejected_at_dispatch_fails_followers_typed(self, backend, why):
        token = CancelToken(name="client-gone")
        with create(backend) as executor:
            cache = LRUTTLCache(capacity=8)
            gateway = Gateway(executor, cache=cache, batching=self.held_batches())
            if why == "cancelled":
                leader = gateway.submit(panel_body, 4, task="panel", cancel=token)
                token.cancel()
            else:
                # the batch ages out after 0.05 s, past this deadline
                leader = gateway.submit(panel_body, 4, task="panel", deadline=0.01)
            followers = [gateway.submit(panel_body, 4, task="panel") for _ in range(2)]
            if why == "cancelled":
                gateway.drain()
            else:
                gateway.pump(now=1.0)  # driven; thread mode ages out on its own
            rejected = leader.response(5.0)
            follower_responses = [t.response(5.0) for t in followers]
            again = gateway.submit(panel_body, 4, task="panel")
            gateway.drain()
            fresh = again.response(5.0)
            gateway.shutdown()
        assert isinstance(rejected, Rejected) and rejected.reason == why
        assert all(isinstance(r, Failed) for r in follower_responses)
        assert all(isinstance(r.error, RuntimeError) for r in follower_responses)
        assert isinstance(fresh, Completed) and not fresh.cached
        assert fresh.value == panel_body(4)
        assert cache.stats.misses == 2 and cache.stats.coalesced == 2


class TestFaultsAndRetries:
    def test_injected_faults_retried_transparently(self):
        plan = FaultPlan(seed=3, task_failure_rate=0.4)
        recorder = TraceRecorder()
        with create("sim", trace=recorder, faults=plan) as executor:
            gateway = Gateway(
                executor,
                batching=small_batches(),
                retry=RetryPolicy(
                    max_attempts=10, base_delay=0.0, max_delay=0.0, jitter=0.0,
                    retry_on=(InjectedFault,),
                ),
                trace=recorder,
            )
            tickets = [
                gateway.submit(panel_body, k, task="panel", key=None)
                for k in range(30)
            ]
            gateway.drain()
            responses = [t.response(1.0) for t in tickets]
            gateway.shutdown()
        assert all(isinstance(r, Completed) for r in responses)
        assert gateway.stats.retries > 0
        kinds = {e.kind for e in recorder.events()}
        assert "retry" in kinds and "fault" in kinds

    def test_exhausted_retries_fail_typed(self):
        plan = FaultPlan(seed=1, task_failure_rate=1.0)
        with create("sim", faults=plan) as executor:
            gateway = Gateway(
                executor,
                batching=small_batches(),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            )
            ticket = gateway.submit(panel_body, 1, key=None)
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Failed) and isinstance(resp.error, InjectedFault)


class TestThreadModeConcurrency:
    def test_many_clients_submit_concurrently(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor,
                batching=BatchPolicy(max_size=8, max_delay=0.002),
                cache=LRUTTLCache(capacity=64),
            )
            results: list[list] = [[] for _ in range(4)]

            def client(i: int) -> None:
                tickets = [
                    gateway.submit(panel_body, (i * 7 + j) % 10, task="panel")
                    for j in range(25)
                ]
                results[i] = [t.response(10.0) for t in tickets]

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            gateway.drain()
            for t in threads:
                t.join(timeout=15.0)
            gateway.shutdown()
        flat = [r for rs in results for r in rs]
        assert len(flat) == 100
        assert all(isinstance(r, Completed) for r in flat)

    def test_coalescing_under_contention_runs_each_key_once(self):
        """More clients than cores and a short switch interval: the
        followers parked by the gateway, the leaders' completion
        callbacks on pool workers and the dispatcher thread all meet
        under the gateway lock, and no follower is lost or run twice."""
        runs: dict[int, int] = {}
        runs_lock = threading.Lock()

        def body(k: int) -> int:
            with runs_lock:
                runs[k] = runs.get(k, 0) + 1
            return k * 13

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with create("threads", cores=2) as executor:
                cache = LRUTTLCache(capacity=64)
                gateway = Gateway(
                    executor,
                    batching=BatchPolicy(max_size=4, max_delay=0.001),
                    cache=cache,
                )
                results: list[list] = [[] for _ in range(6)]

                def client(i: int) -> None:
                    tickets = [
                        gateway.submit(body, (i + j) % 12, task="memo")
                        for j in range(40)
                    ]
                    results[i] = [(t.key, t.response(10.0)) for t in tickets]

                threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=20.0)
                assert not any(t.is_alive() for t in threads)
                gateway.shutdown()
        finally:
            sys.setswitchinterval(previous)
        flat = [r for rs in results for _, r in rs]
        assert len(flat) == 240 and all(isinstance(r, Completed) for r in flat)
        assert sorted(r.value for r in flat) == sorted(
            ((i + j) % 12) * 13 for i in range(6) for j in range(40)
        )
        assert runs == {k: 1 for k in range(12)}
        stats = cache.stats
        assert stats.misses == 12 and stats.lookups == 240
        assert gateway.queue_depth == 0
