"""One contract for both front ends: the serving core, local and sharded.

:class:`QueryExecutor` owns the request lifecycle and
:class:`ClusterExecutor` inherits it with the sharded execution step,
so admission control, deadlines, drain, the result cache and the health
report must behave the same in both.  Every test in :class:`TestContract`
runs against each front end; :class:`TestClusterStep` covers what the
cluster gains from the core (micro-batching, deadline degradation) and
what only it can do (partial answers).
"""

import time
from concurrent.futures import wait

import pytest

from repro.cluster import ClusterExecutor
from repro.cluster import coordinator
from repro.matching.queries import QuerySyntaxError
from repro.service import (
    DeadlineExceeded,
    QueryExecutor,
    QueryRejected,
    ShutdownDrained,
)
from repro.system import SearchSystem

CORPUS = [
    ("news-1", "Lenovo announced a marketing partnership with the NBA."),
    ("news-2", "Dell explored an alliance with the Olympic Games organizers."),
    ("news-3", "A bakery opened downtown; nothing about computers here."),
    ("news-4", "Acer sponsors a cycling team in a sports partnership."),
    ("news-5", "The partnership between Lenovo and the league expanded."),
    ("news-6", "Olympic sponsors include technology companies like Dell."),
]

QUERY = "partnership, sports"


def build_system() -> SearchSystem:
    system = SearchSystem()
    system.add_texts(CORPUS)
    return system


def make_local(system, *, workers=1, **options):
    return QueryExecutor(system, workers=workers, watchdog_interval=0, **options)


def make_cluster(system, *, workers=1, **options):
    return ClusterExecutor(
        system, shards=2, coordinators=workers, watchdog_interval=0, **options
    )


@pytest.fixture(scope="module")
def system():
    return build_system()


@pytest.fixture(params=["local", "cluster"])
def make(request):
    return {"local": make_local, "cluster": make_cluster}[request.param]


def ranking_key(results):
    return [(r.doc_id, r.score) for r in results]


def park_worker(executor, first):
    """Wait until the single worker has taken ``first`` off the queue (it
    then blocks on the read lock the caller holds for writing)."""
    deadline = time.monotonic() + 10
    while executor._queue.qsize() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert not executor._queue.qsize()
    assert not first.done()


class TestContract:
    def test_backlog_full_raises_and_counts(self, system, make):
        executor = make(system, queue_size=2)
        try:
            with executor._rwlock.write():
                first = executor.submit(QUERY)
                park_worker(executor, first)
                backlog = [executor.submit(f"a{i}, b") for i in range(2)]
                with pytest.raises(QueryRejected):
                    executor.submit("overflow, query")
                assert executor.metrics.count("rejected_total") == 1
            wait([first, *backlog], timeout=30)
        finally:
            executor.shutdown()

    def test_expired_queued_deadline_raises(self, system, make):
        with make(system) as executor:
            future = executor.submit(QUERY, timeout=0.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            assert executor.metrics.count("deadline_misses") == 1
            assert executor.metrics.count("joins_executed") == 0

    def test_drain_timeout_fails_queued_requests(self, system, make):
        executor = make(system, queue_size=8)
        try:
            with executor._rwlock.write():
                first = executor.submit(QUERY)
                park_worker(executor, first)
                queued = [executor.submit(f"q{i}, sports") for i in range(3)]
                executor.shutdown(drain_timeout=0.05)
                for future in queued:
                    with pytest.raises(ShutdownDrained):
                        future.result(timeout=30)
                assert executor.metrics.count("drain_dropped") == 3
            wait([first], timeout=30)
        finally:
            executor.shutdown()

    def test_malformed_query_fails_only_itself(self, system, make):
        executor = make(system, queue_size=8)
        try:
            with executor._rwlock.write():
                first = executor.submit("alliance, olympic")
                park_worker(executor, first)
                # Both share "sports", so they are batched together.
                bad = executor.submit('sports, "pc maker')
                good = executor.submit(QUERY)
            with pytest.raises(QuerySyntaxError):
                bad.result(timeout=30)
            response = good.result(timeout=30)
            assert executor.metrics.count("batched_queries") == 2
            assert not response.degraded
            assert ranking_key(response.results) == ranking_key(system.ask(QUERY))
            assert executor.health()["open_breakers"] == []
        finally:
            executor.shutdown()

    def test_repeated_ask_is_served_from_cache(self, system, make):
        with make(system) as executor:
            first = executor.ask(QUERY, top_k=3)
            joins = executor.metrics.count("joins_executed")
            second = executor.ask(QUERY, top_k=3)
            assert not first.cached and second.cached
            assert executor.metrics.count("cache_hits") == 1
            assert executor.metrics.count("joins_executed") == joins
            assert ranking_key(second.results) == ranking_key(first.results)
            assert ranking_key(first.results) == ranking_key(
                system.ask(QUERY, top_k=3)
            )

    def test_degraded_answer_is_not_cached(self, system, make):
        with make(system) as executor:
            with executor._rwlock.write():
                future = executor.submit(QUERY, timeout=2.0)
                park_worker(executor, future)
                time.sleep(1.6)  # remaining ≈0.4 < 0.25 × 2.0 → degrade
            response = future.result(timeout=30)
            assert response.degraded
            assert executor.metrics.count("degraded_responses") == 1
            again = executor.ask(QUERY)
            assert not again.cached and not again.degraded
            assert executor.metrics.count("cache_hits") == 0

    def test_health_keys(self, system, make):
        with make(system) as executor:
            health = executor.health()
            assert health["status"] == "ok"
            assert health["ready"] is True
            assert health["open_breakers"] == []
            if executor.num_shards:
                assert list(health) == [
                    "status", "ready", "accepting", "draining", "shards",
                    "workers", "queue", "open_breakers",
                ]
                assert health["workers"]["configured"] == 2
                assert health["workers"]["alive"] == 2
                assert len(health["shards"]) == 2
            else:
                assert list(health) == [
                    "status", "ready", "accepting", "draining", "workers",
                    "queue", "breakers", "open_breakers",
                ]
                assert health["workers"] == {
                    "configured": 1, "alive": 1, "restarts": 0
                }
                assert executor.shard_health() == []


class TestClusterStep:
    def test_partial_answer_is_degraded_and_not_cached(self, system):
        with make_cluster(system, breaker_threshold=1) as executor:
            executor._handles[0].breaker.record_failure()  # shard 0 skipped
            first = executor.ask(QUERY)
            second = executor.ask(QUERY)
            for response in (first, second):
                assert response.degraded and not response.cached
                assert response.shards_failed == 1
            assert executor.metrics.count("cache_hits") == 0
            assert executor.metrics.count("degraded_responses") == 2

    def test_request_outliving_the_drain_budget_is_shut_down(self, system):
        executor = make_cluster(system)
        with executor._rwlock.write():
            first = executor.submit(QUERY)
            park_worker(executor, first)
            executor.shutdown(drain_timeout=0.05)
            # Every shard process is reaped before shutdown returns.
            assert not any(handle.alive for handle in executor._handles)
        # The parked request then finds its shards closed: a shutdown,
        # not a shard failure.
        with pytest.raises(ShutdownDrained):
            first.result(timeout=30)
        assert executor.metrics.count("errors_total") == 0
        assert [h.breaker.state for h in executor._handles] == ["closed"] * 2

    def test_term_sharing_burst_is_batched(self, system):
        queries = [QUERY, "sports, partnership", "partnership, games"]
        with make_cluster(system) as executor:
            with executor._rwlock.write():
                first = executor.submit("alliance, olympic")
                park_worker(executor, first)
                futures = [executor.submit(q, top_k=3) for q in queries]
            for query, future in zip(queries, futures):
                response = future.result(timeout=30)
                assert not response.degraded
                assert ranking_key(response.results) == ranking_key(
                    system.ask(query, top_k=3)
                )
            assert executor.metrics.count("batches") > 0
            assert executor.metrics.count("batched_queries") == len(queries)

    def test_deadline_pressure_sends_approximate_join(self, system, monkeypatch):
        sent = []
        submit = coordinator._ShardHandle.submit

        def record(handle, call):
            sent.append(dict(call.message))
            submit(handle, call)

        monkeypatch.setattr(coordinator._ShardHandle, "submit", record)
        with make_cluster(system) as executor:
            executor.ask(QUERY, top_k=3)
            assert [m["avoid_duplicates"] for m in sent] == [True, True]
            sent.clear()
            with executor._rwlock.write():
                future = executor.submit(QUERY, top_k=4, timeout=2.0)
                park_worker(executor, future)
                time.sleep(1.6)
            assert future.result(timeout=30).degraded
            queries = [m for m in sent if m["op"] == "query"]
            assert [m["avoid_duplicates"] for m in queries] == [False, False]
