"""QueryExecutor: correctness under concurrency, deadlines, lifecycle.

The stress tests are the satellite-task centerpiece: N client threads
hammering one executor must observe no lost or duplicated responses,
results byte-identical to the serial ``SearchSystem.ask`` path, and
correct cache invalidation across an ``add()``.
"""

import threading
import time

import pytest

from repro.service import (
    DeadlineExceeded,
    QueryExecutor,
    QueryRejected,
    ServiceMetrics,
)
from repro.system import SearchSystem
from repro.text.document import Document

NEWS = [
    ("news-1", "Lenovo announced a marketing partnership with the NBA."),
    ("news-2", "Dell explored an alliance with the Olympic Games organizers."),
    ("news-3", "A bakery opened downtown; nothing about computers here."),
    ("news-4", "Acer sponsors a cycling team in a sports partnership."),
    ("cfp-1", "CALL FOR PAPERS: the workshop will be held in Pisa, Italy on June 24, 2008."),
]

QUERIES = [
    "partnership, sports",
    '"pc maker", sports, partnership',
    "alliance|partnership, games",
    "conference|workshop, when:date, where:place",  # online path
    "sports, partnership",
]


def build_system() -> SearchSystem:
    system = SearchSystem()
    system.add_texts(NEWS)
    return system


def ranking_key(results):
    return [(r.doc_id, r.score) for r in results]


@pytest.fixture
def system():
    return build_system()


class TestBasicServing:
    def test_matches_serial_ask(self, system):
        serial = {q: ranking_key(system.ask(q)) for q in QUERIES}
        with QueryExecutor(system, workers=2) as executor:
            for q in QUERIES:
                assert ranking_key(executor.ask(q).results) == serial[q]

    def test_join_instrumentation_reaches_metrics(self, system):
        with QueryExecutor(system, workers=1) as executor:
            executor.ask("partnership, sports")
            run = executor.metrics.count("joins_run")
            skipped = executor.metrics.count("joins_skipped")
            assert run > 0
            assert skipped >= 0
            assert executor.metrics.count("join_micros") >= 0
            snap = executor.metrics.snapshot()
            assert snap["bound_skip_rate"] == pytest.approx(
                skipped / (run + skipped)
            )

    def test_normalized_spellings_share_cache_entry(self, system):
        with QueryExecutor(system, workers=1) as executor:
            executor.ask("partnership, sports")
            assert executor.ask("Partnership,   SPORTS").cached

    def test_cache_disabled(self, system):
        with QueryExecutor(system, workers=1, cache_size=0) as executor:
            executor.ask("partnership, sports")
            assert not executor.ask("partnership, sports").cached
            assert executor.cache is None

    def test_scoring_presets_cached_separately(self, system):
        with QueryExecutor(system, workers=1) as executor:
            a = executor.ask("partnership, sports", scoring="max")
            b = executor.ask("partnership, sports", scoring="win")
            assert not b.cached  # different preset, different key
            assert executor.ask("partnership, sports", scoring="win").cached
            assert ranking_key(a.results) != ranking_key(b.results) or (
                [r.doc_id for r in a.results] == [r.doc_id for r in b.results]
            )

    def test_batch_window_still_serves_correctly(self, system):
        serial = {q: ranking_key(system.ask(q)) for q in QUERIES}
        with QueryExecutor(
            system, workers=2, batch_wait_s=0.005, max_batch=4
        ) as executor:
            futures = [executor.submit(q) for q in QUERIES]
            for query, future in zip(QUERIES, futures):
                assert ranking_key(future.result(timeout=30).results) == serial[query]

    def test_negative_batch_window_rejected(self, system):
        with pytest.raises(ValueError):
            QueryExecutor(system, batch_wait_s=-1.0)

    def test_unknown_preset_rejected_at_submit(self, system):
        with QueryExecutor(system, workers=1) as executor:
            with pytest.raises(ValueError, match="unknown scoring preset"):
                executor.submit("a, b", scoring="bm25")

    def test_query_error_propagates_to_future(self, system):
        with QueryExecutor(system, workers=1) as executor:
            with pytest.raises(Exception):
                executor.ask('"unterminated, quote')
            # the worker survives a poisoned request
            assert executor.ask("partnership, sports").results


class TestDeadlines:
    def test_expired_deadline_fails_without_join(self, system):
        with QueryExecutor(system, workers=1) as executor:
            future = executor.submit("partnership, sports", timeout=0.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5)
            assert executor.metrics.count("deadline_misses") == 1
            assert executor.metrics.count("joins_executed") == 0

    def test_near_deadline_degrades_to_approximate_join(self, system):
        """Park the worker behind the write lock until most of the budget
        is gone; the request must fall back to the approximate join."""
        with QueryExecutor(
            system, workers=1, degradation_margin=0.8
        ) as executor:
            with executor._rwlock.write():
                future = executor.submit("partnership, sports", timeout=1.0)
                time.sleep(0.4)  # remaining ≈0.6 < 0.8 × 1.0 → degrade
            response = future.result(timeout=10)
            assert response.degraded
            assert executor.metrics.count("degraded_responses") == 1
            # degraded results are never cached
            assert not executor.ask("partnership, sports").cached

    def test_untimed_requests_never_degrade(self, system):
        with QueryExecutor(
            system, workers=1, degradation_margin=0.99
        ) as executor:
            assert not executor.ask("partnership, sports").degraded

    def test_default_timeout_applies(self, system):
        with QueryExecutor(system, workers=1, default_timeout=0.0) as executor:
            with pytest.raises(DeadlineExceeded):
                executor.ask("partnership, sports")


class TestAdmissionControl:
    def test_submit_after_shutdown_rejected(self, system):
        executor = QueryExecutor(system, workers=1)
        executor.shutdown()
        with pytest.raises(QueryRejected):
            executor.submit("partnership, sports")


class TestLifecycle:
    def test_shutdown_is_idempotent(self, system):
        executor = QueryExecutor(system, workers=2)
        executor.shutdown()
        executor.shutdown()
        executor.shutdown(wait=False)

    def test_shutdown_from_many_threads(self, system):
        executor = QueryExecutor(system, workers=2)
        threads = [threading.Thread(target=executor.shutdown) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(not w.is_alive() for w in executor._threads)

    def test_context_manager_drains_pending_work(self, system):
        with QueryExecutor(system, workers=2) as executor:
            futures = [executor.submit(q) for q in QUERIES * 4]
        # __exit__ returned: every queued request completed
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)

    def test_no_threads_leak(self, system):
        executor = QueryExecutor(system, workers=3)
        executor.ask("partnership, sports")
        executor.shutdown()
        assert all(not w.is_alive() for w in executor._threads)


class TestMutation:
    def test_apply_bumps_generation_and_invalidates(self, system):
        with QueryExecutor(system, workers=2) as executor:
            before = executor.ask("partnership, sports", top_k=10)
            assert executor.ask("partnership, sports", top_k=10).cached
            executor.apply(
                lambda s: s.add(
                    Document("new-1", "A new sports partnership was signed today.")
                )
            )
            after = executor.ask("partnership, sports", top_k=10)
            assert not after.cached
            assert after.generation == before.generation + 1
            assert "new-1" in {r.doc_id for r in after.results}

    def test_apply_returns_mutator_result(self, system):
        with QueryExecutor(system, workers=1) as executor:
            assert executor.apply(lambda s: len(s)) == len(NEWS)


class TestConcurrencyStress:
    CLIENTS = 8
    REQUESTS_PER_CLIENT = 25

    def test_no_lost_or_duplicated_responses_and_serial_identical(self, system):
        """N threads × M requests: every response arrives exactly once and
        equals the serial ranking for its query."""
        reference = build_system()  # untouched serial twin
        serial = {q: ranking_key(reference.ask(q, top_k=10)) for q in QUERIES}
        responses: dict[tuple[int, int], object] = {}
        lock = threading.Lock()

        with QueryExecutor(system, workers=4, queue_size=1024) as executor:

            def client(client_id: int) -> None:
                for i in range(self.REQUESTS_PER_CLIENT):
                    query = QUERIES[(client_id + i) % len(QUERIES)]
                    response = executor.ask(query, top_k=10)
                    with lock:
                        key = (client_id, i)
                        assert key not in responses, "duplicated response"
                        responses[key] = (query, response)

            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(responses) == self.CLIENTS * self.REQUESTS_PER_CLIENT
        for query, response in responses.values():
            assert ranking_key(response.results) == serial[query]
        snap = executor.metrics.snapshot()
        assert snap["requests_total"] == self.CLIENTS * self.REQUESTS_PER_CLIENT
        assert snap["completed_total"] == self.CLIENTS * self.REQUESTS_PER_CLIENT
        assert snap["cache_hits"] > 0  # repeats must hit

    def test_concurrent_queries_with_mutations_stay_consistent(self, system):
        """Queries racing an ``apply(add)`` see either the old or the new
        generation — never a torn state — and post-mutation queries match
        a serial system with the same documents."""
        queries = ["partnership, sports", "alliance|partnership, games"]
        new_docs = [
            Document("extra-%d" % i, "Another sports partnership, number %d." % i)
            for i in range(3)
        ]
        errors: list[BaseException] = []

        with QueryExecutor(system, workers=4, queue_size=1024) as executor:

            def reader() -> None:
                try:
                    for i in range(30):
                        response = executor.ask(queries[i % 2], top_k=20)
                        doc_ids = {r.doc_id for r in response.results}
                        # A result referencing a new doc must carry a
                        # post-mutation generation.
                        if doc_ids & {d.doc_id for d in new_docs}:
                            assert response.generation > 1
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            def writer() -> None:
                try:
                    for doc in new_docs:
                        executor.apply(lambda s, d=doc: s.add(d))
                        time.sleep(0.002)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        reference = build_system()
        reference.add(*new_docs)
        final = system.ask("partnership, sports", top_k=20)
        assert ranking_key(final) == ranking_key(
            reference.ask("partnership, sports", top_k=20)
        )

    def test_batched_execution_matches_serial(self, system):
        """Force heavy batching (1 worker, deep backlog) and check every
        response against the serial twin."""
        reference = build_system()
        serial = {q: ranking_key(reference.ask(q, top_k=10)) for q in QUERIES}
        with QueryExecutor(
            system, workers=1, queue_size=1024, max_batch=16
        ) as executor:
            futures = [
                (q, executor.submit(q, top_k=10)) for q in QUERIES * 10
            ]
            for query, future in futures:
                assert ranking_key(future.result(timeout=30).results) == serial[query]
        assert executor.metrics.count("batches") > 0
