"""ClusterExecutor: API compatibility, lifecycle, health, HTTP serving."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterExecutor, ClusterMutationError
from repro.matching.queries import QuerySyntaxError
from repro.service import QueryRejected, SearchServer
from repro.system import SearchSystem

CORPUS = [
    ("news-1", "Lenovo announced a marketing partnership with the NBA."),
    ("news-2", "Dell explored an alliance with the Olympic Games organizers."),
    ("news-3", "A bakery opened downtown; nothing about computers here."),
    ("news-4", "Acer sponsors a cycling team in a sports partnership."),
    ("news-5", "The partnership between Lenovo and the league expanded."),
    ("news-6", "Olympic sponsors include technology companies like Dell."),
    ("cfp-1", "CALL FOR PAPERS: the workshop will be held in Pisa, Italy."),
    ("cfp-2", "Submissions on marketing alliances are welcome in Pisa."),
]


def build_system():
    system = SearchSystem()
    system.add_texts(CORPUS)
    return system


@pytest.fixture(scope="module")
def system():
    return build_system()


@pytest.fixture()
def cluster(system):
    executor = ClusterExecutor(system, shards=2, watchdog_interval=0.2)
    yield executor
    executor.shutdown()


class TestQueryPath:
    def test_matches_single_process_ask(self, system, cluster):
        expected = system.ask("marketing, partnership", top_k=3)
        response = cluster.ask("marketing, partnership", top_k=3)
        assert list(response.results) == list(expected)
        assert not response.degraded
        assert response.shards_total == 2
        assert response.shards_failed == 0
        assert response.generation == system.index_generation

    def test_scoring_presets_accepted(self, system, cluster):
        from repro.service.executor import SCORING_PRESETS

        for name, factory in SCORING_PRESETS.items():
            expected = system.ask("marketing, partnership", top_k=3, scoring=factory())
            got = cluster.ask("marketing, partnership", top_k=3, scoring=name)
            assert list(got.results) == list(expected), name

    def test_unknown_scoring_rejected_at_submit(self, cluster):
        with pytest.raises(ValueError, match="unknown scoring"):
            cluster.submit("a, b", scoring="bm25")

    def test_bad_query_syntax_raises_client_error(self, cluster):
        # Raised inside a shard worker, shipped back as a structured
        # reply, and re-raised here — not counted as a shard failure.
        with pytest.raises(QuerySyntaxError):
            cluster.ask('"unterminated', top_k=3)
        assert cluster.metrics.count("shard_failures") == 0

    def test_merge_economy_is_observable(self):
        # Every document matches, and doc-0..doc-11 hash 6/6 across two
        # shards, so each shard ships its local top-3 (6 candidates)
        # while the merge pulls at most N + k - 1 = 4 of them.
        system = SearchSystem()
        system.add_texts(
            (f"doc-{i}", f"alpha beta sentence number {i}") for i in range(12)
        )
        with ClusterExecutor(system, shards=2, watchdog_interval=0) as executor:
            executor.ask("alpha", top_k=3)
            assert executor.metrics.count("merge_pulls_saved") >= 2
            assert executor.metrics.count("shard_requests") == 2


class TestLifecycle:
    def test_rejects_bad_shard_count(self, system):
        with pytest.raises(ValueError, match="shards"):
            ClusterExecutor(system, shards=0)

    def test_single_shard_cluster_works(self, system):
        with ClusterExecutor(system, shards=1, watchdog_interval=0) as executor:
            expected = system.ask("marketing, partnership", top_k=3)
            got = executor.ask("marketing, partnership", top_k=3)
            assert list(got.results) == list(expected)

    def test_apply_refused(self, cluster):
        with pytest.raises(ClusterMutationError):
            cluster.apply(lambda system: system)

    def test_submit_after_shutdown_rejected(self, system):
        executor = ClusterExecutor(system, shards=2, watchdog_interval=0)
        executor.shutdown()
        with pytest.raises(QueryRejected):
            executor.submit("a, b")

    def test_shutdown_is_idempotent(self, system):
        executor = ClusterExecutor(system, shards=2, watchdog_interval=0)
        executor.shutdown()
        executor.shutdown()

    def test_snapshot_shards_roundtrip(self, cluster, tmp_path):
        paths = cluster.snapshot_shards(tmp_path)
        assert len(paths) == 2
        total = 0
        for path in paths:
            restored = SearchSystem.load(path)
            total += len(restored)
        assert total == len(CORPUS)


class TestHealth:
    def test_shard_health_reports_topology(self, cluster):
        shards = cluster.shard_health()
        assert [entry["shard"] for entry in shards] == [0, 1]
        for entry in shards:
            assert entry["alive"] is True
            assert isinstance(entry["pid"], int)
            assert entry["breaker"] == "closed"
            assert entry["respawns"] == 0
        assert sum(entry["documents"] for entry in shards) == len(CORPUS)

    def test_health_after_shutdown(self, system):
        executor = ClusterExecutor(system, shards=2, watchdog_interval=0)
        executor.shutdown()
        health = executor.health()
        assert health["ready"] is False
        assert health["accepting"] is False


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestHTTPServing:
    @pytest.fixture()
    def server(self, system):
        executor = ClusterExecutor(system, shards=2, watchdog_interval=0.2)
        with SearchServer(executor, owns_executor=True) as server:
            yield server

    def test_search_over_cluster(self, system, server):
        status, payload = get_json(
            server.url + "/search?q=marketing,%20partnership&top_k=3"
        )
        assert status == 200
        expected = system.ask("marketing, partnership", top_k=3)
        assert [row["doc_id"] for row in payload["results"]] == [
            doc.doc_id for doc in expected
        ]
        assert payload["degraded"] is False
        assert payload["shards"] == {"total": 2, "failed": 0}

    def test_healthz_reports_per_shard_status(self, server):
        status, payload = get_json(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert len(payload["shards"]) == 2
        for entry in payload["shards"]:
            assert entry["alive"] is True
            assert entry["breaker"] == "closed"

    def test_readyz_ok(self, server):
        status, payload = get_json(server.url + "/readyz")
        assert status == 200
        assert payload["ready"] is True

    def test_metrics_exposes_shard_series(self, server):
        get_json(server.url + "/search?q=marketing,%20partnership")
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
            text = response.read().decode()
        assert "repro_shard_requests_total" in text
        assert "repro_merge_pulls_saved_total" in text
        assert "repro_shard_request_seconds" in text
