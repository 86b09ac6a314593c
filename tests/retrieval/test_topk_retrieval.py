"""Top-k document retrieval with upper-bound skipping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterExecutor
from repro.core.match import MatchList
from repro.core.query import Query
from repro.core.scoring.presets import trec_max, trec_med, trec_win
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.topk_retrieval import rank_top_k, score_upper_bound
from repro.service.executor import SCORING_PRESETS
from repro.system import SearchSystem

from tests.conftest import join_instances


def corpus_of(num_docs: int, seed: int):
    rng = random.Random(seed)
    query = Query.of("a", "b")
    docs = []
    for i in range(num_docs):
        lists = [
            MatchList.from_pairs(
                [
                    (rng.randint(0, 60), rng.uniform(0.05, 1.0))
                    for _ in range(rng.randint(0, 4))
                ]
            )
            for _ in range(2)
        ]
        docs.append((f"doc-{i:03d}", lists))
    return query, docs


class TestScoreUpperBound:
    @settings(max_examples=80, deadline=None)
    @given(join_instances(max_terms=4, max_len=5))
    def test_bounds_every_matchset_score(self, instance):
        from repro.core.algorithms.naive import iterate_matchsets

        query, lists = instance
        for scoring in (trec_win(), trec_med(), trec_max()):
            bound = score_upper_bound(scoring, lists)
            for matchset in iterate_matchsets(query, lists):
                assert scoring.score(matchset) <= bound + 1e-9


class TestRankTopK:
    @pytest.mark.parametrize("scoring_factory", [trec_win, trec_med, trec_max])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_equals_full_ranking_prefix(self, scoring_factory, k):
        query, docs = corpus_of(40, seed=9)
        scoring = scoring_factory()
        full = rank_top_k(docs, query, scoring)
        result = rank_top_k(docs, query, scoring, k)
        assert [(r.doc_id, pytest.approx(r.score)) for r in result] == [
            (r.doc_id, pytest.approx(r.score)) for r in full[:k]
        ]

    def test_ties_resolved_like_full_ranking(self):
        query = Query.of("a", "b")
        lists = [MatchList.from_pairs([(0, 0.5)]), MatchList.from_pairs([(1, 0.5)])]
        docs = [("z", lists), ("a", lists), ("m", lists)]
        full = rank_top_k(docs, query, trec_win())
        result = rank_top_k(docs, query, trec_win(), 2)
        assert [r.doc_id for r in result] == [r.doc_id for r in full[:2]]

    def test_skips_hopeless_documents(self):
        query = Query.of("a", "b")
        docs = [("strong", [
            MatchList.from_pairs([(0, 1.0)]),
            MatchList.from_pairs([(1, 1.0)]),
        ])]
        # Many weak, far-apart documents whose *bound* is already below
        # the strong document's actual score.
        for i in range(30):
            docs.append(
                (
                    f"weak-{i:02d}",
                    [
                        MatchList.from_pairs([(0, 0.05)]),
                        MatchList.from_pairs([(50, 0.05)]),
                    ],
                )
            )
        with collect_join_stats() as stats:
            result = rank_top_k(docs, query, trec_win(), 1)
        assert result[0].doc_id == "strong"
        assert stats.joins_skipped >= 25

    def test_statistics(self):
        query, docs = corpus_of(20, seed=4)
        with collect_join_stats() as stats:
            result = rank_top_k(docs, query, trec_med(), 3)
        empty = sum(1 for _doc_id, lists in docs if not all(lists))
        assert stats.documents_scanned == 20
        assert 0 <= stats.joins_run <= 20
        assert stats.joins_skipped == 20 - empty - stats.joins_run
        # Section VI restarts are counted for the kept documents only.
        assert stats.dedup_invocations == sum(r.invocations for r in result)

    def test_k_validation(self):
        query, docs = corpus_of(3, seed=1)
        with pytest.raises(ValueError):
            rank_top_k(docs, query, trec_win(), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_randomized_equivalence(self, seed):
        query, docs = corpus_of(25, seed=seed)
        scoring = trec_med()
        full = rank_top_k(docs, query, scoring)
        result = rank_top_k(docs, query, scoring, 5)
        assert [r.doc_id for r in result] == [r.doc_id for r in full[:5]]


class TestPrefixDocIdTies:
    """``d1`` sorts before ``d10``, so a tie at the k boundary keeps
    ``d1`` on every path, as the full ranking orders them."""

    QUERY = "maker, partnership"
    TEXT = "maker partnership sports"

    @pytest.mark.parametrize("scoring_factory", [trec_win, trec_med, trec_max])
    @pytest.mark.parametrize("order", [("d1", "d10"), ("d10", "d1")])
    def test_rank_top_k_keeps_the_prefix(self, scoring_factory, order):
        query = Query.of("a", "b")
        lists = [MatchList.from_pairs([(0, 0.5)]), MatchList.from_pairs([(1, 0.5)])]
        docs = [(doc_id, lists) for doc_id in order]
        scoring = scoring_factory()
        assert [r.doc_id for r in rank_top_k(docs, query, scoring)] == ["d1", "d10"]
        assert [r.doc_id for r in rank_top_k(docs, query, scoring, 1)] == ["d1"]

    @pytest.mark.parametrize("family", ["max", "med", "win"])
    def test_every_serving_path_keeps_the_prefix(self, family, monkeypatch):
        system = SearchSystem()
        system.add_texts([("d10", self.TEXT), ("d1", self.TEXT)])
        scoring = SCORING_PRESETS[family]()
        query, matcher = system._plan(self.QUERY)
        full = system._rank(
            query, matcher, scoring, top_k=None, avoid_duplicates=True
        )
        assert [d.doc_id for d in full] == ["d1", "d10"]
        assert full[0].score == full[1].score

        def ids(ranked):
            return [d.doc_id for d in ranked]

        monkeypatch.setenv("REPRO_NO_DAAT", "1")  # top-k scan
        assert ids(system.ask(self.QUERY, top_k=1, scoring=scoring)) == ["d1"]
        monkeypatch.delenv("REPRO_NO_DAAT")  # DAAT
        assert ids(system.ask(self.QUERY, top_k=1, scoring=scoring)) == ["d1"]
        # Both documents hash to the same one of two shards, so that
        # shard's own top-1 decides the answer.
        with ClusterExecutor(
            system, shards=2, watchdog_interval=0, cache_size=0
        ) as cluster:
            response = cluster.ask(self.QUERY, top_k=1, scoring=family)
        assert not response.degraded
        assert ids(response.results) == ["d1"]
