"""Document ranking by best-matchset score."""

import pytest

from repro.core.match import MatchList
from repro.core.query import Query
from repro.core.scoring.presets import trec_win
from repro.retrieval.ranking import rank_documents
from repro.retrieval.topk_retrieval import rank_top_k
from repro.text.document import Corpus, Document


class TestRankMatchLists:
    @pytest.fixture
    def query(self):
        return Query.of("a", "b")

    def test_ranks_by_descending_score(self, query):
        per_doc = [
            ("loose", [MatchList.from_pairs([(0, 1.0)]), MatchList.from_pairs([(50, 1.0)])]),
            ("tight", [MatchList.from_pairs([(0, 1.0)]), MatchList.from_pairs([(1, 1.0)])]),
        ]
        ranked = rank_top_k(per_doc, query, trec_win())
        assert [r.doc_id for r in ranked] == ["tight", "loose"]
        assert ranked[0].score > ranked[1].score

    def test_documents_without_full_matchset_dropped(self, query):
        per_doc = [
            ("full", [MatchList.from_pairs([(0, 1.0)]), MatchList.from_pairs([(1, 1.0)])]),
            ("partial", [MatchList.from_pairs([(0, 1.0)]), MatchList()]),
        ]
        ranked = rank_top_k(per_doc, query, trec_win())
        assert [r.doc_id for r in ranked] == ["full"]

    def test_duplicate_avoidance_respected(self, query):
        per_doc = [
            ("dup-only", [MatchList.from_pairs([(5, 1.0)]), MatchList.from_pairs([(5, 1.0)])]),
        ]
        assert rank_top_k(per_doc, query, trec_win()) == []
        relaxed = rank_top_k(per_doc, query, trec_win(), avoid_duplicates=False)
        assert len(relaxed) == 1

    def test_ties_broken_by_doc_id(self, query):
        lists = [MatchList.from_pairs([(0, 1.0)]), MatchList.from_pairs([(1, 1.0)])]
        ranked = rank_top_k([("b", lists), ("a", lists)], query, trec_win())
        assert [r.doc_id for r in ranked] == ["a", "b"]


class TestRankDocuments:
    def test_end_to_end_over_corpus(self):
        corpus = Corpus(
            [
                Document("near", "the workshop was held in Pisa that June of 2008"),
                Document(
                    "far",
                    "a workshop happened. " + "filler words repeat here. " * 20
                    + "later in Pisa during June 2008",
                ),
                Document("none", "nothing relevant at all"),
            ]
        )
        query = Query.of("conference|workshop", "date", "place")
        ranked = rank_documents(corpus, query, trec_win())
        assert [r.doc_id for r in ranked][:2] == ["near", "far"]
        assert "none" not in [r.doc_id for r in ranked]
