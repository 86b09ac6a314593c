"""Reciprocal-rank fusion."""

import pytest

from repro.core.match import Match
from repro.core.matchset import MatchSet
from repro.core.query import Query
from repro.retrieval.fusion import reciprocal_rank_fusion
from repro.retrieval.ranking import RankedDocument


def ranking(*doc_ids):
    q = Query.of("a")
    ms = MatchSet.from_sequence(q, [Match(0, 1.0)])
    return [RankedDocument(d, 1.0 / (i + 1), ms) for i, d in enumerate(doc_ids)]


class TestReciprocalRankFusion:
    def test_consensus_document_wins(self):
        fused = reciprocal_rank_fusion(
            [ranking("x", "a", "b"), ranking("c", "x", "d"), ranking("x", "e", "f")]
        )
        assert fused[0].doc_id == "x"

    def test_score_formula(self):
        fused = reciprocal_rank_fusion([ranking("x", "y")], k=60)
        by_id = {d.doc_id: d.score for d in fused}
        assert by_id["x"] == pytest.approx(1 / 61)
        assert by_id["y"] == pytest.approx(1 / 62)

    def test_absent_documents_contribute_nothing(self):
        fused = reciprocal_rank_fusion([ranking("x"), ranking("y")])
        by_id = {d.doc_id: d for d in fused}
        assert by_id["x"].ranks == (1, None)
        assert by_id["x"].score == pytest.approx(1 / 61)

    def test_deterministic_tie_break(self):
        fused = reciprocal_rank_fusion([ranking("b"), ranking("a")])
        assert [d.doc_id for d in fused] == ["a", "b"]

    def test_empty_inputs(self):
        assert reciprocal_rank_fusion([]) == []

    def test_k_validation(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion([ranking("a")], k=0)

    def test_fusing_the_three_families_end_to_end(self):
        from repro.core.match import MatchList
        from repro.core.query import Query
        from repro.core.scoring.presets import trec_max, trec_med, trec_win
        from repro.retrieval.topk_retrieval import rank_top_k

        query = Query.of("a", "b")
        docs = [
            ("tight", [MatchList.from_pairs([(0, 0.6)]), MatchList.from_pairs([(1, 0.6)])]),
            ("strong", [MatchList.from_pairs([(0, 1.0)]), MatchList.from_pairs([(9, 1.0)])]),
            ("weak", [MatchList.from_pairs([(0, 0.1)]), MatchList.from_pairs([(40, 0.1)])]),
        ]
        rankings = [
            rank_top_k(docs, query, scoring)
            for scoring in (trec_win(), trec_med(), trec_max())
        ]
        fused = reciprocal_rank_fusion(rankings)
        assert fused[-1].doc_id == "weak"  # consensus loser stays last
