"""Retrieval: ranking by best-matchset score, answer-rank evaluation, QA."""

from repro.retrieval.daat import daat_enabled, rank_top_k_daat
from repro.retrieval.evaluation import AnswerRank, answer_rank
from repro.retrieval.fusion import FusedDocument, reciprocal_rank_fusion
from repro.retrieval.topk_retrieval import TopK, rank_top_k, score_upper_bound
from repro.retrieval.metrics import (
    average_precision,
    mean_average_precision,
    mean_reciprocal_rank,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from repro.retrieval.proximity_scoring import (
    DocumentScorer,
    InfluenceScorer,
    PairwiseProximityScorer,
    ShortestIntervalScorer,
    SpanScorer,
    minimal_cover_windows,
)
from repro.retrieval.qa import AggregatedAnswer, Answer, QAEngine, aggregate_answers
from repro.retrieval.ranking import RankedDocument, rank_documents

__all__ = [
    "RankedDocument",
    "rank_documents",
    "AnswerRank",
    "answer_rank",
    "Answer",
    "QAEngine",
    "AggregatedAnswer",
    "aggregate_answers",
    "DocumentScorer",
    "ShortestIntervalScorer",
    "PairwiseProximityScorer",
    "InfluenceScorer",
    "SpanScorer",
    "minimal_cover_windows",
    "reciprocal_rank",
    "mean_reciprocal_rank",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "mean_average_precision",
    "FusedDocument",
    "reciprocal_rank_fusion",
    "TopK",
    "rank_top_k",
    "score_upper_bound",
    "daat_enabled",
    "rank_top_k_daat",
]
