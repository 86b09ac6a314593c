"""Document ranking by best-matchset score.

The paper ranks documents "by their overall best matchset scores" (TREC
experiment).  :func:`rank_documents` runs the per-document best-join over
a corpus and returns documents in descending score order, carrying each
document's best matchset so callers can show *why* a document ranked
where it did (the extracted answer).  The ranking loop itself is
:func:`repro.retrieval.topk_retrieval.rank_top_k`.
"""

from __future__ import annotations

from typing import Iterable

# wpbench's tracer (LAYERS in wpbench/tracer.py) patches this name in
# this module; the join itself runs in topk_retrieval.TopK.offer.
from repro.core.api import best_matchset  # noqa: F401
from repro.core.query import Query
from repro.core.scoring.base import ScoringFunction
from repro.matching.pipeline import QueryMatcher
from repro.retrieval.topk_retrieval import RankedDocument, rank_top_k
from repro.text.document import Corpus, Document

__all__ = ["RankedDocument", "rank_documents"]


def rank_documents(
    corpus: Corpus | Iterable[Document],
    query: Query,
    scoring: ScoringFunction,
    *,
    matcher: QueryMatcher | None = None,
    avoid_duplicates: bool = True,
) -> list[RankedDocument]:
    """Match + join + rank a corpus for one query."""
    matcher = matcher or QueryMatcher(query)
    return rank_top_k(
        ((doc.doc_id, matcher.match_lists(doc)) for doc in corpus),
        query,
        scoring,
        avoid_duplicates=avoid_duplicates,
    )
