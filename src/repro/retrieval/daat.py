"""Document-at-a-time max-score retrieval over per-term cursors.

:func:`repro.retrieval.topk_retrieval.rank_top_k` already skips ~half of
all best-*joins* with an O(|Q|) upper bound — but every candidate
document is still *materialized* first: the offline path walks the full
conjunctive candidate set and builds complete per-document match lists
(lexicon expansion, positional phrase scans, per-location scoring,
object allocation) before the bound ever runs, so per-query cost grows
linearly with corpus size.  This module skips *documents*, not just
joins, in the style of Fagin/Lotem/Naor's threshold algorithm and the
WAND/max-score family:

1. Each query term gets a doc-id-ordered cursor over its
   :class:`~repro.index.cursors.TermPostings` (generation-keyed, built
   once per corpus mutation), with a cached **impact ceiling** — the
   largest ``g``-contribution the term can make anywhere.  Cursors are
   sorted by ceiling, descending.
2. A conjunctive **pivot loop** aligns the cursors: the pivot is the
   largest current head, every cursor seeks to it, and documents that
   cannot contain all terms are skipped wholesale without touching the
   corpus.  Once the k-floor heap is full and the global ceiling sum
   falls strictly below the floor, the loop terminates outright.
3. Each aligned pivot is tested against the floor with the
   **membership bound** (per-term best-present expansion scores, no
   match lists), then — for indexed term pairs — the tighter
   **pair-proximity bound** of :class:`~repro.index.pairs.PairIndex`.
   Only surviving pivots get lexicon expansion and match-list
   construction; they go to the same
   :class:`~repro.retrieval.topk_retrieval.TopK` survivor step as the
   scan (exact per-list bound, best-join, k-floor heap).

The result is byte-identical to :func:`rank_top_k` over the same
candidates (same scores, same tie order); the bounds only decide
*when* a document can be rejected, never what a surviving document
scores.  ``REPRO_NO_DAAT=1`` disables the path
everywhere (``SearchSystem._rank`` falls back to the materialize-all
pipeline) — the escape hatch the differential tests toggle.
"""

from __future__ import annotations

import os

# wpbench's tracer (LAYERS in wpbench/tracer.py) patches this name in
# this module; the join itself runs in topk_retrieval.TopK.offer.
from repro.core.api import best_matchset  # noqa: F401
from repro.core.errors import ScoringContractError
from repro.core.kernels.columnar import bound_combine
from repro.core.query import Query
from repro.core.scoring.base import (
    MaxScoring,
    MedScoring,
    ScoringFunction,
    WinScoring,
)
from repro.index.cursors import Cursor
from repro.index.matchlists import ConceptIndex
from repro.index.pairs import PairIndex, PairPosting
from repro.obs.trace import NULL_SPAN, span as obs_span
from repro.retrieval.topk_retrieval import RankedDocument, TopK, prunable

__all__ = ["daat_enabled", "rank_top_k_daat"]

_DISABLING_VALUES = frozenset({"1", "true", "yes", "on"})


def daat_enabled() -> bool:
    """True unless ``REPRO_NO_DAAT`` selects the materialize-all path."""
    return os.environ.get("REPRO_NO_DAAT", "").lower() not in _DISABLING_VALUES


def _pair_bound(
    scoring: ScoringFunction,
    total: float,
    doc: str,
    postings: list,
    contrib_maps: list[dict[str, float]],
    applicable: list[tuple[int, int, PairPosting]],
) -> float:
    """A score upper bound tightened by precomputed pair proximity.

    Any matchset contains a match for both terms of every applicable
    pair, and those two matches are at least ``min_gap`` apart, so the
    family's distance penalty cannot be zero:

    * WIN — the window spans every pair, so it is at least the largest
      ``min_gap``: ``f(Σ, δ)`` instead of ``f(Σ, 0)``.
    * MED — the two distances to the median location sum to at least
      ``δ``: ``f(Σ − δ)``.
    * MAX — one of the two matches sits at distance ≥ ``δ/2`` from any
      anchor, so one term's contribution decays: the bound takes the
      better of the two cases, minimized over applicable pairs.

    All three stay sound for *any* matchset the join could return, so
    skipping what :func:`~repro.retrieval.topk_retrieval.prunable`
    rules out preserves byte-identical results.
    """
    if isinstance(scoring, WinScoring):
        delta = max(post.min_gap for _ja, _jb, post in applicable)
        return scoring.f(total, float(delta))
    if isinstance(scoring, MedScoring):
        delta = max(post.min_gap for _ja, _jb, post in applicable)
        return scoring.f(total - delta)
    if isinstance(scoring, MaxScoring):
        best = None
        for ja, jb, post in applicable:
            half = post.min_gap / 2.0
            contrib_a = contrib_maps[ja][doc]
            contrib_b = contrib_maps[jb][doc]
            cap = max(
                scoring.g(ja, postings[ja].best_scores[doc], half) + contrib_b,
                contrib_a + scoring.g(jb, postings[jb].best_scores[doc], half),
            )
            # The other terms' contributions, summed afresh rather than
            # as total − a − b, so a two-term bound is exactly f(cap).
            rest = 0.0
            for j, impact in enumerate(contrib_maps):
                if j != ja and j != jb:
                    rest += impact[doc]
            bound = scoring.f(rest + cap)
            if best is None or bound < best:
                best = bound
        assert best is not None
        return best
    raise ScoringContractError(
        f"no pair bound rule for {type(scoring).__name__}"
    )


def rank_top_k_daat(
    concepts: ConceptIndex,
    query: Query,
    scoring: ScoringFunction,
    k: int,
    *,
    generation: int,
    avoid_duplicates: bool = True,
    memo: dict | None = None,
    pair_index: PairIndex | None = None,
) -> list[RankedDocument]:
    """The k best documents, traversing postings document-at-a-time.

    Byte-identical to running :func:`rank_top_k` over the conjunctive
    candidate stream of ``ConceptIndex.candidate_documents`` +
    ``match_lists`` (same scores, same tie order), but documents whose
    bounds cannot beat the k-floor are never materialized at all.

    ``pair_index`` is consulted when its generation matches; a stale
    index is ignored rather than trusted.

    Besides the survivor step's counters, the active ``JoinStats`` gets
    ``documents_scanned`` (aligned pivots), ``documents_pivot_skipped``
    (pivots pruned before materialization, also ``joins_skipped``),
    ``pair_index_hits`` and ``pair_bound_tightenings``.
    """
    top = TopK(query, scoring, k, avoid_duplicates=avoid_duplicates)
    terms = list(query)
    postings = [concepts.term_postings(t, generation) for t in terms]

    with obs_span("retrieval.pivot", terms=len(terms), k=k) as sp:
        if any(len(p) == 0 for p in postings):
            # Conjunctive semantics: a term with no documents empties
            # the candidate set.
            return top.finish()

        ceilings = [p.ceiling(scoring, j) for j, p in enumerate(postings)]
        global_bound = bound_combine(scoring, sum(ceilings))
        global_size = sum(abs(c) for c in ceilings)
        n_terms = len(terms)
        # Impact maps: doc id → g_j(best_score), precomputed per term so
        # the per-pivot membership bound is |Q| dict lookups.
        contrib_maps = [
            p.contributions(scoring, j) for j, p in enumerate(postings)
        ]
        if isinstance(scoring, WinScoring):
            combine = lambda t: scoring.f(t, 0.0)  # noqa: E731
        else:  # MED and MAX combine with f(total) — see bound_combine.
            combine = scoring.f
        # Ceiling-ordered cursors: the highest-impact term leads the
        # pivot loop, so the first seek of each round is the one whose
        # posting stream moves the pivot furthest.
        cursors = [Cursor(p, j) for j, p in enumerate(postings)]
        cursors.sort(key=lambda c: (-ceilings[c.j], c.j))

        if pair_index is not None and pair_index.generation != generation:
            pair_index = None
        pair_entries: list[tuple[int, int, object]] = []
        if pair_index is not None and len(terms) >= 2:
            for ja in range(len(terms)):
                for jb in range(ja + 1, len(terms)):
                    entry = pair_index.lookup(terms[ja], terms[jb])
                    if entry is not None:
                        # Orient (ja, jb) to entry order: list_a/list_b
                        # are stored by lexicographic term order, not
                        # query order, and the memo seeding below must
                        # hand each term its own pre-joined list.  The
                        # pair bound is symmetric in (ja, jb), so the
                        # swap cannot change any score.
                        if terms[ja] == entry.a:
                            pair_entries.append((ja, jb, entry))
                        else:
                            pair_entries.append((jb, ja, entry))

        floor = top.heap
        scanned = 0
        pivot_skips = 0
        pair_hits = 0
        pair_tightenings = 0

        lead = cursors[0]
        doc = lead.doc
        while doc is not None:
            # -- pivot alignment: all cursors on one document ------------
            aligned = True
            for cursor in cursors[1:]:
                got = cursor.seek(doc)
                if got is None:
                    doc = None
                    aligned = False
                    break
                if got != doc:
                    # Pivot-advance: the lead cursor jumps straight to
                    # the blocking cursor's head; everything in between
                    # cannot contain all terms.
                    doc = lead.seek(got)
                    aligned = False
                    break
            if not aligned:
                if doc is None:
                    break
                continue

            scanned += 1
            skip = False
            weakest = floor[0] if len(floor) == k else None
            if weakest is not None:
                if prunable(
                    global_bound, weakest, None, terms=n_terms, size=global_size
                ):
                    # No document anywhere can beat the floor; remaining
                    # pivots are unscanned, not just skipped.
                    break
                total = size = 0.0
                for impact in contrib_maps:
                    contribution = impact[doc]
                    total += contribution
                    size += abs(contribution)
                bound = combine(total)
                skip = prunable(bound, weakest, doc, terms=n_terms, size=size)
            applicable: list[tuple[int, int, PairPosting]] = []
            if not skip and pair_entries:
                for ja, jb, entry in pair_entries:
                    post = entry.docs.get(doc)
                    if post is not None:
                        applicable.append((ja, jb, post))
                # Before the floor is full the pair data cannot prune,
                # but its pre-joined lists still serve materialization.
                if applicable:
                    pair_hits += 1
                    if weakest is not None:
                        pair_bound = _pair_bound(
                            scoring, total, doc, postings, contrib_maps, applicable
                        )
                        if pair_bound < bound:
                            pair_tightenings += 1
                        # WIN's f(Σg, δ) and MAX's cap bound the score
                        # term by term; MED's f(Σg − δ) does not.
                        skip = prunable(
                            pair_bound,
                            weakest,
                            doc,
                            terms=n_terms,
                            size=size,
                            termwise=not isinstance(scoring, MedScoring),
                        )
            if skip:
                pivot_skips += 1
                doc = lead.advance()
                continue

            # -- surviving pivot: materialize, then the shared step -----
            doc_memo = memo
            if applicable:
                if doc_memo is None:
                    doc_memo = {}
                for ja, jb, post in applicable:
                    doc_memo.setdefault((terms[ja], doc), post.list_a)
                    doc_memo.setdefault((terms[jb], doc), post.list_b)
            top.offer(
                doc,
                concepts.match_lists(terms, doc, memo=doc_memo, generation=generation),
            )
            doc = lead.advance()

        stats = top.stats
        stats.documents_scanned += scanned
        stats.documents_pivot_skipped += pivot_skips
        stats.joins_skipped += pivot_skips
        stats.pair_index_hits += pair_hits
        stats.pair_bound_tightenings += pair_tightenings
        if sp is not NULL_SPAN:
            sp.set_tags(
                documents_scanned=scanned,
                documents_pivot_skipped=pivot_skips,
                pair_index_hits=pair_hits,
                pair_bound_tightenings=pair_tightenings,
                joins_run=stats.joins_run,
            )
        return top.finish()
