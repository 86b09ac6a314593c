"""Top-k document retrieval with upper-bound skipping.

Ranking a large corpus runs one best-join per document; most documents
cannot possibly reach the current top-k floor, and a cheap *upper bound*
proves it without running the join.  For every scoring family, the score
of any matchset is bounded by the score of an imaginary matchset whose
matches are the per-list best scores all co-located (every family's
distance penalty is non-negative and its combiner monotone), so:

* WIN:  ``f(Σ_j max_m g_j(score(m)), 0)``
* MED:  ``f(Σ_j max_m g_j(score(m)))``
* MAX:  ``f(Σ_j max_m g_j(score(m), 0))``

:func:`rank_top_k` is the WAND-flavoured document-at-a-time loop: keep a
k-floor heap, skip every document whose bound is below the floor.  The
result equals the top k of the full ranking (ties broken identically);
the returned statistics report how many joins the bound avoided.
"""

from __future__ import annotations

import heapq
import sys
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.api import best_matchset
from repro.core.kernels.columnar import (
    bound_combine,
    bound_transform,
    kernels_enabled,
    lower,
)
from repro.core.match import MatchList
from repro.core.query import Query
from repro.core.scoring.base import ScoringFunction
from repro.retrieval.instrumentation import current_join_stats
from repro.retrieval.ranking import RankedDocument

__all__ = ["prunable", "score_upper_bound", "TopKResult", "rank_top_k"]

#: Machine epsilon of IEEE-754 doubles (``2 · u``); see :func:`prunable`.
_EPS = sys.float_info.epsilon

# Bound memos cached per match list; a list is normally bounded under a
# handful of scoring configurations (mirrors the kernel-cache cap).
_BOUND_CACHE_CAP = 8

# Match lists are cached on ConceptIndex and shared across serving
# threads; every mutation of a list's bound memo is serialized here.
# One module lock (not per-list): the memo is written at most
# _BOUND_CACHE_CAP times per list, so contention is cold-path only.
_BOUND_CACHE_LOCK = threading.Lock()


def _list_bound_max(lst: MatchList, scoring: ScoringFunction, j: int) -> float:
    """``max_m g_j(score(m))`` over one list, memoized (object path).

    The memo lives on the (immutable) match list itself, keyed like the
    kernel cache: by :meth:`ScoringFunction.kernel_key` when available,
    falling back to instance identity (the scoring object is held in the
    entry so its ``id()`` cannot be recycled into a colliding key).
    After warmup both upper-bound paths are O(|Q|) per candidate.

    The warm-path read is lock-free (dict reads are atomic and entries
    are immutable once stored); writes and evictions run under
    ``_BOUND_CACHE_LOCK``, so shared lists never see torn updates.
    """
    base = scoring.kernel_key()
    key = ("@id", id(scoring), j) if base is None else (base, j)
    cache = lst._bound_cache
    if cache is not None:
        found = cache.get(key)
        if found is not None:
            return found[1]
    best = max(bound_transform(scoring, j, m.score) for m in lst)
    with _BOUND_CACHE_LOCK:
        cache = lst._bound_cache
        if cache is None:
            cache = lst._bound_cache = {}
        found = cache.get(key)
        if found is not None:
            return found[1]
        if len(cache) >= _BOUND_CACHE_CAP:
            del cache[next(iter(cache))]
        cache[key] = (scoring if base is None else None, best)
    return best


def score_upper_bound(
    scoring: ScoringFunction, lists: Sequence[MatchList]
) -> float:
    """An upper bound on any matchset's score from these lists.

    Assumes every list is non-empty; callers skip empty-join documents
    before bounding.
    """
    return upper_bound_terms(scoring, lists)[0]


def upper_bound_terms(
    scoring: ScoringFunction, lists: Sequence[MatchList]
) -> tuple[float, float]:
    """:func:`score_upper_bound` plus ``Σ_j |max_m g_j|``, the size
    :func:`prunable` needs to judge the bound's rounding.

    On the kernel path each list's ``max_j g_j`` is a constant cached on
    the columnar lowering (:mod:`repro.core.kernels`); on the object path
    (``REPRO_NO_KERNELS=1``) the same constant is memoized per
    (list, scoring, term index) on the list itself.  Either way, after
    the first call per (list, scoring) pair the bound is an O(|Q|) sum —
    the per-attribute max-score precomputation of Fagin-style threshold
    algorithms — instead of an O(Σ|L_j|) rescan per candidate document.
    """
    kernels = kernels_enabled()
    total = size = 0.0
    for j, lst in enumerate(lists):
        best = lower(lst, scoring, j).max_g if kernels else _list_bound_max(
            lst, scoring, j
        )
        total += best
        size += abs(best)
    return bound_combine(scoring, total), size


def prunable(
    bound: float,
    floor: tuple[float, tuple[int, ...]],
    doc_id: str | None,
    *,
    terms: int,
    size: float,
    termwise: bool = True,
) -> bool:
    """Whether a document whose score is at most ``bound`` provably
    stays out of a full top-k heap whose weakest entry is ``floor``.

    ``bound`` is a float sum over ``terms`` per-term values of total
    magnitude ``size``; the join sums the score in another order, so
    the two floats can differ by rounding and the bound gets a margin:

    * none for a ``termwise`` bound (per term, at least what the score
      sums) over at most two terms: two operands round the same in
      either order and rounding is monotone;
    * otherwise ``(terms + 3)·eps·(3·size + |floor|)``: recursive
      summation of ``k`` operands errs by at most ``k·u·Σ|operand|``,
      each side takes at most ``terms + 3`` operations, and a document
      that could reach the floor has operands summing to at most
      ``3·size + |floor|`` when ``f`` is a translation (every serving
      preset).

    Skip only when ``bound`` plus the margin is below the floor's
    score, or equals it and ``doc_id`` loses the tie (``None``: no
    tie can be broken).
    """
    score, key = floor
    ceiling = bound
    if terms > 2 or not termwise:
        ceiling += (terms + 3) * _EPS * (3.0 * size + abs(score))
    if ceiling < score:
        return True
    return ceiling == score and doc_id is not None and _id_key(doc_id) < key


def _id_key(doc_id: str) -> tuple[int, ...]:
    """Reverse-lexicographic doc-id key for the floor heap.

    Reversed so the heap evicts the tie with the *largest* doc id first
    (output prefers smaller ids on ties).  Module-level — shared by
    :func:`rank_top_k` and the DAAT loop (:mod:`repro.retrieval.daat`),
    and computed at most once per surviving document.
    """
    return tuple(255 - b for b in doc_id.encode())


@dataclass
class TopKResult:
    """Top-k ranking plus the skipping statistics."""

    ranked: list[RankedDocument]
    documents_seen: int
    joins_run: int

    @property
    def joins_skipped(self) -> int:
        return self.documents_seen - self.joins_run


def rank_top_k(
    per_document_lists: Iterable[tuple[str, Sequence[MatchList]]],
    query: Query,
    scoring: ScoringFunction,
    k: int,
    *,
    avoid_duplicates: bool = True,
) -> TopKResult:
    """The k best documents, skipping joins the upper bound rules out.

    Equivalent to ``rank_match_lists(...)[:k]`` (same scores, same
    deterministic tie order), typically running far fewer joins once the
    floor is established.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    # Floor heap holds (score, reversed doc-id key) so that the heap's
    # smallest element is the currently weakest kept document under the
    # (-score, doc_id) output order.  ``kept`` is keyed by the same
    # reversed key, so evicting the heap's victim is one dict delete
    # instead of an O(k) scan.
    floor: list[tuple[float, tuple[int, ...]]] = []
    kept: dict[tuple[int, ...], RankedDocument] = {}
    seen = 0
    joins = 0
    bound_skips = 0
    stats = current_join_stats()

    terms = len(query)
    for doc_id, lists in per_document_lists:
        seen += 1
        if any(len(lst) == 0 for lst in lists):
            continue
        if len(floor) == k:
            bound, size = upper_bound_terms(scoring, lists)
            if prunable(bound, floor[0], doc_id, terms=terms, size=size):
                bound_skips += 1
                continue  # provably outside the top k
        joins += 1
        if stats is None:
            result = best_matchset(
                query, lists, scoring, avoid_duplicates=avoid_duplicates
            )
        else:
            started = time.perf_counter_ns()
            result = best_matchset(
                query, lists, scoring, avoid_duplicates=avoid_duplicates
            )
            stats.join_ns += time.perf_counter_ns() - started
        if not result:
            continue
        assert result.matchset is not None and result.score is not None
        key = _id_key(doc_id)
        entry = (result.score, key)
        if len(floor) < k:
            heapq.heappush(floor, entry)
            kept[key] = RankedDocument(
                doc_id, result.score, result.matchset, result.invocations
            )
        elif entry > floor[0]:
            _old_score, old_key = heapq.heapreplace(floor, entry)
            del kept[old_key]
            kept[key] = RankedDocument(
                doc_id, result.score, result.matchset, result.invocations
            )

    if stats is not None:
        stats.joins_run += joins
        stats.joins_skipped += bound_skips
        stats.dedup_invocations += sum(r.invocations for r in kept.values())

    ranked = sorted(kept.values(), key=lambda r: (-r.score, r.doc_id))
    return TopKResult(ranked, seen, joins)
