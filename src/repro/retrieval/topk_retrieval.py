"""The ranking loop: top-k document retrieval with upper-bound skipping.

Ranking a large corpus runs one best-join per document; most documents
cannot possibly reach the current top-k floor, and a cheap *upper bound*
proves it without running the join.  For every scoring family, the score
of any matchset is bounded by the score of an imaginary matchset whose
matches are the per-list best scores all co-located (every family's
distance penalty is non-negative and its combiner monotone), so:

* WIN:  ``f(Σ_j max_m g_j(score(m)), 0)``
* MED:  ``f(Σ_j max_m g_j(score(m)))``
* MAX:  ``f(Σ_j max_m g_j(score(m), 0))``

:class:`TopK` is the one survivor step of every ranking loop: it keeps
a k-floor heap and skips every document whose bound is below the floor
— the threshold-and-stop rule of Fagin, Lotem and Naor's threshold
algorithm.  :func:`rank_top_k` feeds it every candidate of a
materialized stream (``k=None`` ranks them all);
:func:`repro.retrieval.daat.rank_top_k_daat` feeds it the documents its
cursor bounds could not rule out.  The result equals the top k of the
full ranking (ties broken identically).
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
from repro.core.matchset import MatchSet
from repro.core.query import Query
from repro.core.scoring.base import (
    MaxScoring,
    MedScoring,
    ScoringFunction,
    WinScoring,
)
from repro.retrieval.instrumentation import JoinStats, current_join_stats

__all__ = [
    "RankedDocument",
    "TopK",
    "boundable",
    "prunable",
    "rank_top_k",
    "score_upper_bound",
]

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
    (output prefers smaller ids on ties).  The terminator 256 sorts above
    every reversed byte, so a prefix (``d1``) outranks its extensions
    (``d10``) exactly as ``str`` order does.
    """
    return (*(255 - b for b in doc_id.encode()), 256)


def boundable(scoring: ScoringFunction) -> bool:
    """Whether the upper bounds apply: the WIN/MED/MAX families."""
    return isinstance(scoring, (WinScoring, MedScoring, MaxScoring))


@dataclass(frozen=True, slots=True)
class RankedDocument:
    """One ranked document: its best matchset and score."""

    doc_id: str
    score: float
    matchset: MatchSet
    invocations: int = 1


class TopK:
    """The survivor step every ranking loop shares: bound, join, keep.

    A loop hands each candidate document to :meth:`offer`; once ``k``
    documents are kept (and the scoring is :func:`boundable`), a
    document whose exact per-list bound is :func:`prunable` against the
    weakest kept entry is skipped without a join.  ``k=None`` keeps
    every document.  :meth:`finish` folds the loop's counters into the
    active :class:`~repro.retrieval.instrumentation.JoinStats` once and
    returns the kept documents in ``(-score, doc_id)`` order — exactly
    the first ``k`` of the full ranking.

    ``heap`` holds ``(score, _id_key(doc_id))`` so its smallest element
    is the weakest kept document; ``kept`` is keyed by the same key, so
    an eviction is one dict delete.  ``stats`` is this loop's own
    record; the DAAT loop adds its traversal counters to it.
    """

    __slots__ = (
        "query",
        "scoring",
        "k",
        "avoid_duplicates",
        "bounded",
        "heap",
        "kept",
        "stats",
    )

    def __init__(
        self,
        query: Query,
        scoring: ScoringFunction,
        k: int | None = None,
        *,
        avoid_duplicates: bool = True,
    ) -> None:
        if k is not None and k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.query = query
        self.scoring = scoring
        self.k = k
        self.avoid_duplicates = avoid_duplicates
        self.bounded = boundable(scoring)
        self.heap: list[tuple[float, tuple[int, ...]]] = []
        self.kept: dict[tuple[int, ...], RankedDocument] = {}
        self.stats = JoinStats()

    def offer(self, doc_id: str, lists: Sequence[MatchList]) -> None:
        """Bound, join and maybe keep one candidate document."""
        if not all(lists):
            return  # some term has no match: no matchset exists
        heap = self.heap
        stats = self.stats
        full = len(heap) == self.k
        if full and self.bounded:
            bound, size = upper_bound_terms(self.scoring, lists)
            if prunable(bound, heap[0], doc_id, terms=len(lists), size=size):
                stats.joins_skipped += 1
                return  # provably outside the top k
        stats.joins_run += 1
        started = time.perf_counter_ns()
        result = best_matchset(
            self.query, lists, self.scoring, avoid_duplicates=self.avoid_duplicates
        )
        stats.join_ns += time.perf_counter_ns() - started
        if not result:
            return
        assert result.matchset is not None and result.score is not None
        key = _id_key(doc_id)
        entry = (result.score, key)
        if not full:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            del self.kept[heapq.heapreplace(heap, entry)[1]]
        else:
            return
        self.kept[key] = RankedDocument(
            doc_id, result.score, result.matchset, result.invocations
        )

    def finish(self) -> list[RankedDocument]:
        """The kept documents, best first; folds ``stats`` once."""
        kept = self.kept.values()
        self.stats.dedup_invocations += sum(r.invocations for r in kept)
        outer = current_join_stats()
        if outer is not None:
            outer.add(self.stats)
        return sorted(kept, key=lambda r: (-r.score, r.doc_id))


def rank_top_k(
    per_document_lists: Iterable[tuple[str, Sequence[MatchList]]],
    query: Query,
    scoring: ScoringFunction,
    k: int | None = None,
    *,
    avoid_duplicates: bool = True,
) -> list[RankedDocument]:
    """Rank pre-computed per-document match lists; the k best, or all.

    ``per_document_lists`` yields ``(doc_id, match_lists)`` pairs;
    documents with no complete (or no valid) matchset are dropped.
    Results are sorted by descending score, doc id breaking ties.  With
    a ``k`` the bound skips joins that cannot reach the k-floor, and
    the result is exactly the first ``k`` of the full ranking.
    """
    top = TopK(query, scoring, k, avoid_duplicates=avoid_duplicates)
    scanned = 0
    for doc_id, lists in per_document_lists:
        scanned += 1
        top.offer(doc_id, lists)
    top.stats.documents_scanned += scanned
    return top.finish()
