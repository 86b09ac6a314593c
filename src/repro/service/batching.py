"""Micro-batching: group concurrent queries that share index terms.

Concurrently submitted queries often overlap in vocabulary (hot topics,
repeated templates).  The expensive part of the offline query path is
materializing per-term match lists from the inverted index
(:class:`repro.index.matchlists.ConceptIndex`); when two in-flight
queries mention the same term, :meth:`SearchSystem.ask_many` shares one
``(term, doc_id) → MatchList`` memo so each list is built once.

This module decides *which* pending requests ride in one ``ask_many``
call.  :class:`MicroBatcher` partitions a drained backlog:

1. by **compatibility key** — requests must agree on scoring preset,
   ``top_k``, and exact/degraded mode to share a call;
2. by **shared terms** — within a compatible group, union–find over
   normalized query terms joins requests into connected components, so
   a batch only contains queries that (transitively) overlap and
   unrelated queries keep their latency independent;
3. by **size** — components are split at ``max_batch``.

The batcher is pure planning (no threads of its own); the executor
drains its bounded queue and hands the backlog here.
"""

from __future__ import annotations

from typing import Hashable, Protocol, Sequence, TypeVar

from repro.service.cache import normalize_query

__all__ = ["Batchable", "MicroBatcher", "query_terms"]


def query_terms(query_text: str) -> tuple[str, ...]:
    """Normalized top-level terms of a query-language query.

    Splits the normalized spelling on top-level commas (double quotes
    protect embedded commas, mirroring the query grammar).  Used only
    for grouping — the real parse happens inside ``SearchSystem``.
    """
    text = normalize_query(query_text)
    terms: list[str] = []
    current: list[str] = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            continue
        if ch == "," and not in_quotes:
            terms.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    terms.append("".join(current).strip())
    return tuple(t for t in terms if t)


class Batchable(Protocol):
    """What the batcher needs to know about a pending request."""

    query_text: str

    @property
    def batch_key(self) -> Hashable: ...


R = TypeVar("R", bound=Batchable)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


class MicroBatcher:
    """Plan ``ask_many`` batches over a backlog of pending requests."""

    def __init__(self, *, max_batch: int = 16) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch

    def _shared_term_components(self, requests: Sequence[R]) -> list[list[R]]:
        """Union–find over requests connected by at least one shared term."""
        uf = _UnionFind(len(requests))
        first_seen: dict[str, int] = {}
        for i, request in enumerate(requests):
            for term in query_terms(request.query_text):
                if term in first_seen:
                    uf.union(first_seen[term], i)
                else:
                    first_seen[term] = i
        components: dict[int, list[R]] = {}
        for i, request in enumerate(requests):
            components.setdefault(uf.find(i), []).append(request)
        # Sorted by first appearance: deterministic plans for testing.
        return [components[root] for root in sorted(components)]

    def plan(self, requests: Sequence[R]) -> list[list[R]]:
        """Partition a backlog into execution batches (order-stable).

        Every returned batch shares one compatibility key and is
        term-connected; batches longer than ``max_batch`` are split.
        Singleton batches mean "just run it alone".
        """
        if len(requests) < 2:
            return [list(requests)] if requests else []
        by_key: dict[Hashable, list[R]] = {}
        for request in requests:
            by_key.setdefault(request.batch_key, []).append(request)
        batches: list[list[R]] = []
        for group in by_key.values():
            for component in self._shared_term_components(group):
                for start in range(0, len(component), self.max_batch):
                    batches.append(component[start : start + self.max_batch])
        return batches
