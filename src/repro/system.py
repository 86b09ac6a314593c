"""One-object façade: a persistent weighted-proximity search system.

Everything in this library composes by hand; :class:`SearchSystem` wires
the common composition once — corpus management, a positional inverted
index kept in sync, the query language, the offline (index-derived) and
online (matcher) match-list paths, best-join ranking, extraction, and
save/load — so an application can be three lines:

    system = SearchSystem()
    system.add(Document("d1", "Lenovo partners with the NBA …"))
    answers = system.ask('"pc maker", sports, partnership')

Queries that use only lexicon-friendly terms run *offline* (match lists
derived from the index, the paper's footnote-1 path with a conjunctive
candidate pre-filter); queries with special matchers (dates, places,
regexes, fuzzy) run *online* over the stored documents.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Iterable, Sequence

from repro.core.io import SerializationError
from repro.core.query import Query
from repro.core.scoring.base import ScoringFunction
from repro.core.scoring.presets import trec_max
from repro.extraction.extractor import Extraction, MatchsetExtractor
from repro.index.inverted import InvertedIndex
from repro.index.io import index_from_dict, index_to_dict
from repro.index.matchlists import ConceptIndex
from repro.index.pairs import PairIndex, build_pair_index
from repro.index.segments import SegmentedIndex
from repro.lexicon.graph import LexicalGraph
from repro.matching.pipeline import QueryMatcher
from repro.matching.queries import parse_query
from repro.matching.semantic import SemanticMatcher
from repro.obs.trace import (
    NULL_SPAN,
    Trace,
    current_trace,
    span as obs_span,
    use_trace,
)
from repro.retrieval.instrumentation import collect_join_stats
from repro.reliability.snapshot import read_snapshot, write_snapshot
from repro.retrieval.daat import daat_enabled, rank_top_k_daat
from repro.retrieval.topk_retrieval import RankedDocument, boundable, rank_top_k
from repro.text.document import Corpus, Document

__all__ = ["EXPLAIN_VERSION", "SearchSystem"]

#: Version stamp of the EXPLAIN report schema (docs/OBSERVABILITY.md
#: documents every field; bump on any incompatible change).
EXPLAIN_VERSION = 1

#: Span names whose durations become the EXPLAIN ``stages`` rows.
_EXPLAIN_STAGES = ("ask", "plan", "rank", "retrieval.pivot")


class SearchSystem:
    """An end-to-end proximity best-join search engine.

    Parameters
    ----------
    scoring:
        Default matchset scoring (the paper's MAX preset unless given).
    lexicon:
        Lexical graph for semantic matching and concept expansion
        (defaults to the built-in curated lexicon).
    data_dir:
        When given, the system is *durable*: the index is a
        :class:`~repro.index.segments.SegmentedIndex` rooted at this
        directory (WAL + sealed segments), every :meth:`add` /
        :meth:`remove` is acknowledged only once fsynced, and opening
        the same directory again recovers the exact acknowledged state.
    seal_threshold / merge_fanin:
        Durable-mode tuning, forwarded to :class:`SegmentedIndex`.
    """

    def __init__(
        self,
        *,
        scoring: ScoringFunction | None = None,
        lexicon: LexicalGraph | None = None,
        data_dir: str | pathlib.Path | None = None,
        seal_threshold: int = 2048,
        merge_fanin: int = 4,
    ) -> None:
        self.scoring = scoring or trec_max()
        self.lexicon = lexicon
        self.corpus = Corpus()
        if data_dir is not None:
            self.index: InvertedIndex | SegmentedIndex = SegmentedIndex.recover(
                data_dir,
                seal_threshold=seal_threshold,
                merge_fanin=merge_fanin,
            )
            for doc_id, text in self.index.stored_documents():
                self.corpus.add(Document(doc_id, text))
        else:
            self.index = InvertedIndex()
        self._durable = data_dir is not None
        self._concepts = ConceptIndex(self.index, lexicon=lexicon)
        self._generation = 0
        # Optional two-term proximity index (build_pair_index); consulted
        # by the DAAT path only while its generation matches.
        self._pair_index: PairIndex | None = None

    @classmethod
    def open(
        cls, data_dir: str | pathlib.Path, **options
    ) -> "SearchSystem":
        """Open (or create) a durable system at ``data_dir``.

        Recovery alias: replays the WAL over the newest valid manifest
        and rebuilds the corpus from the recovered live documents.
        """
        return cls(data_dir=data_dir, **options)

    # -- corpus management ---------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when backed by a WAL + segment directory."""
        return self._durable

    @property
    def supports_concurrent_writes(self) -> bool:
        """Whether appends may run concurrently with reads.

        Durable systems serialize mutations internally (the WAL lock)
        and key every read cache by :attr:`index_generation`, so the
        executor can apply appends without whole-index exclusivity.
        """
        return self._durable

    @property
    def index_generation(self) -> int:
        """Monotonic counter of index mutations.

        Increments on every :meth:`add` / :meth:`add_texts` /
        :meth:`remove` call and on :meth:`load`.  Rankings computed for a
        query are only valid within one generation: any cached result
        must be keyed on (or invalidated by) this counter, which is
        exactly what :class:`repro.service.ResultCache` does.  Durable
        systems derive it from the index's acknowledged WAL sequence —
        still monotonic, and now stable across restarts.
        """
        if self._durable:
            return self.index.generation
        return self._generation

    def add(self, *documents: Document) -> None:
        """Add documents (indexed immediately; durably when backed)."""
        if not documents:
            return
        if self._durable:
            # The index validates the whole batch, then acknowledges it
            # under one WAL group commit; only then does the corpus see
            # the documents (so a rejected batch changes nothing).
            self.index.add_documents(documents)
            for doc in documents:
                self.corpus.add(doc)
            return
        for doc in documents:
            self.corpus.add(doc)
            self.index.add_document(doc)
        self._generation += 1

    def add_texts(self, texts: Iterable[tuple[str, str]]) -> None:
        """Add ``(doc_id, text)`` pairs."""
        self.add(*(Document(doc_id, text) for doc_id, text in texts))

    def remove(self, doc_id: str) -> None:
        """Remove a document from the corpus and the index.

        Durable systems record the delete in the WAL (memtable removal
        or tombstone) before the corpus forgets the document.
        """
        if self._durable:
            self.index.remove_document(doc_id)
            self.corpus.remove(doc_id)
            return
        self.corpus.remove(doc_id)
        self.index.remove_document(doc_id)
        self._generation += 1

    def build_pair_index(
        self,
        terms: Iterable[str] | None = None,
        *,
        max_pairs: int = 32,
        min_pair_df: int = 2,
        max_entries: int = 100_000,
    ) -> PairIndex:
        """Precompute the two-term proximity index for the current corpus.

        ``terms`` is the candidate vocabulary — pass the terms of known
        hot queries for best effect; by default the ``2 · max_pairs``
        highest-document-frequency index keys are used (stemmed forms,
        which match query terms whose stem equals the surface form).
        The index is generation-stamped: it accelerates the DAAT path
        until the corpus next changes, after which it is ignored (never
        wrong) until rebuilt.  Budget caps (``max_pairs``,
        ``max_entries``) bound the offline cost; see
        :func:`repro.index.pairs.build_pair_index`.
        """
        if terms is None:
            terms = self.index.frequent_tokens(2 * max_pairs)
        self._pair_index = build_pair_index(
            self._concepts,
            terms,
            generation=self.index_generation,
            max_pairs=max_pairs,
            min_pair_df=min_pair_df,
            max_entries=max_entries,
        )
        return self._pair_index

    def __len__(self) -> int:
        return len(self.corpus)

    # -- querying --------------------------------------------------------------

    def _plan(self, query_text: str) -> tuple[Query, QueryMatcher | None]:
        """Parse the query; None matcher means the offline path applies."""
        with obs_span("plan") as sp:
            query, matchers = parse_query(query_text, lexicon=self.lexicon)
            offline = all(
                isinstance(m, SemanticMatcher) for m in matchers.values()
            )
            sp.set_tags(
                n_terms=len(matchers), path="offline" if offline else "online"
            )
            if offline:
                return query, None
            return query, QueryMatcher(query, matchers, lexicon=self.lexicon)

    def _per_document_lists(
        self,
        query: Query,
        matcher: QueryMatcher | None,
        memo: dict | None = None,
    ):
        if matcher is None:
            terms = list(query)
            # One generation read for the whole scan: concurrent durable
            # appends may bump it mid-iteration, and every cached list
            # must key on the same pre-scan value.
            generation = self.index_generation
            for doc_id in self._concepts.candidate_documents(terms):
                # Passing the generation turns on the index's persistent
                # list cache, so repeat queries reuse the same MatchList
                # objects — and with them the warm columnar kernels and
                # cached max-score bounds.
                yield doc_id, self._concepts.match_lists(
                    terms, doc_id, memo=memo, generation=generation
                )
        else:
            for doc in self.corpus:
                yield doc.doc_id, matcher.match_lists(doc)

    @staticmethod
    def _uses_daat(
        matcher: QueryMatcher | None, scoring: ScoringFunction, top_k: int | None
    ) -> bool:
        """Whether the DAAT cursor loop ranks this query: it needs a
        ``top_k``, the offline path, a boundable scoring family, and
        ``REPRO_NO_DAAT`` unset (read per call)."""
        return (
            top_k is not None
            and matcher is None
            and boundable(scoring)
            and daat_enabled()
        )

    def _rank(
        self,
        query: Query,
        matcher: QueryMatcher | None,
        scoring: ScoringFunction,
        *,
        top_k: int | None,
        avoid_duplicates: bool,
        memo: dict | None = None,
    ) -> list[RankedDocument]:
        """Rank one planned query through the one ranking loop.

        Where :meth:`_uses_daat` allows, the DAAT max-score loop
        (:func:`rank_top_k_daat`) aligns per-term cursors on conjunctive
        pivots and never materializes documents whose membership/pair
        bounds cannot beat the current k-floor.  Otherwise
        :func:`rank_top_k` scans the materialized candidate stream.
        Both hand every surviving document to the same
        :class:`~repro.retrieval.topk_retrieval.TopK` step, so they
        return the same scores in the same tie order.
        """
        daat = self._uses_daat(matcher, scoring, top_k)
        with obs_span(
            "rank",
            scoring=type(scoring).__name__,
            top_k=top_k,
            avoid_duplicates=avoid_duplicates,
            bounded=boundable(scoring),
            path="daat" if daat else "scan",
        ) as sp, collect_join_stats() as stats:
            if daat:
                assert top_k is not None
                ranked = rank_top_k_daat(
                    self._concepts,
                    query,
                    scoring,
                    top_k,
                    generation=self.index_generation,
                    avoid_duplicates=avoid_duplicates,
                    memo=memo,
                    pair_index=self._pair_index,
                )
            else:
                ranked = rank_top_k(
                    self._per_document_lists(query, matcher, memo=memo),
                    query,
                    scoring,
                    top_k,
                    avoid_duplicates=avoid_duplicates,
                )
            if sp is not NULL_SPAN:
                sp.set_tags(
                    candidates=stats.documents_scanned,
                    joins_run=stats.joins_run,
                    joins_skipped=stats.joins_skipped,
                    join_us=stats.join_ns // 1000,
                    dedup_invocations=stats.dedup_invocations,
                    documents_pivot_skipped=stats.documents_pivot_skipped,
                    pair_index_hits=stats.pair_index_hits,
                )
            return ranked

    def ask(
        self,
        query_text: str,
        *,
        top_k: int = 5,
        scoring: ScoringFunction | None = None,
        avoid_duplicates: bool = True,
        explain: bool = False,
    ):
        """Rank documents for a query-language query.

        ``avoid_duplicates=False`` skips the Section VI duplicate-free
        join — a cheaper, approximate ranking the serving layer falls
        back to when a request's deadline is nearly spent.

        ``explain=True`` returns ``(ranked, report)`` instead: the same
        ranking plus a structured plan report (schema version
        :data:`EXPLAIN_VERSION`, documented in docs/OBSERVABILITY.md)
        covering per-term statistics, DAAT pruning counters, index
        state, and per-stage timings.
        """
        ranked, report = self._ask_one(
            query_text,
            top_k=top_k,
            scoring=scoring or self.scoring,
            avoid_duplicates=avoid_duplicates,
            explain=explain,
        )
        if explain:
            return ranked, report
        return ranked

    def _ask_one(
        self,
        query_text: str,
        *,
        top_k: int | None,
        scoring: ScoringFunction,
        avoid_duplicates: bool,
        memo: dict | None = None,
        explain: bool = False,
    ) -> tuple[list[RankedDocument], dict | None]:
        """Plan + rank one query; optionally assemble its EXPLAIN report.

        The report is built from the query's own span subtree plus the
        scoped :class:`JoinStats`, so an EXPLAIN run measures exactly
        the work it reports.  When no recording trace is active a
        private (unreported) trace is opened just to capture the stage
        timings — EXPLAIN output does not depend on the sampling dice.
        """
        if not explain:
            with obs_span("ask"):
                query, matcher = self._plan(query_text)
                return (
                    self._rank(
                        query,
                        matcher,
                        scoring,
                        top_k=top_k,
                        avoid_duplicates=avoid_duplicates,
                        memo=memo,
                    ),
                    None,
                )
        generation = self.index_generation
        trace = current_trace()
        owns = not trace.is_recording
        if owns:
            trace = Trace("request", "explain")
        scope = use_trace(trace) if owns else contextlib.nullcontext()
        with scope:
            seen = len(trace.spans)
            with obs_span("ask"):
                with collect_join_stats() as stats:
                    query, matcher = self._plan(query_text)
                    ranked = self._rank(
                        query,
                        matcher,
                        scoring,
                        top_k=top_k,
                        avoid_duplicates=avoid_duplicates,
                        memo=memo,
                    )
            spans = trace.spans[seen:]
        if owns:
            trace.finish()
        report = self._explain_report(
            query_text,
            query,
            matcher,
            scoring,
            top_k=top_k,
            avoid_duplicates=avoid_duplicates,
            generation=generation,
            stats=stats,
            spans=spans,
            memo_shared=memo is not None,
        )
        return ranked, report

    def _explain_report(
        self,
        query_text: str,
        query: Query,
        matcher,
        scoring: ScoringFunction,
        *,
        top_k: int | None,
        avoid_duplicates: bool,
        generation: int,
        stats,
        spans,
        memo_shared: bool,
    ) -> dict:
        """Assemble the EXPLAIN report (see docs/OBSERVABILITY.md)."""
        terms = [str(term) for term in query]
        offline = matcher is None
        term_rows = []
        if offline:
            for j, term in enumerate(terms):
                postings = self._concepts.term_postings(term, generation)
                term_rows.append(
                    {
                        "term": term,
                        "df": postings.document_frequency,
                        "postings_len": len(postings),
                        "impact_ceiling": postings.ceiling(scoring, j),
                        "best_score": postings.max_score,
                    }
                )
        pair_index = self._pair_index
        pair_index_live = (
            pair_index is not None and pair_index.generation == generation
        )
        status = getattr(self.index, "status", None)
        if self._durable and callable(status):
            state = status()
            index_row = {
                "durable": True,
                "segments": state.get("segments", 0),
                "memtable_docs": state.get("memtable_docs", 0),
                "tombstones": state.get("tombstones", 0),
            }
        else:
            index_row = {
                "durable": False,
                "segments": 0,
                "memtable_docs": len(self.corpus),
                "tombstones": 0,
            }
        stage_rows = [
            {"stage": sp.name, "micros": sp.duration_ns // 1000}
            for sp in spans
            if sp.name in _EXPLAIN_STAGES
        ]
        return {
            "version": EXPLAIN_VERSION,
            "query": query_text,
            "generation": generation,
            "plan": {
                "path": "offline" if offline else "online",
                "ranking": (
                    "daat" if self._uses_daat(matcher, scoring, top_k) else "scan"
                ),
                "scoring": type(scoring).__name__,
                "top_k": top_k,
                "avoid_duplicates": avoid_duplicates,
                "n_terms": len(terms),
                "pair_index": pair_index_live,
            },
            "terms": term_rows,
            "daat": {
                "documents_scanned": stats.documents_scanned,
                "documents_pivot_skipped": stats.documents_pivot_skipped,
                "pair_index_hits": stats.pair_index_hits,
                "pair_bound_tightenings": stats.pair_bound_tightenings,
                "joins_run": stats.joins_run,
                "joins_skipped": stats.joins_skipped,
                "bound_skip_rate": stats.bound_skip_rate,
                "join_micros": stats.join_ns // 1000,
                "dedup_invocations": stats.dedup_invocations,
            },
            "index": index_row,
            "provenance": {
                # The serving layer overwrites result_cache with
                # hit/miss/bypass as appropriate; the system-level
                # default says no cache sat in front of this run.
                "result_cache": "none",
                "memo_shared": memo_shared,
            },
            "stages": stage_rows,
        }

    def ask_many(
        self,
        queries: Sequence[str],
        *,
        top_k: int = 5,
        scoring: ScoringFunction | None = None,
        avoid_duplicates: bool = True,
        traces: Sequence | None = None,
        explain: bool = False,
    ) -> list:
        """Rank documents for several queries in one pass.

        The batch hook behind :class:`repro.service.MicroBatcher`: all
        offline (index-derived) queries in the batch share one
        ``(term, doc_id) → MatchList`` memo, so a term appearing in
        several concurrent queries has its match lists materialized from
        the index once instead of once per query.  Results are
        guaranteed identical to calling :meth:`ask` per query — match
        lists are immutable, so sharing them cannot change a join.

        ``traces`` (one :class:`~repro.obs.Trace` per query, the
        executor's per-request contexts) activates each query's trace
        while that query is planned and ranked, so the system-level
        spans land on the right request even though the batch shares one
        thread.

        ``explain=True`` makes every element a ``(ranked, report)``
        pair, as :meth:`ask` with ``explain=True`` — the batch memo is
        still shared, and each report says so in its provenance block.
        """
        if traces is not None and len(traces) != len(queries):
            raise ValueError(
                f"traces/queries length mismatch: {len(traces)} != {len(queries)}"
            )
        memo: dict = {}
        results: list = []
        for position, query_text in enumerate(queries):
            scope = (
                use_trace(traces[position])
                if traces is not None
                else contextlib.nullcontext()
            )
            with scope:
                ranked, report = self._ask_one(
                    query_text,
                    top_k=top_k,
                    scoring=scoring or self.scoring,
                    avoid_duplicates=avoid_duplicates,
                    memo=memo,
                    explain=explain,
                )
            results.append((ranked, report) if explain else ranked)
        return results

    def extract(
        self,
        query_text: str,
        *,
        min_score: float | None = None,
        min_anchor_gap: int = 10,
        scoring: ScoringFunction | None = None,
    ) -> list[Extraction]:
        """All good matchsets across the corpus, best first."""
        query, matcher = self._plan(query_text)
        extractor = MatchsetExtractor(
            query,
            scoring or self.scoring,
            min_score=min_score,
            min_anchor_gap=min_anchor_gap,
            matcher=matcher or QueryMatcher(query, lexicon=self.lexicon),
        )
        results: list[Extraction] = []
        for doc_id, lists in self._per_document_lists(query, matcher):
            results.extend(
                extractor.extract_from_lists(doc_id, list(lists), self.corpus[doc_id])
            )
        results.sort(key=lambda e: (-e.score, e.doc_id, e.anchor))
        return results

    # -- persistence ------------------------------------------------------------

    #: System snapshot payload version (v1 = pre-envelope raw JSON).
    SNAPSHOT_VERSION = 2

    def save(self, path: str | pathlib.Path | None = None) -> None:
        """Persist corpus + index as one crash-safe snapshot file.

        Written atomically (temp file + fsync + rename) under a
        checksummed envelope, keeping the previous generation as
        ``<path>.bak`` — see :mod:`repro.reliability.snapshot`.

        A durable system called without a path checkpoints in place
        instead (seal + manifest + WAL truncation) — every acknowledged
        write is already on disk, so this only compacts the restart.
        With a path it writes a portable monolithic snapshot of the
        live view, loadable by :meth:`load` anywhere.
        """
        if path is None:
            if not self._durable:
                raise ValueError("save() needs a path for an in-memory system")
            self.index.checkpoint()
            return
        index = self.index.to_inverted_index() if self._durable else self.index
        payload = {
            "version": self.SNAPSHOT_VERSION,
            "documents": [
                {"id": doc.doc_id, "text": doc.text} for doc in self.corpus
            ],
            "index": index_to_dict(index),
        }
        write_snapshot(
            path, kind="system", version=self.SNAPSHOT_VERSION, payload=payload
        )

    def start_maintenance(self, interval_s: float = 1.0):
        """Start the durable index's background merge watchdog."""
        if not self._durable:
            raise ValueError("maintenance applies to durable systems only")
        return self.index.start_merger(interval_s)

    def attach_observability(self, *, metrics=None, logger=None, tracer=None) -> None:
        """Wire serving metrics/logger/tracer into the durable index
        (no-op for in-memory systems).  The tracer samples background
        work — seals, merges, recovery — into its finished-trace ring."""
        if self._durable:
            self.index.attach(metrics=metrics, logger=logger, tracer=tracer)

    def close(self) -> None:
        """Release durable resources (merger thread, WAL handle)."""
        if self._durable:
            self.index.close()

    @classmethod
    def load(
        cls,
        path: str | pathlib.Path,
        *,
        scoring: ScoringFunction | None = None,
        lexicon: LexicalGraph | None = None,
        fallback: bool = True,
    ) -> "SearchSystem":
        """Restore a system saved with :meth:`save`.

        A corrupt or missing primary falls back to the ``.bak``
        generation (disable with ``fallback=False``); malformed records
        raise :class:`~repro.core.io.SerializationError` rather than
        building a half-valid system.  Legacy (pre-envelope) files load
        transparently.
        """
        _, payload = read_snapshot(
            path, kind="system", versions=(1, cls.SNAPSHOT_VERSION), fallback=fallback
        )
        system = cls(scoring=scoring, lexicon=lexicon)
        try:
            records = payload["documents"]
            for record in records:
                system.corpus.add(Document(record["id"], record["text"]))
            index_payload = payload["index"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad system snapshot: {exc}") from exc
        system.index = index_from_dict(index_payload)
        system._concepts = ConceptIndex(system.index, lexicon=lexicon)
        # Loading replaces the whole index: a fresh-but-nonzero generation
        # so any cache keyed on the pre-load counter is invalid.
        system._generation += 1
        return system
