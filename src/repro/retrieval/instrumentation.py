"""Thread-local join instrumentation for the retrieval layer.

The ranking loop is the hot path of the serving stack: one survivor
step, :class:`repro.retrieval.topk_retrieval.TopK`, fed either by the
scan over materialized candidates
(:func:`~repro.retrieval.topk_retrieval.rank_top_k`) or by the DAAT
cursor loop (:func:`~repro.retrieval.daat.rank_top_k_daat`).  This
module lets a caller observe it without changing its signatures.

:func:`collect_join_stats` installs a :class:`JoinStats` collector for
the current thread; when a ranking loop finishes, it adds to it once

* ``joins_run`` — best-joins actually executed,
* ``joins_skipped`` — candidate documents pruned by an upper-bound
  test without running a join (the WAND-style skip; empty-list
  documents count as neither),
* ``join_ns`` — wall-clock nanoseconds spent inside best-join calls,
* ``dedup_invocations`` — best-join invocations behind the kept
  results, counting the duplicate-elimination restarts of Section VI
  (``RankedDocument.invocations`` summed over kept documents),
* ``documents_scanned`` — candidate documents enumerated: every
  document of the scanned stream, or every aligned DAAT pivot,
* ``documents_pivot_skipped`` — pivot documents pruned by the
  membership/pair bounds *before* match-list materialization,
* ``pair_index_hits`` — candidate documents the two-term proximity
  index supplied a tighter bound or pre-joined lists for,
* ``pair_bound_tightenings`` — pivots whose pair-proximity bound was
  strictly tighter than the membership bound.

Collectors nest: on exit, an inner collector's totals are folded into
the outer one, so a per-request measurement inside a per-process
measurement counts once in each.  The state is per-thread, matching the
one-request-per-worker-thread model of :mod:`repro.service`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["JoinStats", "collect_join_stats", "current_join_stats"]


class JoinStats:
    """Mutable counters for one instrumentation scope."""

    __slots__ = (
        "joins_run",
        "joins_skipped",
        "join_ns",
        "dedup_invocations",
        "documents_scanned",
        "documents_pivot_skipped",
        "pair_index_hits",
        "pair_bound_tightenings",
    )

    def __init__(self) -> None:
        self.joins_run = 0
        self.joins_skipped = 0
        self.join_ns = 0
        # Total best-join invocations behind the *kept* results,
        # including the Section VI duplicate-elimination restarts
        # (``RankedDocument.invocations`` summed over kept documents).
        self.dedup_invocations = 0
        # Candidates enumerated (scan: every document; DAAT: aligned pivots).
        self.documents_scanned = 0
        # DAAT retrieval-path counters (zero on the scan path).
        self.documents_pivot_skipped = 0
        self.pair_index_hits = 0
        # Pivots whose pair-proximity bound came in strictly below the
        # membership bound (the gap actually tightened the test).
        self.pair_bound_tightenings = 0

    @property
    def bound_skip_rate(self) -> float:
        """Fraction of bound-checked candidates pruned without a join."""
        considered = self.joins_run + self.joins_skipped
        return self.joins_skipped / considered if considered else 0.0

    def add(self, other: "JoinStats") -> None:
        self.joins_run += other.joins_run
        self.joins_skipped += other.joins_skipped
        self.join_ns += other.join_ns
        self.dedup_invocations += other.dedup_invocations
        self.documents_scanned += other.documents_scanned
        self.documents_pivot_skipped += other.documents_pivot_skipped
        self.pair_index_hits += other.pair_index_hits
        self.pair_bound_tightenings += other.pair_bound_tightenings

    def snapshot(self) -> dict:
        return {
            "joins_run": self.joins_run,
            "joins_skipped": self.joins_skipped,
            "join_ns": self.join_ns,
            "dedup_invocations": self.dedup_invocations,
            "bound_skip_rate": self.bound_skip_rate,
            "documents_scanned": self.documents_scanned,
            "documents_pivot_skipped": self.documents_pivot_skipped,
            "pair_index_hits": self.pair_index_hits,
            "pair_bound_tightenings": self.pair_bound_tightenings,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinStats(run={self.joins_run}, skipped={self.joins_skipped}, "
            f"ns={self.join_ns})"
        )


_local = threading.local()


def current_join_stats() -> JoinStats | None:
    """The active collector for this thread, or None."""
    return getattr(_local, "stats", None)


@contextmanager
def collect_join_stats() -> Iterator[JoinStats]:
    """Collect join statistics for the duration of the ``with`` block."""
    outer = getattr(_local, "stats", None)
    stats = JoinStats()
    _local.stats = stats
    try:
        yield stats
    finally:
        _local.stats = outer
        if outer is not None:
            outer.add(stats)
