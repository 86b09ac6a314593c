"""Sharded multi-process serving: scatter-gather threshold-merge top-k.

Pure-Python joins are GIL-bound, so one process can use at most ~one
core no matter how many worker threads :class:`~repro.service.QueryExecutor`
spawns.  This subsystem breaks that ceiling by partitioning the corpus
into N document shards, each owned by a worker *process*, and putting a
coordinator in front (see ``docs/SERVING.md``):

* :mod:`.sharding` — the deterministic document-hash sharder
  (:func:`shard_of`, :func:`partition_documents`): every document lives
  in exactly one shard, stable across processes and restarts;
* :mod:`.worker` — the shard worker: one ``multiprocessing`` process
  owning one :class:`~repro.system.SearchSystem` over its partition,
  serving ``query`` / ``healthz`` / ``snapshot`` / ``shutdown``
  messages over a pipe (length-prefixed pickle — the
  ``multiprocessing.Connection`` wire format);
* :mod:`.merge` — the Fagin/Lotem/Naor threshold-algorithm merge
  (:func:`threshold_merge`): per-shard k-best streams sorted by score
  are consumed through a max-heap threshold, stopping as soon as no
  unpulled entry can reach the global top-k (the pulls it never makes
  are the ``merge_pulls_saved`` metric);
* :mod:`.coordinator` — :class:`ClusterExecutor`, the serving core
  (:class:`~repro.service.QueryExecutor`) with the sharded execution
  step: it scatters each batch to every live shard, gathers the
  shard-local k-best lists and threshold-merges them — degrading to a
  *partial* answer from the surviving shards when a shard dies or its
  circuit breaker is open, while the core's watchdog respawns dead
  shard processes.

Exact (non-partial) answers are byte-identical to single-process
:meth:`SearchSystem.ask ` on the same corpus: document-hash sharding
assigns every document to one shard, each shard's local k-best is exact
over its partition, and the threshold merge's ``(-score, doc_id)`` key
is the same total order the single-process ranking sorts by.
"""

from repro.cluster.coordinator import (
    ClusterExecutor,
    ClusterMutationError,
    ShardError,
    ShardsUnavailable,
)
from repro.cluster.merge import MergeResult, threshold_merge
from repro.cluster.sharding import partition_documents, shard_of
from repro.cluster.worker import shard_worker_main

__all__ = [
    "ClusterExecutor",
    "ClusterMutationError",
    "MergeResult",
    "ShardError",
    "ShardsUnavailable",
    "partition_documents",
    "shard_of",
    "shard_worker_main",
    "threshold_merge",
]
