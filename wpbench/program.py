"""Run one benchmark workload against the system, in this process.

``run.py`` starts this script with a fixed ``PYTHONHASHSEED`` and hands
it only the generated inputs (a JSON file).  It sets the system up
several times, times identical rounds of a closed loop and then an open
loop, times recovery, and writes every answer it got to an operation
log that the reference replay checks.  With ``--trace 1`` it instead runs a fixed
number of operations in blocks that alternate between untraced and
traced (outside-in wrappers, see ``tracer.py``) and reports the
per-layer metrics.

Usage: python3 wpbench/program.py --inputs FILE --out FILE --work DIR
       --seconds N --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.cluster import ClusterExecutor
from repro.core.kernels import columnar
from repro.retrieval.instrumentation import JoinStats, collect_join_stats
from repro.service.executor import SCORING_PRESETS, QueryExecutor
from repro.service.server import SearchServer
from repro.system import SearchSystem
from repro.text.document import Document

import tracer as tracing
from oracle import encode

#: Set-ups per run; ``setup_s`` is their median.  ingest_query sets up
#: once per round instead.
SETUPS = {"ask_offline": 3, "serve_sharded": 3}
#: Timed rounds.  Every round runs the same operations from the same
#: state: CLOSED_OPS operations back to back, then OPEN_OPS more at
#: OPEN_RATE, well below capacity (the open loop is the latency figure
#: of serve_sharded; the other workloads report it too with a smaller
#: share).  ``--seconds`` sets the number of rounds, ``--seconds`` /
#: ROUND_SECONDS and at least MIN_ROUNDS: 5, 7 and 5 at 20 s, odd so
#: that each operation's median over the rounds is one of its repeats
#: (see :func:`rounds`).  ingest_query gets the most rounds because its
#: slowest asks vary most from round to round.
CLOSED_OPS = {"ask_offline": 330, "ingest_query": 200, "serve_sharded": 1_500}
OPEN_OPS = {"ask_offline": 30, "ingest_query": 10, "serve_sharded": 40}
OPEN_RATE = {"ask_offline": 40.0, "ingest_query": 10.0, "serve_sharded": 40.0}
#: The in-process open loops spin for the last SPIN_S before each due time.
SPIN_S = 0.002
ROUND_SECONDS = {"ask_offline": 4.0, "ingest_query": 2.8, "serve_sharded": 4.0}
MIN_ROUNDS = 3
#: Recovery samples per run (after every second round), and
#: the documents of the corpus that ask_offline and serve_sharded add to
#: a fresh system after each round, for ``ingest_docs_per_s``.
RECOVERIES = {"ask_offline": 3, "ingest_query": 4, "serve_sharded": 3}
ADD_DOCS = 2_000
#: ingest_query: durable-index tuning and the fixed merge schedule.
SEAL_THRESHOLD = 256
MERGE_FANIN = 4
#: Twice BLOCK, so every merge_once of the traced run lands in a traced
#: block.
MERGE_EVERY = 40
BASE_BATCH = 128
SHARDS = 2
#: Traced run: operations per workload, and per untraced/traced block.
TRACED_OPS = {"ask_offline": 800, "ingest_query": 200, "serve_sharded": 800}
BLOCK = 20
#: Warm pass: pool queries asked at the end of every set-up.
WARM_QUERIES = 110

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "throughput_qps": "1/s",
    "open_p50_ms": "ms",
    "ingest_docs_per_s": "1/s",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "matching.plan_ms": "ms",
    "index.matchlists.candidates_ms": "ms",
    "index.matchlists.materialize_ms": "ms",
    "index.matchlists.lists_built": "count",
    "index.matchlists.list_cache_hit_ratio": "ratio",
    "index.cursors.build_ms": "ms",
    "index.cursors.postings_built": "count",
    "index.pairs.build_ms": "ms",
    "core.kernels.lower_ms": "ms",
    "core.kernels.lowerings": "count",
    "core.algorithms.join_ms": "ms",
    "core.algorithms.joins_run": "count",
    "core.algorithms.dedup_invocations": "count",
    "retrieval.rank_self_ms": "ms",
    "retrieval.documents_scanned": "count",
    "retrieval.documents_pivot_skipped": "count",
    "retrieval.joins_skipped": "count",
    "retrieval.bound_skip_rate": "ratio",
    "retrieval.pair_index_hits": "count",
    "index.segments.wal_append_ms": "ms",
    "index.segments.wal_commit_ms": "ms",
    "index.segments.fsyncs": "count",
    "index.segments.seal_ms": "ms",
    "index.segments.seals": "count",
    "index.segments.merge_ms": "ms",
    "index.segments.merges": "count",
    "index.segments.bytes_written_per_input_byte": "ratio",
    "index.segments.postings_ms": "ms",
    "index.segments.recover_ms": "ms",
    "index.segments.wal_replay_records": "count",
    "service.executor.queue_wait_p50_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "service.batching.batch_size_mean": "count",
    "service.server.http_overhead_ms": "ms",
    "cluster.shard_rpc_p50_ms": "ms",
    "cluster.shard_rpc_p95_ms": "ms",
    "cluster.merge_ms": "ms",
    "cluster.merge_pulls_saved": "count",
    "bench.trace_overhead_pct": "%",
    "bench.machine_ref_ms": "ms",
    "bench.generator_late_p95_ms": "ms",
    "bench.open_p95_ms": "ms",
}

#: Layers that must fire in a workload's traced run (span names).
HEAVY = {
    "ask_offline": [
        "matching.plan",
        "retrieval.rank",
        "index.cursors.build",
        "index.pairs.build",
        "core.algorithms.join",
    ],
    "ingest_query": [
        "matching.plan",
        "index.matchlists.materialize",
        "index.cursors.build",
        "core.kernels.lower",
        "core.algorithms.join",
        "index.segments.wal_append",
        "index.segments.seal",
        "index.segments.merge",
        "index.segments.postings",
        "index.segments.recover",
    ],
    "serve_sharded": [
        "service.server.handle",
        "service.executor.process",
        "cluster.shard_rpc",
        "cluster.merge",
    ],
}


# -- measurement helpers --------------------------------------------------------


def machine_ref_ms() -> float:
    """Median time of a fixed pure-Python loop (CPU speed reference)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def busy_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of all CPUs so far, from /proc/stat;
    busy counts every tick a CPU was not idle, stolen ones included."""
    with open("/proc/stat", encoding="ascii") as stat:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(x) for x in stat.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq + steal, steal


class Stopwatch:
    """Wall time less the share of it the hypervisor stole.

    On a shared host the hypervisor runs other guests on this VM's CPUs
    in bursts that last from seconds to minutes (``steal`` in
    /proc/stat), which stretches every wall-clock figure by the share of
    busy CPU time it took.  :meth:`factor` is one minus that share since
    the stopwatch started; every timed figure is scaled by it."""

    def __init__(self) -> None:
        self.ticks = busy_ticks()
        self.began = time.perf_counter()

    def factor(self) -> float:
        busy, steal = (now - then for then, now in zip(self.ticks, busy_ticks()))
        return 1.0 - steal / busy if busy > 0 else 1.0

    def seconds(self) -> float:
        return (time.perf_counter() - self.began) * self.factor()


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def rss_mb(pids=()) -> float:
    """Peak resident memory of this process plus ``pids`` (VmHWM)."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


def written_bytes() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as io:
        for line in io:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def closed_loop(op, start: int, count: int):
    """Run ``op(start) .. op(start + count - 1)`` back to back; returns
    (latencies, elapsed seconds)."""
    latencies = []
    begin = end = time.perf_counter()
    for i in range(start, start + count):
        op(i)
        now = time.perf_counter()
        latencies.append(now - end)
        end = now
    return latencies, end - begin


def open_loop(op, start: int, count: int, rate: float):
    """Issue ``op(start) .. op(start + count - 1)`` on a fixed schedule
    from one thread; returns (latencies, lateness).

    Latency runs from when each operation was due, so a stall is also
    charged to the operations queued behind it; ``late`` is how far the
    generator itself ran behind the schedule.
    """
    latencies, late = [], []
    begin = time.perf_counter()
    for k in range(count):
        due = begin + k / rate
        # Sleep to just short of the due time, then spin: a sleeping
        # thread wakes up late by a varying amount on a busy host.
        now = time.perf_counter()
        if now < due - SPIN_S:
            time.sleep(due - SPIN_S - now)
        while time.perf_counter() < due:
            pass
        late.append(time.perf_counter() - due)
        op(start + k)
        latencies.append(time.perf_counter() - due)
    return latencies, late


def in_process(op):
    """The closed and open phases of :func:`rounds` for an in-process
    operation ``op(i)``."""
    return (
        lambda start, count: closed_loop(op, start, count),
        lambda start, count, rate: open_loop(op, start, count, rate),
    )


def rounds(workload: str, seconds: float, closed_phase, open_phase, before=None, after=None):
    """Identical timed rounds: ``closed_phase(0, CLOSED_OPS)`` then
    ``open_phase(CLOSED_OPS, OPEN_OPS, OPEN_RATE)``, each returning its
    latencies in operation order (and the closed loop's elapsed seconds,
    the open loop's lateness).  ``before(number)`` and ``after(number)``
    run around each round, outside the timed phases, and must leave the
    next round the same state.

    A round's times are scaled by its :class:`Stopwatch` factor.  Each
    operation's latency is the median of its repeats over the rounds,
    and the percentiles are taken over those; throughput is the median
    round's.  Returns (figures, typical closed-loop latencies,
    closed samples, open samples, lateness)."""
    closed_ops = CLOSED_OPS[workload]
    count = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))
    closed, opened, late, rates = [], [], [], []
    for number in range(count):
        if before is not None:
            before(number)
        gc.collect()
        watch = Stopwatch()
        latencies, elapsed = closed_phase(0, closed_ops)
        waits, behind = open_phase(closed_ops, OPEN_OPS[workload], OPEN_RATE[workload])
        factor = watch.factor()
        if after is not None:
            after(number)
        closed.append([latency * factor for latency in latencies])
        opened.append([wait * factor for wait in waits])
        late += behind
        rates.append(closed_ops / (elapsed * factor))
    typical = [statistics.median(repeats) for repeats in zip(*closed)]
    typical_open = [statistics.median(repeats) for repeats in zip(*opened)]
    figures = {
        "query_p50_ms": quantile(typical, 50) * 1e3,
        "query_p95_ms": quantile(typical, 95) * 1e3,
        "throughput_qps": statistics.median(rates),
        "open_p50_ms": quantile(typical_open, 50) * 1e3,
    }
    flat = [latency for latencies in closed for latency in latencies]
    return figures, typical, flat, [w for waits in opened for w in waits], late


def fresh_documents(rows):
    return [Document(doc_id, text) for doc_id, text in rows]


def add_rate(inputs) -> float:
    """Documents per second inside ``SearchSystem.add`` of the first
    :data:`ADD_DOCS` documents of the corpus into a fresh system."""
    documents = fresh_documents(inputs["documents"][:ADD_DOCS])
    gc.collect()
    watch = Stopwatch()
    SearchSystem().add(*documents)
    return len(documents) / watch.seconds()


class Probe:
    """Program-side counters read at the start and end of traced blocks."""

    def __init__(self, cache=None) -> None:
        self.cache = cache
        self.totals = {"lowerings": 0, "hits": 0, "misses": 0, "evictions": 0, "wchar": 0}

    def _read(self):
        stats = self.cache.stats() if self.cache is not None else {}
        return {
            "lowerings": columnar.STATS.lowerings,
            "hits": stats.get("hits", 0),
            "misses": stats.get("misses", 0),
            "evictions": stats.get("evictions", 0),
            "wchar": written_bytes(),
        }

    def begin(self) -> None:
        self._start = self._read()

    def end(self) -> None:
        now = self._read()
        for key, value in now.items():
            self.totals[key] += value - self._start[key]


class Trace:
    """The traced run's tracer, hooks and program counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pairs_build_ms = 0.0
        self.setup_fired = set()
        self._reset()
        hooks = {
            "index.matchlists.lookup": self._on_lookup,
            "service.batching.plan": self._on_plan,
            "service.executor.process": self._on_process,
            "cluster.merge": self._on_merge,
            "index.segments.merge": self._on_segment_merge,
        }
        self.tracer = tracing.Tracer(hooks, scopes={"retrieval.ask": self._join_scope})
        self.probe = Probe()

    def _reset(self) -> None:
        self.join = JoinStats()
        self.lookups_requested = 0
        self.batches = []
        self.queue_waits = []
        self.pulls_saved = 0
        self.merges_done = 0

    @contextlib.contextmanager
    def _join_scope(self):
        """Scope the program's JoinStats to one traced ask, on whichever
        thread runs it, and fold them into the run's totals."""
        with collect_join_stats() as stats:
            yield
        with self._lock:
            self.join.add(stats)

    @contextlib.contextmanager
    def setup_phase(self):
        """Trace a set-up: keep only the pair-index build time, so the
        per-query figures cover the operations alone."""
        with self.tracer.installed():
            yield
        totals = self.tracer.totals()
        self.setup_fired = set(totals)
        self.pairs_build_ms = totals.get("index.pairs.build", {}).get("total_ms", 0.0)
        self.tracer.spans.clear()
        self._reset()

    # Hooks run on whichever thread called the wrapped function.

    def _on_lookup(self, args, kwargs, result):
        with self._lock:
            self.lookups_requested += len(result)

    def _on_plan(self, args, kwargs, result):
        with self._lock:
            self.batches.extend(len(batch) for batch in result)

    def _on_process(self, args, kwargs, result):
        requests = args[1] if isinstance(args[1], (list, tuple)) else [args[1]]
        with self._lock:
            self.queue_waits.extend(r.queue_wait_s for r in requests)

    def _on_merge(self, args, kwargs, result):
        with self._lock:
            self.pulls_saved += result.pulls_saved

    def _on_segment_merge(self, args, kwargs, result):
        with self._lock:
            self.merges_done += bool(result)

    def blocks(self, op, start: int, count: int):
        """Run ops ``start .. start+count-1`` in blocks of :data:`BLOCK`,
        every second block traced; (untraced, traced) latency lists."""
        plain, traced = [], []
        for first in range(start, start + count, BLOCK):
            on = (first - start) // BLOCK % 2 == 1
            if on:
                self.probe.begin()
                self.tracer.install()
            try:
                for i in range(first, min(first + BLOCK, start + count)):
                    began = time.perf_counter()
                    op(i)
                    (traced if on else plain).append(time.perf_counter() - began)
            finally:
                if on:
                    self.tracer.restore()
                    self.probe.end()
        return plain, traced

    def metrics(self, queries: int, *, plain, traced, extra) -> dict:
        totals = self.tracer.totals()

        def self_ms(name):
            return totals.get(name, {}).get("self_ms", 0.0)

        def total_ms(name):
            return totals.get(name, {}).get("total_ms", 0.0)

        def count(name):
            return totals.get(name, {}).get("count", 0)

        q = max(queries, 1)
        join = self.join
        built_in_lookup = sum(
            1
            for span in self.tracer.spans
            if span[0] == "index.matchlists.materialize"
            and span[5] == "index.matchlists.lookup"
        )
        requested = self.lookups_requested
        probe = self.probe.totals
        lookups = probe["hits"] + probe["misses"]
        rpc = self.tracer.durations_ms("cluster.shard_rpc")
        handled = self.tracer.durations_ms("service.server.handle")
        processed = self.tracer.durations_ms("service.executor.process")
        overhead = 0.0
        if handled and processed:
            overhead = statistics.mean(handled) - (
                statistics.mean(processed) + statistics.mean(self.queue_waits) * 1e3
            )
        values = {
            "matching.plan_ms": self_ms("matching.plan") / q,
            "index.matchlists.candidates_ms": self_ms("index.matchlists.candidates") / q,
            "index.matchlists.materialize_ms": (
                self_ms("index.matchlists.lookup") + self_ms("index.matchlists.materialize")
            ) / q,
            "index.matchlists.lists_built": count("index.matchlists.materialize") / q,
            "index.matchlists.list_cache_hit_ratio": (
                1.0 - built_in_lookup / requested if requested else 0.0
            ),
            "index.cursors.build_ms": self_ms("index.cursors.build") / q,
            "index.cursors.postings_built": count("index.cursors.build") / q,
            "index.pairs.build_ms": self.pairs_build_ms,
            "core.kernels.lower_ms": self_ms("core.kernels.lower") / q,
            "core.kernels.lowerings": probe["lowerings"] / q,
            "core.algorithms.join_ms": self_ms("core.algorithms.join") / q,
            "core.algorithms.joins_run": join.joins_run / q,
            "core.algorithms.dedup_invocations": join.dedup_invocations / q,
            "retrieval.rank_self_ms": self_ms("retrieval.rank") / q,
            "retrieval.documents_scanned": join.documents_scanned / q,
            "retrieval.documents_pivot_skipped": join.documents_pivot_skipped / q,
            "retrieval.joins_skipped": join.joins_skipped / q,
            "retrieval.bound_skip_rate": join.bound_skip_rate,
            "retrieval.pair_index_hits": join.pair_index_hits / q,
            "index.segments.wal_append_ms": total_ms("index.segments.wal_append"),
            "index.segments.wal_commit_ms": total_ms("index.segments.wal_commit"),
            "index.segments.fsyncs": count("index.segments.fsync"),
            "index.segments.seal_ms": total_ms("index.segments.seal"),
            "index.segments.seals": count("index.segments.seal"),
            "index.segments.merge_ms": total_ms("index.segments.merge"),
            "index.segments.merges": self.merges_done,
            "index.segments.bytes_written_per_input_byte": 0.0,
            "index.segments.postings_ms": self_ms("index.segments.postings") / q,
            "index.segments.recover_ms": total_ms("index.segments.recover"),
            "index.segments.wal_replay_records": count("index.segments.replay"),
            "service.executor.queue_wait_p50_ms": (
                statistics.median(self.queue_waits) * 1e3 if self.queue_waits else 0.0
            ),
            "service.cache.hit_ratio": probe["hits"] / lookups if lookups else 0.0,
            "service.cache.evictions": probe["evictions"],
            "service.batching.batch_size_mean": (
                statistics.mean(self.batches) if self.batches else 0.0
            ),
            "service.server.http_overhead_ms": overhead,
            "cluster.shard_rpc_p50_ms": quantile(rpc, 50) if rpc else 0.0,
            "cluster.shard_rpc_p95_ms": quantile(rpc, 95) if rpc else 0.0,
            "cluster.merge_ms": self_ms("cluster.merge") / q,
            "cluster.merge_pulls_saved": self.pulls_saved / q,
            "bench.trace_overhead_pct": (
                (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
            ),
        }
        values.update(extra)
        return values

    def fired(self, workload: str) -> list[str]:
        """Heavy layers of ``workload`` that recorded no span."""
        fired = set(self.tracer.totals()) | self.setup_fired
        return [name for name in HEAVY[workload] if name not in fired]


# -- workloads --------------------------------------------------------------------


def hot_terms(inputs):
    """The terms of the hot queries (the pair index's vocabulary)."""
    return sorted(
        {
            term.strip()
            for q in inputs["queries"]
            if q["hot"]
            for term in q["text"].split(",")
        }
    )


def run_ask_offline(inputs, args):
    queries = inputs["queries"]
    stream = inputs["stream"]
    top_k = inputs["top_k"]
    scorings = {name: make() for name, make in SCORING_PRESETS.items()}
    pair_terms = hot_terms(inputs)
    log = []

    def setup():
        documents = fresh_documents(inputs["documents"])
        gc.collect()
        watch = Stopwatch()
        system = SearchSystem()
        system.add(*documents)
        system.build_pair_index(pair_terms)
        for q in queries[:WARM_QUERIES]:
            system.ask(q["text"], top_k=top_k, scoring=scorings[q["preset"]])
        return system, watch.seconds()

    def ask(i):
        index = stream[i % len(stream)]
        q = queries[index]
        ranked = system.ask(q["text"], top_k=top_k, scoring=scorings[q["preset"]])
        log.append({"q": index, "answer": encode(ranked)})

    if args.trace:
        trace = Trace()
        with trace.setup_phase():
            system, _ = setup()
        plain, traced = trace.blocks(ask, 0, TRACED_OPS["ask_offline"])
        opened, late = open_loop(
            ask, len(log), OPEN_OPS["ask_offline"], OPEN_RATE["ask_offline"]
        )
        metrics = trace.metrics(
            len(traced),
            plain=plain,
            traced=traced,
            extra={
                "bench.generator_late_p95_ms": quantile(late, 95) * 1e3,
                "bench.open_p95_ms": quantile(opened, 95) * 1e3,
            },
        )
        return metrics, log, trace

    setups, rates = [], []
    for _ in range(SETUPS["ask_offline"]):
        system = None  # free the previous build first
        system, seconds = setup()
        setups.append(seconds)
    snapshot = os.path.join(args.work, "system.snapshot")
    system.save(snapshot)
    reloads = []

    def after(number):
        """An add sample after every round and a snapshot reload
        (``recovery_s``) after every second one, so both are sampled
        across the run."""
        rates.append(add_rate(inputs))
        if number % 2 == 0 and len(reloads) < RECOVERIES["ask_offline"]:
            gc.collect()
            watch = Stopwatch()
            SearchSystem.load(snapshot)
            reloads.append(watch.seconds())

    timed = rounds("ask_offline", args.seconds, *in_process(ask), after=after)
    peak = rss_mb()
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_docs_per_s": statistics.median(rates),
        "recovery_s": statistics.median(reloads),
        "peak_rss_mb": peak,
    }
    hot = [queries[stream[i]]["hot"] for i in range(CLOSED_OPS["ask_offline"])]
    return loop_metrics(metrics, timed, hot), log, None


def loop_metrics(metrics, timed, hot=None):
    """Add the loop figures of ``timed``, the result of :func:`rounds`;
    ``hot`` flags each closed-loop operation's query class, to report
    which class the p95 tail holds."""
    figures, typical, closed, opened, late = timed
    if hot is not None:
        p95 = quantile(typical, 95)
        tail = [h for latency, h in zip(typical, hot) if latency > p95]
        metrics["hot_share_above_p95"] = sum(tail) / max(len(tail), 1)
    metrics.update(figures)
    metrics.update(
        {
            "samples": len(closed),
            "open_samples": len(opened),
            "open_p95_ms": quantile(opened, 95) * 1e3,
            "generator_late_p95_ms": quantile(late, 95) * 1e3,
        }
    )
    return metrics


def run_ingest_query(inputs, args):
    queries = inputs["queries"]
    stream = inputs["stream"]
    writes = inputs["writes"]
    top_k = inputs["top_k"]
    log = []
    asks = []
    step_bytes = {}
    live = {}

    def open_system(path):
        return SearchSystem.open(
            path, seal_threshold=SEAL_THRESHOLD, merge_fanin=MERGE_FANIN
        )

    def setup(number):
        """A fresh durable index with the base corpus, behind an executor,
        after a warm pass; returns the set-up time."""
        path = os.path.join(args.work, f"data-{number}")
        documents = fresh_documents(inputs["documents"])
        gc.collect()
        watch = Stopwatch()
        system = open_system(path)
        executor = QueryExecutor(system, workers=2, watchdog_interval=0, tracer=None)
        for start in range(0, len(documents), BASE_BATCH):
            executor.ingest(*documents[start : start + BASE_BATCH])
        for q in queries[:WARM_QUERIES]:
            executor.ask(q["text"], top_k=top_k, scoring=q["preset"])
        seconds = watch.seconds()
        live.update(path=path, system=system, executor=executor, write_s=0.0, docs=0)
        live["round"] = Stopwatch()
        return seconds

    def step(i, merge=True):
        executor = live["executor"]
        write = writes[i]
        began = time.perf_counter()
        if write["op"] == "ingest":
            documents = fresh_documents(write["documents"])
            executor.ingest(*documents)
            live["docs"] += len(documents)
            step_bytes[i] = sum(len(d.text.encode()) for d in documents)
        else:
            executor.delete(write["doc_id"])
        live["write_s"] += time.perf_counter() - began
        if merge and i % MERGE_EVERY == MERGE_EVERY - 1:
            live["system"].index.merge_once()
        index = stream[i % len(stream)]
        q = queries[index]
        began = time.perf_counter()
        response = executor.ask(q["text"], top_k=top_k, scoring=q["preset"])
        asks.append(time.perf_counter() - began)
        entry = {"step": i, "q": index, "answer": encode(response.results)}
        if response.degraded:
            entry["bad"] = "degraded"
        log.append(entry)

    def close():
        live["executor"].shutdown()
        live["system"].close()

    if args.trace:
        trace = Trace()
        setup(0)
        trace.probe.cache = live["executor"].cache
        plain, traced = trace.blocks(step, 0, TRACED_OPS["ingest_query"])
        traced_input = sum(
            size for i, size in step_bytes.items() if i // BLOCK % 2 == 1
        )
        opened, late = open_loop(
            lambda i: step(i, merge=False),
            len(log),
            OPEN_OPS["ingest_query"],
            OPEN_RATE["ingest_query"],
        )
        close()
        with trace.tracer.installed():
            open_system(live["path"]).close()
        metrics = trace.metrics(
            len(traced),
            plain=plain,
            traced=traced,
            extra={
                "index.segments.bytes_written_per_input_byte": (
                    trace.probe.totals["wchar"] / traced_input
                ),
                "bench.generator_late_p95_ms": quantile(late, 95) * 1e3,
                "bench.open_p95_ms": quantile(opened, 95) * 1e3,
            },
        )
        return metrics, log, trace

    setups, rates, reopens = [], [], []

    def before(number):
        setups.append(setup(number))

    def closed_phase(start, count):
        del asks[:]
        _, elapsed = closed_loop(step, start, count)
        # Query latency is the ask alone, not the write before it.
        return list(asks), elapsed

    def after(number):
        """Close the round's index and, after every second round, time
        its reopen: segments plus the WAL tail of the open loop's steps,
        the same every round."""
        close()
        rates.append(live["docs"] / (live["write_s"] * live["round"].factor()))
        if number % 2 == 0 and len(reopens) < RECOVERIES["ingest_query"]:
            gc.collect()
            watch = Stopwatch()
            reopened = open_system(live["path"])
            reopens.append(watch.seconds())
            reopened.close()
        shutil.rmtree(live["path"])

    # The open loop times whole steps (write, ask) from when each was
    # due; merges run on the closed loop's schedule only, so one merge
    # of about 1 s does not swamp the paced steps.
    timed = rounds(
        "ingest_query",
        args.seconds,
        closed_phase,
        in_process(lambda i: step(i, merge=False))[1],
        before=before,
        after=after,
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_docs_per_s": statistics.median(rates),
        "recovery_s": statistics.median(reopens),
        "peak_rss_mb": rss_mb(),
    }
    hot = [queries[stream[i]]["hot"] for i in range(CLOSED_OPS["ingest_query"])]
    return loop_metrics(metrics, timed, hot), log, None


class LoadGenerator:
    """The HTTP load-generator process, driven one command at a time."""

    def __init__(self, url: str, requests, top_k: int) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(here, "loadgen.py"), url, str(top_k)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.send({"cmd": "load", "requests": requests})

    def send(self, command: dict) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited early")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.send({"cmd": "quit"})
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
            self.process.wait(timeout=30)


def run_serve_sharded(inputs, args):
    queries = inputs["queries"]
    stream = inputs["stream"]
    top_k = inputs["top_k"]
    requests = [[queries[i]["text"], queries[i]["preset"]] for i in stream]
    log = []
    trace = Trace() if args.trace else None

    def setup():
        documents = fresh_documents(inputs["documents"])
        gc.collect()
        watch = Stopwatch()
        system = SearchSystem()
        system.add(*documents)
        executor = ClusterExecutor(
            system, shards=SHARDS, coordinators=2, watchdog_interval=0, tracer=None
        )
        server = SearchServer(executor).start()
        seen = set()
        for i in stream:
            if len(seen) >= WARM_QUERIES:
                break
            if i not in seen:
                seen.add(i)
                q = queries[i]
                executor.ask(q["text"], top_k=top_k, scoring=q["preset"])
        return executor, server, watch.seconds()

    def record(reply):
        for position, latency, ok, answer in reply["records"]:
            entry = {"q": stream[position % len(stream)], "answer": answer}
            if ok is not True:
                entry["bad"] = ok
            log.append(entry)

    setups, rates = [], []
    executor = server = None
    for _ in range(1 if trace else SETUPS["serve_sharded"]):
        if server is not None:
            server.close()
            executor.shutdown()
        if trace is not None:
            with trace.tracer.suspended():
                executor, server, seconds = setup()
        else:
            executor, server, seconds = setup()
        setups.append(seconds)
    generator = LoadGenerator(server.url, requests, top_k)

    def closed_phase(start, count):
        reply = generator.send({"cmd": "closed", "start": start, "count": count})
        record(reply)
        return [r[1] for r in reply["records"]], reply["elapsed"]

    def open_phase(start, count, rate):
        reply = generator.send({"cmd": "open", "start": start, "count": count, "rate": rate})
        record(reply)
        late = [x / 1e3 for x in reply["late_ms"]]
        return [r[1] for r in reply["records"]], late

    try:
        if trace is not None:
            trace.probe.cache = executor.cache
            plain, traced = trace.blocks(
                lambda i: closed_phase(i, 1), 0, TRACED_OPS["serve_sharded"]
            )
            opened, late = open_phase(
                TRACED_OPS["serve_sharded"], OPEN_OPS["serve_sharded"], OPEN_RATE["serve_sharded"]
            )
            metrics = trace.metrics(
                len(traced),
                plain=plain,
                traced=traced,
                extra={
                    "bench.generator_late_p95_ms": quantile(late, 95) * 1e3,
                    "bench.open_p95_ms": quantile(opened, 95) * 1e3,
                },
            )
            return metrics, log, trace
        # Every round starts from an empty result cache.
        timed = rounds(
            "serve_sharded",
            args.seconds,
            closed_phase,
            open_phase,
            before=lambda number: executor.cache.clear(),
            after=lambda number: rates.append(add_rate(inputs)),
        )
    finally:
        generator.close()
    pids = [shard["pid"] for shard in executor.shard_health()]
    peak = rss_mb(pids)
    recoveries = []
    for k in range(RECOVERIES["serve_sharded"]):
        gc.collect()
        recoveries.append(recover_shard(executor, queries[0], top_k + 1 + k))
    server.close()
    executor.shutdown()
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_docs_per_s": statistics.median(rates),
        "recovery_s": statistics.median(recoveries),
        "peak_rss_mb": peak,
    }
    return loop_metrics(metrics, timed), log, None


def recover_shard(executor, query, top_k: int) -> float:
    """SIGKILL shard 0, respawn it, and time until an exact answer from
    every shard (a top_k no request used, so the result cache misses)."""
    pid = executor.shard_health()[0]["pid"]
    watch = Stopwatch()
    os.kill(pid, signal.SIGKILL)
    while executor.shard_health()[0]["alive"]:
        time.sleep(0.001)
    executor.check_shards()
    while True:
        response = executor.ask(query["text"], top_k=top_k, scoring=query["preset"], timeout=30)
        if not response.degraded and response.shards_failed == 0:
            return watch.seconds()
        top_k += RECOVERIES["serve_sharded"]


WORKLOADS = {
    "ask_offline": run_ask_offline,
    "ingest_query": run_ingest_query,
    "serve_sharded": run_serve_sharded,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    # The inputs are the harness's data, not the program's: keep them
    # out of the collector's scans of the program's heap.
    gc.collect()
    gc.freeze()
    workload = inputs["workload"]
    reference_before = machine_ref_ms()
    watch = Stopwatch()
    metrics, log, trace = WORKLOADS[workload](inputs, args)
    stolen = 1.0 - watch.factor()
    machine = (reference_before + machine_ref_ms()) / 2
    result = {"workload": workload, "log": log}
    if trace is None:
        metrics["machine_ref_ms"] = machine
        # Share of this VM's busy CPU time the hypervisor gave to
        # others while the workload ran: the noise machine_ref_ms cannot
        # see, taken out of every timed figure (Stopwatch).
        metrics["steal_pct"] = 100.0 * stolen
        result["metrics"] = metrics
    else:
        metrics["bench.machine_ref_ms"] = machine
        result["metrics"] = metrics
        result["unfired"] = trace.fired(workload)
        trace.tracer.write(os.path.join(args.work, "spans.tsv"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
