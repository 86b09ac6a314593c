"""The serving core: one request lifecycle, two execution steps.

:class:`QueryExecutor` owns everything a served query goes through
between ``submit`` and its delivered :class:`QueryResponse`, whatever
computes the ranking:

* **Admission control** — ``submit()`` never blocks: when the backlog is
  full the request is rejected immediately (:class:`QueryRejected`), so
  overload produces fast failures instead of unbounded queueing.
* **Deadlines** — each request may carry a timeout.  A request whose
  deadline expires while queued fails with :class:`DeadlineExceeded`
  without running its join.
* **Graceful degradation** — a request close to its deadline (less than
  ``degradation_margin`` of its budget left) is answered with the
  cheaper approximate join (``avoid_duplicates=False``, skipping the
  Section VI duplicate-elimination loop) and marked ``degraded``.
* **Result caching** — exact results are cached keyed on (normalized
  query, scoring preset, index generation, top-k); see
  :mod:`repro.service.cache`.  Degraded results are never cached, and a
  failing cache degrades to a miss (fail-open) rather than failing the
  request.
* **Micro-batching** — workers drain the backlog and execute
  term-sharing groups together; see :mod:`repro.service.batching`.
* **Consistent mutation** — :meth:`apply` runs a mutator under a write
  lock while queries hold read locks, so a ranking never observes a
  half-applied mutation and every cached entry's generation is exact.
* **Fault tolerance** — repeated failures of the exact join open a
  per-scoring-family :class:`~repro.reliability.CircuitBreaker` that
  sheds load to the degraded join; a :class:`~repro.reliability.Watchdog`
  respawns dead or stalled workers; :meth:`shutdown` stops admission,
  drains in-flight work within an optional budget, then fails the rest
  with :class:`ShutdownDrained`.  :meth:`health` feeds the server's
  ``/readyz`` probe.

The one step that differs between topologies is :meth:`_run_join`,
which turns an admitted group into rankings.  Here it is the local
step: :meth:`SearchSystem.ask_many` over the shared match-list memo,
with transient failures retried under exponential backoff and jitter.
:class:`~repro.cluster.ClusterExecutor` replaces it with the sharded
step (scatter to shard processes, threshold merge) and inherits the
rest.

Exact responses are byte-identical to the serial ``SearchSystem.ask``
path: caching keys on the index generation, batching shares only
immutable match lists, and degradation only triggers under deadline
pressure, an open breaker, or a failed shard.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence, TypeVar

from repro.core.scoring.base import ScoringFunction
from repro.core.scoring.presets import trec_max, trec_med, trec_win
from repro.matching.queries import QuerySyntaxError
from repro.obs.log import StructuredLogger
from repro.obs.trace import NULL_TRACE, Span, Tracer, current_trace, use_trace
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import FAULTS, InjectedFault, TransientFault
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.reliability.watchdog import Watchdog
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.ranking import RankedDocument
from repro.service.batching import MicroBatcher
from repro.service.cache import ResultCache, make_key
from repro.service.metrics import ServiceMetrics
from repro.system import SearchSystem

__all__ = [
    "DeadlineExceeded",
    "QueryExecutor",
    "QueryRejected",
    "QueryResponse",
    "SCORING_PRESETS",
    "ShutdownDrained",
]

T = TypeVar("T")

SCORING_PRESETS: dict[str, Callable[[], ScoringFunction]] = {
    "win": trec_win,
    "med": trec_med,
    "max": trec_max,
}


class QueryRejected(RuntimeError):
    """Admission control refused the request (backlog full or shut down)."""


class ShutdownDrained(QueryRejected):
    """The executor shut down before this request could be served."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired before it could be executed."""


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """One served query: the ranking plus how it was produced."""

    query_text: str
    results: tuple[RankedDocument, ...]
    cached: bool
    degraded: bool
    generation: int
    latency_s: float
    # Cluster provenance (repro.cluster); 0/0 on the single-process path.
    shards_total: int = 0
    shards_failed: int = 0
    # EXPLAIN report (``submit(..., explain=True)``); None otherwise.
    # Schema: repro.system.EXPLAIN_VERSION / docs/OBSERVABILITY.md.
    explain: dict | None = None


@dataclass(slots=True)
class _Request:
    query_text: str
    top_k: int
    scoring_name: str
    scoring: ScoringFunction | None
    timeout_s: float | None
    deadline: float | None
    submitted_at: float
    future: Future = field(default_factory=Future)
    # Observability context, carried *with* the request across the
    # queue handoff (explicit object, not a thread-local): the trace,
    # whether the executor owns its lifecycle (it created it), and the
    # cross-thread spans begun on one thread and finished on another.
    trace: Any = NULL_TRACE
    owns_trace: bool = False
    queue_span: Span | None = None
    batch_span: Span | None = None
    exec_started_at: float | None = None
    join_s: float | None = None
    # EXPLAIN request: bypass the result cache and attach a plan report.
    explain: bool = False
    explain_report: dict | None = None
    cache_key: Hashable | None = None
    # Set by the sharded execution step: shards that did not answer
    # (a partial answer is degraded and never cached), and the entries
    # the threshold merge never pulled.
    shards_failed: int = 0
    merge_pulls_saved: int | None = None

    @property
    def batch_key(self) -> Hashable:
        return (self.scoring_name, self.top_k)

    @property
    def queue_wait_s(self) -> float:
        if self.exec_started_at is None:
            return 0.0
        return max(0.0, self.exec_started_at - self.submitted_at)


@dataclass(slots=True)
class _WorkerSlot:
    """One worker position: its live thread plus watchdog bookkeeping."""

    index: int
    thread: threading.Thread | None = None
    replaced: bool = False
    state: str = "idle"  # idle | busy | dead
    beat_at: float = 0.0


class _ReadWriteLock:
    """Writer-preferring read/write lock (stdlib has none).

    Queries share read access; :meth:`QueryExecutor.apply` mutations take
    exclusive write access.  Writers block new readers, so a stream of
    queries cannot starve an ``add()``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


_SENTINEL: Any = object()


class QueryExecutor:
    """Thread-pooled, deadline-aware, caching, self-healing query server.

    Parameters
    ----------
    system:
        The search system to serve.  Mutate it through :meth:`apply` —
        direct mutation while queries are in flight is not synchronized.
    workers:
        Worker threads.  Joins are pure Python (GIL-bound), so workers
        buy pipelining and isolation rather than CPU parallelism.
    queue_size:
        Backlog bound; ``submit`` beyond it raises :class:`QueryRejected`.
    cache_size:
        Result-cache capacity; ``0`` disables caching.
    default_timeout:
        Deadline budget (seconds) applied when ``submit`` gets no
        explicit timeout; ``None`` means untimed.
    degradation_margin:
        Fraction of the timeout budget below which a request falls back
        to the approximate join.  ``0`` disables degradation.
    max_batch:
        Micro-batch bound; ``1`` disables batching.
    batch_wait_s:
        Batch collection window.  ``0`` (default, latency-optimized)
        batches only what is already queued; ``> 0``
        (throughput-optimized) lets a worker wait up to this long for
        the backlog to fill before executing, amortizing per-request
        overhead across the batch at the cost of adding up to the
        window to an isolated request's latency.  A full batch departs
        immediately, so under load the effective wait tends to zero.
    watchdog_interval:
        Seconds between worker health sweeps (dead/stalled workers are
        respawned); ``0`` disables the watchdog thread —
        :meth:`check_workers` can still be called manually.
    stall_timeout_s:
        A worker busy on one batch for longer than this is considered
        stuck: a replacement is spawned and the stuck thread retires
        when its batch finally finishes.
    breaker_threshold / breaker_reset_s:
        Per-scoring-family circuit breaker: consecutive exact-join
        failures before opening, and how long to stay open before a
        half-open probe.
    retry:
        :class:`RetryPolicy` for transient exact-join failures.
    tracer:
        Span collection (:mod:`repro.obs`): every request gets a trace
        whose spans cover queueing, batching, cache lookups, and the
        join itself.  Defaults to a fresh always-sampling
        :class:`~repro.obs.Tracer`; pass one with a lower
        ``sample_rate`` to trace a fraction of requests, or ``None``
        to disable tracing entirely.
    logger:
        Structured JSON event log (:class:`~repro.obs.StructuredLogger`):
        one ``request`` event per served query plus breaker, retry, and
        fault-injection events.  ``None`` (default) logs nothing.
    slow_query_ms:
        Requests slower than this (end to end, milliseconds) also emit
        a ``slow_query`` warning event; ``None`` disables the slow log.
    """

    _UNSET: Any = object()
    #: Shard processes behind the execution step (0: it runs in-process).
    num_shards: int = 0

    def __init__(
        self,
        system: SearchSystem,
        *,
        workers: int = 4,
        queue_size: int = 64,
        cache_size: int = 1024,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        default_timeout: float | None = None,
        degradation_margin: float = 0.25,
        max_batch: int = 8,
        batch_wait_s: float = 0.0,
        watchdog_interval: float = 1.0,
        stall_timeout_s: float = 30.0,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = _UNSET,
        logger: StructuredLogger | None = None,
        slow_query_ms: float | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if queue_size <= 0:
            raise ValueError(f"queue_size must be positive, got {queue_size}")
        if not 0.0 <= degradation_margin < 1.0:
            raise ValueError(
                f"degradation_margin must be in [0, 1), got {degradation_margin}"
            )
        if batch_wait_s < 0:
            raise ValueError(f"batch_wait_s must be >= 0, got {batch_wait_s}")
        if watchdog_interval < 0:
            raise ValueError(
                f"watchdog_interval must be >= 0, got {watchdog_interval}"
            )
        if stall_timeout_s <= 0:
            raise ValueError(f"stall_timeout_s must be positive, got {stall_timeout_s}")
        self.system = system
        self.cache = cache if cache is not None else (
            ResultCache(cache_size) if cache_size > 0 else None
        )
        self.metrics = metrics or ServiceMetrics()
        self.tracer = Tracer() if tracer is self._UNSET else tracer
        self.logger = logger
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError(f"slow_query_ms must be >= 0, got {slow_query_ms}")
        self.slow_query_ms = slow_query_ms
        self._fault_listener = None
        if logger is not None:
            # Fault injections anywhere on this request path get logged
            # with the active trace id (removed again at shutdown).
            def _on_fault(point: str, mode: str) -> None:
                logger.warning(
                    "fault.injected",
                    point=point,
                    mode=mode,
                    trace_id=current_trace().trace_id or None,
                )

            self._fault_listener = _on_fault
            FAULTS.add_listener(_on_fault)
        self.batcher = MicroBatcher(max_batch=max_batch) if max_batch > 1 else None
        self.batch_wait_s = batch_wait_s
        self.default_timeout = default_timeout
        self.degradation_margin = degradation_margin
        self.retry_policy = retry or RetryPolicy(
            max_attempts=3, base_delay_s=0.02, max_delay_s=0.25
        )
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stall_timeout_s = stall_timeout_s
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._rwlock = _ReadWriteLock()
        self._state_lock = threading.Lock()
        self._closed = False
        self._draining = False
        self._slots: list[_WorkerSlot] = []
        # Every worker thread ever spawned (originals + watchdog respawns);
        # shutdown joins them all so nothing is orphaned.
        self._threads: list[threading.Thread] = []
        # Before the worker threads start, so a backend that forks
        # processes does not copy them.
        self._start_backend()
        for index in range(workers):
            self._slots.append(self._spawn_worker(index))
        self._watchdog = (
            Watchdog(
                self.check_workers,
                interval_s=watchdog_interval,
                name="repro-exec-watchdog",
            ).start()
            if watchdog_interval > 0
            else None
        )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        query_text: str,
        *,
        top_k: int = 5,
        scoring: str | None = None,
        timeout: float | None = None,
        trace: Any = None,
        explain: bool = False,
    ) -> "Future[QueryResponse]":
        """Enqueue one query; never blocks.

        ``scoring`` is a preset name (``win``/``med``/``max``) or None
        for the system default.  Raises :class:`QueryRejected` when the
        backlog is full or the executor is shut down.

        ``trace`` attaches an existing :class:`~repro.obs.Trace` (the
        HTTP server passes the one it opened; the caller then owns its
        lifecycle).  Without one, the executor starts a trace from its
        own tracer and finishes it when the response is delivered.

        ``explain=True`` attaches a structured plan report
        (:attr:`QueryResponse.explain`); the request bypasses the
        result-cache read so the counters describe a real execution.
        """
        if self._closed:
            raise QueryRejected("executor is shut down")
        if scoring is not None and scoring not in SCORING_PRESETS:
            raise ValueError(
                f"unknown scoring preset {scoring!r}; "
                f"expected one of {sorted(SCORING_PRESETS)}"
            )
        timeout_s = self.default_timeout if timeout is None else timeout
        owns_trace = trace is None
        if trace is None:
            tags: dict[str, Any] = {
                "query": query_text,
                "scoring": scoring or "default",
                "top_k": top_k,
            }
            if self.num_shards:
                tags["shards"] = self.num_shards
            trace = (
                self.tracer.trace("request", **tags)
                if self.tracer is not None
                else NULL_TRACE
            )
        now = time.monotonic()
        request = _Request(
            query_text=query_text,
            top_k=top_k,
            scoring_name=scoring or "default",
            scoring=SCORING_PRESETS[scoring]() if scoring else None,
            timeout_s=timeout_s,
            deadline=now + timeout_s if timeout_s is not None else None,
            submitted_at=now,
            trace=trace,
            owns_trace=owns_trace,
            explain=explain,
        )
        request.queue_span = trace.begin(
            "queue", parent=trace.root, depth_at_submit=self._queue.qsize()
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.metrics.increment("rejected_total")
            request.queue_span.finish()
            trace.root.set_tag("outcome", "shed")
            self._log_request(
                request, "shed", level="warning", reason="backlog_full"
            )
            if owns_trace:
                trace.finish()
            raise QueryRejected(
                f"backlog full ({self._queue.maxsize} pending)"
            ) from None
        self.metrics.increment("requests_total")
        self.metrics.set_queue_depth(self._queue.qsize())
        return request.future

    def ask(
        self,
        query_text: str,
        *,
        top_k: int = 5,
        scoring: str | None = None,
        timeout: float | None = None,
    ) -> QueryResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            query_text, top_k=top_k, scoring=scoring, timeout=timeout
        ).result()

    def apply(
        self, mutator: Callable[[SearchSystem], T], *, exclusive: bool = True
    ) -> T:
        """Run a mutation (by default exclusively — no query observes it
        half-done).

        ``mutator`` receives the system; e.g.
        ``executor.apply(lambda s: s.add(doc))``.  Afterwards, cache
        entries from older generations are dropped eagerly.

        ``exclusive=False`` runs the mutator under the *read* side of
        the query lock — concurrent with in-flight queries.  Only sound
        for systems that serialize mutations internally and key reads
        by generation (``system.supports_concurrent_writes``): a query
        racing the append ranks against either the old or the new
        generation, both consistent, and its cached result is keyed by
        the generation it actually read.
        """
        if exclusive:
            with self._rwlock.write():
                result = mutator(self.system)
        else:
            with self._rwlock.read():
                result = mutator(self.system)
        if self.cache is not None:
            try:
                self.cache.drop_older_generations(self.system.index_generation)
            except Exception:
                self.metrics.increment("cache_errors")
        return result

    def ingest(self, *documents) -> int:
        """Add documents through the mutation path; returns the new
        generation.

        Durable systems take the non-exclusive path: the WAL lock
        serializes writers, queries keep flowing.
        """
        exclusive = not getattr(self.system, "supports_concurrent_writes", False)
        def add(system: SearchSystem) -> int:
            system.add(*documents)
            return system.index_generation
        return self.apply(add, exclusive=exclusive)

    def delete(self, doc_id: str) -> int:
        """Remove one document through the mutation path; returns the
        new generation.  Always exclusive: the corpus drop and the
        index tombstone must be observed atomically by the online
        (matcher) query path, which scans the corpus directly.
        """
        def remove(system: SearchSystem) -> int:
            system.remove(doc_id)
            return system.index_generation
        return self.apply(remove)

    # -- health ---------------------------------------------------------------

    def health(self) -> dict:
        """A structured health report (the ``/readyz`` backing data).

        ``ready`` means the executor is accepting work and at least one
        serving unit (a worker thread, or a shard process in cluster
        mode) is alive; ``status`` is ``ok`` / ``degraded`` (some units
        down or a breaker not closed) / ``unhealthy``.
        """
        with self._state_lock:
            closed = self._closed
            draining = self._draining
        shards = self.shard_health()
        workers, breakers, open_breakers = self._capacity(shards)
        accepting = not closed
        ready = accepting and workers["alive"] > 0
        if not ready:
            status = "unhealthy"
        elif workers["alive"] < workers["configured"] or open_breakers:
            status = "degraded"
        else:
            status = "ok"
        report: dict[str, Any] = {
            "status": status,
            "ready": ready,
            "accepting": accepting,
            "draining": draining,
        }
        if shards:
            report["shards"] = shards
        report["workers"] = workers
        report["queue"] = {
            "depth": self._queue.qsize(),
            "capacity": self._queue.maxsize,
        }
        if breakers is not None:
            report["breakers"] = breakers
        report["open_breakers"] = open_breakers
        return report

    def shard_health(self) -> list[dict]:
        """Per-shard status (the ``/healthz`` detail); empty in-process."""
        return []

    def _capacity(
        self, shards: list[dict]
    ) -> tuple[dict, dict | None, list[str]]:
        """(``workers`` report, breaker snapshots, open breaker names)
        for :meth:`health`: the worker pool and the per-family breakers."""
        with self._state_lock:
            slots = list(self._slots)
            breakers = {name: br.snapshot() for name, br in self._breakers.items()}
        alive = sum(
            1 for slot in slots if slot.thread is not None and slot.thread.is_alive()
        )
        open_breakers = sorted(
            name for name, snap in breakers.items() if snap["state"] != "closed"
        )
        workers = {
            "configured": len(slots),
            "alive": alive,
            "restarts": self.metrics.count("worker_restarts"),
        }
        return workers, breakers, open_breakers

    def check_workers(self) -> dict:
        """One watchdog sweep: respawn dead workers, replace stalled ones.

        Runs on the watchdog thread every ``watchdog_interval`` seconds;
        callable directly for deterministic tests.  Returns what it did.
        """
        restarted = stalled = 0
        with self._state_lock:
            if self._closed:
                return {"restarted": 0, "stalled": 0}
            now = time.monotonic()
            for slot in list(self._slots):
                if slot.thread is None or not slot.thread.is_alive():
                    self._slots[slot.index] = self._spawn_worker(slot.index)
                    restarted += 1
                elif (
                    slot.state == "busy"
                    and now - slot.beat_at > self._stall_timeout_s
                    and not slot.replaced
                ):
                    # Python threads cannot be killed: abandon the stuck
                    # one (it retires after its batch) and staff the slot.
                    slot.replaced = True
                    self._slots[slot.index] = self._spawn_worker(slot.index)
                    restarted += 1
                    stalled += 1
        if restarted:
            self.metrics.increment("worker_restarts", restarted)
        if stalled:
            self.metrics.increment("workers_stalled", stalled)
        return {"restarted": restarted, "stalled": stalled}

    # -- lifecycle -----------------------------------------------------------

    def shutdown(
        self, wait: bool = True, *, drain_timeout: float | None = None
    ) -> None:
        """Stop admission, drain, stop workers; idempotent.

        Already-queued requests are still served (graceful drain).  With
        a ``drain_timeout``, requests still queued when the budget
        expires fail with :class:`ShutdownDrained` instead of hanging
        their futures.  Safe to call from several threads or repeatedly;
        later calls join the same teardown.
        """
        with self._state_lock:
            first = not self._closed
            self._closed = True
            self._draining = True
        if first:
            if self._watchdog is not None:
                # Stop the watchdog *before* counting workers so a
                # concurrent sweep cannot spawn one that gets no sentinel.
                self._watchdog.stop()
            remaining = sum(1 for thread in self._threads if thread.is_alive())
            while remaining > 0:
                try:
                    self._queue.put_nowait(_SENTINEL)
                    remaining -= 1
                except queue.Full:
                    # Full backlog: wait for a live worker to make room;
                    # with none left there is nobody to signal anyway.
                    if not any(t.is_alive() for t in self._threads):
                        break
                    time.sleep(0.01)
        if wait:
            deadline = (
                time.monotonic() + drain_timeout if drain_timeout is not None else None
            )
            for thread in self._threads:
                if deadline is None:
                    thread.join()
                else:
                    thread.join(max(0.0, deadline - time.monotonic()))
            # Anything still queued can no longer be served — every
            # worker is either joined or past its drain budget.  Fail
            # those futures with a structured error instead of letting
            # them hang.
            dropped = self._fail_pending("executor shut down before execution")
            if dropped:
                self.metrics.increment("drain_dropped", dropped)
            self._stop_backend()
        if first and self._fault_listener is not None:
            FAULTS.remove_listener(self._fault_listener)
            self._fault_listener = None
        with self._state_lock:
            self._draining = False

    def _fail_pending(self, reason: str) -> int:
        """Fail every request still queued; sentinels are put back."""
        pending: list[_Request] = []
        sentinels = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SENTINEL:
                sentinels += 1
            else:
                pending.append(item)
        for _ in range(sentinels):
            self._queue.put(_SENTINEL)
        dropped = 0
        for request in pending:
            if not request.future.done():
                if request.queue_span is not None:
                    request.queue_span.finish()
                self._fail(request, ShutdownDrained(reason), "shed")
                dropped += 1
        return dropped

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # -- execution backend ---------------------------------------------------

    def _start_backend(self) -> None:
        """Bring up what :meth:`_run_join` runs on (nothing in-process)."""

    def _stop_backend(self) -> None:
        """Release it again once the workers are joined; idempotent."""

    # -- worker internals ----------------------------------------------------

    def _spawn_worker(self, index: int) -> _WorkerSlot:
        slot = _WorkerSlot(index=index, beat_at=time.monotonic())
        thread = threading.Thread(
            target=self._worker_loop,
            args=(slot,),
            name=f"repro-query-{index}",
            daemon=True,
        )
        slot.thread = thread
        self._threads.append(thread)
        thread.start()
        return slot

    def _drain_backlog(self, first: _Request) -> list[_Request]:
        """The request just taken plus whatever else is (or soon becomes)
        ready, bounded by ``max_batch`` and the collection window."""
        backlog = [first]
        if self.batcher is None:
            return backlog
        window_end = (
            time.monotonic() + self.batch_wait_s if self.batch_wait_s > 0 else None
        )
        while len(backlog) < self.batcher.max_batch:
            try:
                if window_end is None:
                    item = self._queue.get_nowait()
                else:
                    remaining = window_end - time.monotonic()
                    if remaining <= 0:
                        item = self._queue.get_nowait()
                    else:
                        item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SENTINEL:
                # Not ours to consume mid-batch; hand it back for the
                # worker that will exit next.
                self._queue.put(item)
                break
            backlog.append(item)
        return backlog

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        try:
            while True:
                # Chaos hook: an armed ``worker.loop`` fault raises here,
                # at the idle point, simulating a worker death without
                # taking an in-flight request down with it.
                FAULTS.inject("worker.loop")
                slot.state = "idle"
                slot.beat_at = time.monotonic()
                item = self._queue.get()
                if item is _SENTINEL:
                    break
                if slot.replaced:
                    # A watchdog replacement took this slot; hand the
                    # request to a live worker and retire.
                    try:
                        self._queue.put_nowait(item)
                    except queue.Full:
                        if not item.future.done():
                            self._fail(
                                item,
                                QueryRejected("worker retired with a full backlog"),
                                "shed",
                            )
                    break
                slot.state = "busy"
                slot.beat_at = time.monotonic()
                backlog = self._drain_backlog(item)
                self.metrics.set_queue_depth(self._queue.qsize())
                plans = (
                    self.batcher.plan(backlog)
                    if self.batcher
                    else [[r] for r in backlog]
                )
                for batch in plans:
                    try:
                        self._execute_batch(batch)
                    except BaseException as exc:  # never kill the worker
                        self.metrics.increment("errors_total", len(batch))
                        for request in batch:
                            if not request.future.done():
                                self._fail(request, exc, "error")
                if slot.replaced:
                    break
        # repro: ignore[except-swallowed] simulated crash — the watchdog
        # finds the dead slot and restarts the worker
        except InjectedFault:
            pass
        finally:
            slot.state = "dead"

    # -- execution -----------------------------------------------------------

    def _log_request(
        self, request: _Request, outcome: str, *, level: str = "info", **extra: Any
    ) -> None:
        """One structured ``request`` event (plus the slow-query log)."""
        if self.logger is None or not self.logger.enabled:
            return
        latency_ms = (time.monotonic() - request.submitted_at) * 1e3
        fields = {
            "trace_id": request.trace.trace_id or None,
            "query": request.query_text,
            "scoring": request.scoring_name,
            "top_k": request.top_k,
            "outcome": outcome,
            "latency_ms": round(latency_ms, 3),
            "queue_ms": round(request.queue_wait_s * 1e3, 3),
            "join_ms": (
                round(request.join_s * 1e3, 3) if request.join_s is not None else None
            ),
            **extra,
        }
        self.logger.log("request", level=level, **fields)
        if (
            self.slow_query_ms is not None
            and latency_ms >= self.slow_query_ms
            and outcome not in ("shed",)
        ):
            self.logger.warning(
                "slow_query", threshold_ms=self.slow_query_ms, **fields
            )

    def _fail(
        self,
        request: _Request,
        exc: BaseException,
        outcome: str,
        *,
        level: str = "warning",
    ) -> None:
        """Fail one request's future with full observability teardown."""
        request.trace.root.set_tag("outcome", outcome)
        if request.batch_span is not None:
            request.batch_span.finish()
        self._log_request(
            request, outcome, level=level, error=type(exc).__name__
        )
        if request.owns_trace:
            request.trace.finish()
        if not request.future.done():
            request.future.set_exception(exc)

    def _finish(self, request: _Request, response: QueryResponse) -> None:
        self.metrics.observe_latency(response.latency_s)
        outcome = "degraded" if response.degraded else "ok"
        request.trace.root.set_tags(
            outcome=outcome,
            cached=response.cached,
            generation=response.generation,
        )
        shard_fields: dict[str, Any] = {}
        if response.shards_total:
            request.trace.root.set_tag("shards_failed", response.shards_failed)
            shard_fields = {
                "shards_total": response.shards_total,
                "shards_failed": response.shards_failed,
            }
            if request.merge_pulls_saved is not None:
                shard_fields["merge_pulls_saved"] = request.merge_pulls_saved
        if request.batch_span is not None:
            request.batch_span.finish()
        self._log_request(
            request,
            outcome,
            cached=response.cached,
            generation=response.generation,
            **shard_fields,
        )
        if request.owns_trace:
            request.trace.finish()
        request.future.set_result(response)

    def _breaker(self, scoring_name: str) -> CircuitBreaker:
        with self._state_lock:
            breaker = self._breakers.get(scoring_name)
            if breaker is None:
                breaker = self._breakers[scoring_name] = self._new_breaker(
                    scoring_name
                )
            return breaker

    def _new_breaker(self, family: str) -> CircuitBreaker:
        """A breaker for one scoring family (or, in a cluster, one shard)."""
        on_transition = None
        if self.logger is not None:
            # Every state change becomes one structured event carrying
            # the trace id active when it happened.
            def on_transition(old: str, new: str) -> None:
                self.logger.warning(
                    "breaker.transition",
                    family=family,
                    old_state=old,
                    new_state=new,
                    trace_id=current_trace().trace_id or None,
                )

        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            reset_timeout_s=self._breaker_reset_s,
            on_transition=on_transition,
        )

    def _cache_get(self, key: Hashable) -> Any | None:
        """Result-cache lookup that fails open (a broken cache is a miss)."""
        if self.cache is None:
            return None
        try:
            return self.cache.get(key)
        except Exception:
            self.metrics.increment("cache_errors")
            return None

    def _cache_put(self, key: Hashable, value: Any) -> None:
        if self.cache is None:
            return
        try:
            self.cache.put(key, value)
        except Exception:
            self.metrics.increment("cache_errors")

    def _run_join(
        self, group: Sequence[_Request], *, avoid_duplicates: bool
    ) -> list[list[RankedDocument] | None]:
        """The execution step: one ranking per request of a homogeneous
        group, or ``None`` for a request the step has already failed.

        Locally the group runs through one :meth:`SearchSystem.ask_many`
        call, retrying transient exact failures.  A malformed request
        (bad query, bad ``top_k``) fails that call for the whole group,
        so the group is then run one request at a time: only the bad
        request fails, and gets ``None``.  Alone, it raises.

        Every request in the group gets its own ``join`` span (same
        wall-clock interval — the join is shared across the batch), and
        its trace is handed to :meth:`SearchSystem.ask_many` so the
        system-level spans (``ask``/``plan``/``rank``) land on the right
        trace, anchored under that request's join span.
        """
        family = group[0].scoring_name
        wants_explain = any(r.explain for r in group)
        attempts = 0

        def attempt() -> list[list[RankedDocument]]:
            nonlocal attempts
            attempts += 1
            spans = []
            for request in group:
                join_span = request.trace.begin(
                    "join",
                    parent=request.batch_span,
                    family=family,
                    exact=avoid_duplicates,
                    batch_size=len(group),
                    attempt=attempts,
                )
                request.trace.push(join_span)
                spans.append(join_span)
            started = time.perf_counter()
            try:
                if avoid_duplicates:
                    # The fault point models the expensive Section VI join
                    # failing; the approximate join is the recovery path and
                    # stays uninstrumented.  The representative trace is
                    # active so an injected fault logs its trace id.
                    with use_trace(group[0].trace):
                        FAULTS.inject("join.execute")
                with collect_join_stats() as join_stats:
                    answers = self.system.ask_many(
                        [r.query_text for r in group],
                        top_k=group[0].top_k,
                        scoring=group[0].scoring,
                        avoid_duplicates=avoid_duplicates,
                        traces=[r.trace for r in group],
                        explain=wants_explain,
                    )
                if wants_explain:
                    # The whole group ran with reports; attach them only
                    # where the caller asked (co-batched plain requests
                    # stay plain).
                    rankings = []
                    for request, (ranked, report) in zip(group, answers):
                        rankings.append(ranked)
                        if request.explain:
                            request.explain_report = report
                else:
                    rankings = answers
            except BaseException as exc:
                for request, join_span in zip(group, spans):
                    request.trace.pop()
                    join_span.set_tag("error", type(exc).__name__).finish()
                raise
            elapsed = time.perf_counter() - started
            self.metrics.observe_join(family, elapsed)
            self.metrics.increment("joins_run", join_stats.joins_run)
            self.metrics.increment("joins_skipped", join_stats.joins_skipped)
            self.metrics.increment("join_micros", join_stats.join_ns // 1000)
            self.metrics.increment("joins_executed", len(group))
            self.metrics.increment("documents_scanned", join_stats.documents_scanned)
            self.metrics.increment(
                "documents_pivot_skipped", join_stats.documents_pivot_skipped
            )
            self.metrics.increment("pair_index_hits", join_stats.pair_index_hits)
            for request, join_span in zip(group, spans):
                request.trace.pop()
                request.join_s = elapsed
                join_span.set_tags(
                    joins_run=join_stats.joins_run,
                    joins_skipped=join_stats.joins_skipped,
                    join_micros=join_stats.join_ns // 1000,
                    dedup_invocations=join_stats.dedup_invocations,
                ).finish()
            return rankings

        def on_retry(attempt_no: int, exc: BaseException, delay_s: float) -> None:
            self.metrics.increment("retries_total")
            if self.logger is not None:
                self.logger.warning(
                    "join.retry",
                    family=family,
                    attempt=attempt_no,
                    delay_s=round(delay_s, 4),
                    error=type(exc).__name__,
                    trace_id=group[0].trace.trace_id or None,
                )

        try:
            if not avoid_duplicates:
                return attempt()
            return call_with_retry(
                attempt,
                self.retry_policy,
                retry_on=(TransientFault,),
                on_retry=on_retry,
            )
        except (QuerySyntaxError, ValueError):
            if len(group) == 1:
                raise
        rankings: list[list[RankedDocument] | None] = []
        for request in group:
            try:
                rankings += self._run_join(
                    [request], avoid_duplicates=avoid_duplicates
                )
            except (QuerySyntaxError, ValueError) as exc:
                self.metrics.increment("errors_total")
                self._fail(request, exc, "error")
                rankings.append(None)
        return rankings

    def _deliver(
        self,
        group: Sequence[_Request],
        rankings: Sequence[Sequence[RankedDocument] | None],
        generation: int,
        *,
        exact: bool,
    ) -> None:
        for request, ranking in zip(group, rankings):
            if ranking is None:
                continue  # the execution step already failed it
            results = tuple(ranking)
            # A partial answer (some shard did not answer) is degraded.
            full = exact and not request.shards_failed
            if not full:
                self.metrics.increment("degraded_responses")
            elif request.cache_key is not None:
                with use_trace(request.trace):
                    self._cache_put(request.cache_key, results)
            report = request.explain_report
            if report is not None:
                # The request skipped the cache read on purpose; record
                # that so the report does not claim a miss.
                report["provenance"]["result_cache"] = "bypass"
            self._finish(
                request,
                QueryResponse(
                    query_text=request.query_text,
                    results=results,
                    cached=False,
                    degraded=not full,
                    generation=generation,
                    latency_s=time.monotonic() - request.submitted_at,
                    shards_total=self.num_shards,
                    shards_failed=request.shards_failed,
                    explain=report,
                ),
            )

    def _execute_batch(self, batch: Sequence[_Request]) -> None:
        with self._rwlock.read():
            # Classify under the read lock: time spent queued *and*
            # waiting out a mutation counts against the deadline budget.
            now = time.monotonic()
            exact: list[_Request] = []
            degraded: list[_Request] = []
            for request in batch:
                # The queue span ends here for everyone, including
                # requests about to miss their deadline — queue wait is
                # exactly the latency the histogram must attribute.
                request.exec_started_at = time.monotonic()
                if request.queue_span is not None:
                    request.queue_span.finish()
                self.metrics.observe_queue_wait(request.queue_wait_s)
                if request.future.cancelled():
                    if request.owns_trace:
                        request.trace.finish(outcome="cancelled")
                    continue
                request.batch_span = request.trace.begin(
                    "batch", parent=request.trace.root, batch_size=len(batch)
                )
                if request.deadline is not None:
                    remaining = request.deadline - now
                    if remaining <= 0:
                        self.metrics.increment("deadline_misses")
                        self._fail(
                            request,
                            DeadlineExceeded(
                                f"deadline expired {-remaining:.3f}s before execution"
                            ),
                            "timeout",
                        )
                        continue
                    assert request.timeout_s is not None
                    if remaining < self.degradation_margin * request.timeout_s:
                        request.trace.root.set_tag("degraded_by", "deadline")
                        degraded.append(request)
                        continue
                exact.append(request)

            generation = self.system.index_generation
            to_run: list[_Request] = []
            for request in exact:
                cached = None
                if self.cache is not None:
                    # One key per request, for this read and the write
                    # after the join: both at the generation read above.
                    request.cache_key = make_key(
                        request.query_text,
                        request.scoring_name,
                        generation,
                        request.top_k,
                    )
                if request.cache_key is not None and not request.explain:
                    cache_span = request.trace.begin(
                        "cache.get", parent=request.batch_span, generation=generation
                    )
                    with use_trace(request.trace):
                        cached = self._cache_get(request.cache_key)
                    cache_span.set_tag("hit", cached is not None).finish()
                    self.metrics.increment(
                        "cache_hits" if cached is not None else "cache_misses"
                    )
                if cached is not None:
                    self._finish(
                        request,
                        QueryResponse(
                            query_text=request.query_text,
                            results=cached,
                            cached=True,
                            degraded=False,
                            generation=generation,
                            latency_s=time.monotonic() - request.submitted_at,
                            shards_total=self.num_shards,
                        ),
                    )
                else:
                    to_run.append(request)

            if not to_run and not degraded:
                return
            breaker = self._breaker(batch[0].scoring_name)
            if to_run:
                with use_trace(to_run[0].trace):
                    allowed = breaker.allow()
                if not allowed:
                    # Open breaker: shed to the approximate join instead
                    # of queueing up behind a failing exact path.
                    self.metrics.increment("breaker_shed_total", len(to_run))
                    if self.logger is not None:
                        self.logger.warning(
                            "breaker.shed",
                            family=batch[0].scoring_name,
                            requests=len(to_run),
                            trace_ids=[
                                r.trace.trace_id or None for r in to_run
                            ],
                        )
                    for request in to_run:
                        request.trace.root.set_tag("degraded_by", "breaker")
                    degraded.extend(to_run)
                    to_run = []

            if len(to_run) > 1:
                self.metrics.increment("batches")
                self.metrics.increment("batched_queries", len(to_run))
            if to_run:
                try:
                    rankings = self._run_join(to_run, avoid_duplicates=True)
                except (QuerySyntaxError, ValueError):
                    # Request errors (bad query, bad top_k): the caller's
                    # fault, not the join path's — fail the futures and
                    # leave the breaker alone (returning any half-open
                    # probe this attempt may have held).
                    breaker.abandon_probe()
                    raise
                except Exception:
                    with use_trace(to_run[0].trace):
                        if breaker.record_failure():
                            self.metrics.increment("breaker_open_total")
                    for request in to_run:
                        request.trace.root.set_tag("degraded_by", "join_failure")
                    degraded.extend(to_run)
                else:
                    if any(ranking is not None for ranking in rankings):
                        breaker.record_success()
                    else:
                        # The step failed every request itself (bad
                        # queries, no shard answering): nothing learnt
                        # about the join path.
                        breaker.abandon_probe()
                    self._deliver(to_run, rankings, generation, exact=True)

            if degraded:
                rankings = self._run_join(degraded, avoid_duplicates=False)
                self._deliver(degraded, rankings, generation, exact=False)
