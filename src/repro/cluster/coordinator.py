"""Sharded serving: the cluster's execution step on the serving core.

:class:`ClusterExecutor` is :class:`~repro.service.QueryExecutor` — the
same request lifecycle (admission, bounded queue, worker pool and
watchdog, micro-batching, deadline degradation, the generation-keyed
result cache, the ``request`` and slow-query logs, health, drain) —
with a different execution step behind it: N shard worker *processes*
(:mod:`repro.cluster.worker`), each owning a document-hash partition of
the corpus (:mod:`repro.cluster.sharding`).  Joins run in the workers,
so join throughput scales with cores instead of saturating one GIL.

The sharded step turns an admitted group of requests into rankings:

1. **Scatter**: every request of the group goes to every live shard
   whose circuit breaker admits it (one ``query`` message per request
   per shard) before any reply is awaited.  One serial I/O thread per
   shard owns that shard's pipe, so the shards work concurrently while
   the core's worker waits.
2. **Gather + merge**: shard-local k-best lists come back sorted by the
   global ``(-score, doc_id)`` key and are threshold-merged
   (:func:`repro.cluster.merge.threshold_merge`); entries the threshold
   proves irrelevant are never pulled (``merge_pulls_saved``).
3. Shard failures (dead worker, transport loss, per-shard timeout, open
   breaker) degrade the answer instead of failing it: the merge runs
   over the surviving shards and the response is *partial*
   (``degraded=True``, ``shards_failed > 0``, ``outcome=degraded`` in
   the trace and the ``request`` log event) and never cached.  Only
   when *every* shard fails does the request fail
   (:class:`ShardsUnavailable`).

The core's watchdog sweep also respawns dead shard processes from the
coordinator's copy of the partition (``shard_respawns`` metric,
``shard.respawn`` log event); a respawned shard serves again as soon as
its breaker closes.

Exact (non-partial) responses are byte-identical to single-process
``SearchSystem.ask`` over the same corpus — see :mod:`repro.cluster.merge`
for the invariant and ``tests/cluster/test_differential.py`` for the
proof obligation.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pathlib
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.merge import threshold_merge
from repro.cluster.sharding import partition_documents
from repro.cluster.worker import CLIENT_ERRORS, shard_worker_main
from repro.matching.queries import QuerySyntaxError
from repro.obs.log import StructuredLogger
from repro.obs.trace import NULL_TRACE, Span, Tracer
from repro.reliability.breaker import CircuitBreaker
from repro.retrieval.ranking import RankedDocument
from repro.service.cache import ResultCache
from repro.service.executor import QueryExecutor, ShutdownDrained, _Request
from repro.service.metrics import ServiceMetrics
from repro.system import SearchSystem

__all__ = [
    "ClusterExecutor",
    "ClusterMutationError",
    "ShardError",
    "ShardsUnavailable",
]


class ShardError(RuntimeError):
    """One shard RPC failed (dead worker, transport loss, timeout)."""


class _ShardClosed(ShardError):
    """Shutdown closed the shard's handle: no shard fault, no breaker hit."""


class ShardsUnavailable(RuntimeError):
    """Every shard failed; there is no partial answer to give."""


class ClusterMutationError(RuntimeError):
    """The clustered corpus is immutable while serving."""


_STOP: Any = object()


@dataclass(slots=True)
class _ShardCall:
    """One shard RPC: the wire message, its future, and its span.

    ``trace`` is the request's trace (``None`` for untraced calls): the
    I/O thread grafts the worker's shipped span subtree into it under
    ``span`` when the reply arrives.
    """

    message: dict
    future: Future
    span: Span | Any
    deadline: float | None
    trace: Any = None


def _client_error(name: str, message: str) -> BaseException:
    """Rehydrate a worker-reported client fault as the right exception."""
    if name == "QuerySyntaxError":
        return QuerySyntaxError(message)
    return ValueError(message)


class _ShardHandle:
    """One shard: its partition, worker process, pipe, serial I/O thread.

    The I/O thread owns the connection: it takes :class:`_ShardCall`
    items off the shard queue one at a time, sends, waits for the reply
    matching the call's request id (stale replies from timed-out calls
    are dropped), and resolves the call's future.  Multiple in-flight
    queries pipeline through the queue; across shards the I/O threads
    wait concurrently, which is what makes the scatter parallel.

    After a transport failure the thread kills the worker (so the
    watchdog sees an unambiguously dead process) and switches to
    fail-fast mode: remaining queued calls fail immediately instead of
    waiting out their timeouts, until :meth:`respawn` installs a fresh
    process + queue + thread.
    """

    def __init__(
        self,
        shard_id: int,
        documents: list[tuple[str, str]],
        *,
        context,
        breaker: CircuitBreaker,
        metrics: ServiceMetrics,
        request_timeout_s: float,
    ) -> None:
        self.shard_id = shard_id
        self.documents = documents
        self.breaker = breaker
        self.respawns = 0
        self._context = context
        self._metrics = metrics
        self._request_timeout_s = request_timeout_s
        self._lock = threading.Lock()
        self._closed = False
        self._build()

    def _build(self) -> None:
        """Fresh pipe + worker process + I/O thread + call queue.

        Runs from ``__init__`` and (under :attr:`_lock`) from
        :meth:`respawn`; everything it assigns is a new object, so
        readers that grabbed the old queue reference keep a consistent
        (retired) view.
        """
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=shard_worker_main,
            args=(child_conn, self.shard_id, self.documents),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns its end; keep ours only
        calls: queue.Queue = queue.Queue()
        thread = threading.Thread(
            target=self._io_loop,
            args=(parent_conn, process, calls),
            name=f"repro-shard-io-{self.shard_id}",
            daemon=True,
        )
        self._conn = parent_conn
        self._process = process
        self._calls = calls
        self._thread = thread
        thread.start()

    # -- client side ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def submit(self, call: _ShardCall) -> None:
        """Enqueue one RPC for the I/O thread (never blocks)."""
        with self._lock:
            if self._closed:
                raise _ShardClosed(f"shard {self.shard_id} is shut down")
            self._calls.put_nowait(call)

    def respawn(self) -> bool:
        """Replace a dead worker with a fresh one; False when closed.

        Calls still queued for the dead incarnation are failed (they
        were accepted against a worker that no longer exists); the new
        incarnation starts with an empty queue.
        """
        with self._lock:
            if self._closed:
                return False
            old_calls = self._calls
            self._build()
            self.respawns += 1
        self._drain_calls(
            old_calls, ShardError(f"shard {self.shard_id} worker died")
        )
        old_calls.put_nowait(_STOP)
        return True

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop the I/O thread, ask the worker to exit, then make sure."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            calls = self._calls
            conn = self._conn
            process = self._process
            thread = self._thread
        calls.put_nowait(_STOP)
        thread.join(timeout_s)
        self._drain_calls(calls, _ShardClosed(f"shard {self.shard_id} is shut down"))
        try:
            conn.send({"op": "shutdown", "id": -1})
        # repro: ignore[except-swallowed] a dead worker cannot ack; the
        # kill below is the fallback shutdown path
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout_s)
        if process.is_alive():
            process.kill()
            process.join(timeout_s)
        try:
            conn.close()
        # repro: ignore[except-swallowed] double-close on a torn pipe
        except OSError:
            pass

    @staticmethod
    def _drain_calls(calls: queue.Queue, exc: ShardError) -> None:
        while True:
            try:
                item = calls.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                calls.put_nowait(_STOP)  # preserve the stop for the owner
                return
            if not item.future.done():
                item.future.set_exception(exc)
            if item.span is not None:
                item.span.set_tag("outcome", "shutdown").finish()

    # -- I/O thread ----------------------------------------------------------

    def _io_loop(self, conn, process, calls: queue.Queue) -> None:
        healthy = True
        while True:
            call = calls.get()
            if call is _STOP:
                break
            if healthy:
                healthy = self._serve_call(conn, process, call)
            else:
                # Fail fast behind a broken transport: don't make later
                # requests wait out a timeout against a dead worker.
                self._fail_call(
                    call, ShardError(f"shard {self.shard_id} worker died")
                )

    def _serve_call(self, conn, process, call: _ShardCall) -> bool:
        """One RPC; returns False when the transport is unusable."""
        message = call.message
        now = time.monotonic()
        if call.deadline is not None and now >= call.deadline:
            self._fail_call(
                call,
                ShardError(
                    f"shard {self.shard_id} deadline expired before the RPC"
                ),
            )
            return True
        budget = self._request_timeout_s
        if call.deadline is not None:
            budget = min(budget, call.deadline - now)
        started = time.perf_counter()
        try:
            conn.send(message)
            reply = self._await_reply(conn, message["id"], budget)
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._fail_call(
                call,
                ShardError(
                    f"shard {self.shard_id} transport failed: "
                    f"{type(exc).__name__}"
                ),
            )
            # Make the incarnation unambiguously dead for the watchdog.
            if process.is_alive():
                process.kill()
            return False
        except ShardError as exc:
            self._fail_call(call, exc)
            return True  # the pipe survives; stale replies are dropped by id
        elapsed = time.perf_counter() - started
        self._metrics.observe_shard_request(str(self.shard_id), elapsed)
        if reply.get("ok"):
            self.breaker.record_success()
            if call.span is not None:
                wire = reply.get("trace")
                if call.trace is not None and isinstance(wire, dict):
                    try:
                        call.trace.graft(wire, under=call.span)
                    # repro: ignore[except-swallowed] a malformed span
                    # payload must never fail the RPC that carried it
                    except (KeyError, TypeError, ValueError):
                        call.span.set_tag("trace_graft", "failed")
                call.span.set_tags(
                    outcome="ok", results=len(reply.get("results", ()))
                ).finish()
            if not call.future.done():
                call.future.set_result(reply)
        else:
            error = str(reply.get("error", "ShardError"))
            detail = str(reply.get("message", ""))
            if error in CLIENT_ERRORS:
                # The request's fault, not the shard's: no breaker hit.
                self.breaker.abandon_probe()
                if call.span is not None:
                    call.span.set_tags(outcome="error", error=error).finish()
                if not call.future.done():
                    call.future.set_exception(_client_error(error, detail))
            else:
                self._fail_call(
                    call,
                    ShardError(f"shard {self.shard_id} failed: {error}: {detail}"),
                )
        return True

    def _await_reply(self, conn, request_id: int, budget_s: float) -> dict:
        """The reply matching ``request_id``, dropping stale ones."""
        deadline = time.monotonic() + max(0.0, budget_s)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                raise ShardError(
                    f"shard {self.shard_id} timed out after {budget_s:.2f}s"
                )
            reply = conn.recv()  # EOFError here means the worker died
            if isinstance(reply, dict) and reply.get("id") == request_id:
                return reply

    def _fail_call(self, call: _ShardCall, exc: ShardError) -> None:
        self._metrics.increment("shard_failures")
        self.breaker.record_failure()
        if call.span is not None:
            # The worker never shipped its subtree (death, transport
            # loss, timeout): the shard span is all that remains of the
            # work, so mark it as a truncated shard_failure hole rather
            # than leaving a silent gap in the merged tree.
            call.span.set_tags(
                outcome="error",
                error=str(exc),
                failure="shard_failure",
                truncated=True,
            ).finish()
        if not call.future.done():
            call.future.set_exception(exc)


class ClusterExecutor(QueryExecutor):
    """The serving core with the sharded execution step.

    Submission, batching, deadlines, the result cache, logs, health and
    drain are :class:`~repro.service.QueryExecutor`'s, so
    :class:`~repro.service.SearchServer` and the CLI's
    ``serve --shards N`` drop it in unchanged.  This class adds only the
    shard processes: their spawn and shutdown, :meth:`_run_join`
    (scatter, gather, threshold merge), :meth:`shard_health`,
    :meth:`check_shards`, :meth:`snapshot_shards`, and the refusal of
    :meth:`apply`.

    Parameters
    ----------
    system:
        The corpus to serve.  Its documents are partitioned by document
        hash at construction; the cluster serves that snapshot of the
        corpus (mutations are rejected — see :meth:`apply`).
    shards:
        Worker process count (``>= 1``).
    coordinators:
        The core's worker threads.  Each runs one batch at a time; the
        per-shard I/O threads give a batch its scatter parallelism,
        coordinators give concurrent batches pipelining.
    queue_size / cache_size / default_timeout / tracer / logger /
    slow_query_ms:
        As on :class:`~repro.service.QueryExecutor`.
    shard_timeout_s:
        Per-shard RPC budget when the request itself is untimed; the
        guarantee that no future ever hangs on a dead shard.
    breaker_threshold / breaker_reset_s:
        Per-shard circuit breaker: consecutive RPC failures before the
        shard is skipped, and how long before a half-open probe.
    watchdog_interval:
        Seconds between the core's watchdog sweeps, which also respawn
        dead shard processes; ``0`` disables the thread —
        :meth:`check_shards` can still be called manually.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap respawn, copy-on-write corpus) and falls back to
        ``spawn`` where fork is unavailable.
    """

    # wpbench's tracer (LAYERS in wpbench/tracer.py) patches these two
    # names in this class's own __dict__; both are the core's methods.
    submit = QueryExecutor.submit
    _process = QueryExecutor._execute_batch

    def __init__(
        self,
        system: SearchSystem,
        *,
        shards: int,
        coordinators: int = 4,
        queue_size: int = 64,
        cache_size: int = 1024,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        default_timeout: float | None = None,
        shard_timeout_s: float = 30.0,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        watchdog_interval: float = 1.0,
        tracer: Tracer | None = QueryExecutor._UNSET,
        logger: StructuredLogger | None = None,
        slow_query_ms: float | None = None,
        start_method: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {shard_timeout_s}"
            )
        self.num_shards = shards
        self.shard_timeout_s = shard_timeout_s
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._context = multiprocessing.get_context(start_method)
        self._request_ids = itertools.count(1)
        self._handles: list[_ShardHandle] = []
        super().__init__(
            system,
            workers=coordinators,
            queue_size=queue_size,
            cache_size=cache_size,
            cache=cache,
            metrics=metrics,
            default_timeout=default_timeout,
            watchdog_interval=watchdog_interval,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            tracer=tracer,
            logger=logger,
            slow_query_ms=slow_query_ms,
        )

    # -- shard processes -----------------------------------------------------

    def _start_backend(self) -> None:
        """Partition the corpus and fork one worker process per shard."""
        documents = [(doc.doc_id, doc.text) for doc in self.system.corpus]
        partitions = partition_documents(documents, self.num_shards)
        self._handles = [
            _ShardHandle(
                shard_id,
                partition,
                context=self._context,
                breaker=self._new_breaker(f"shard-{shard_id}"),
                metrics=self.metrics,
                request_timeout_s=self.shard_timeout_s,
            )
            for shard_id, partition in enumerate(partitions)
        ]

    def _stop_backend(self) -> None:
        for handle in self._handles:
            handle.close()

    def apply(
        self, mutator: Callable[[SearchSystem], Any], *, exclusive: bool = True
    ) -> Any:
        """Refused: the shard partitions are built once, at construction.

        The cluster serves an immutable snapshot of the corpus and says
        so instead of silently diverging from its shards.  ``ingest``
        and ``delete`` come through here, so they are refused too.
        """
        raise ClusterMutationError(
            "the clustered corpus is immutable while serving; rebuild the "
            "ClusterExecutor to change documents"
        )

    # -- health --------------------------------------------------------------

    def shard_health(self) -> list[dict]:
        """Per-shard status (the ``/healthz`` detail in cluster mode)."""
        report = []
        for handle in self._handles:
            report.append(
                {
                    "shard": handle.shard_id,
                    "alive": handle.alive,
                    "pid": handle.pid,
                    "documents": len(handle.documents),
                    "breaker": handle.breaker.snapshot()["state"],
                    "respawns": handle.respawns,
                }
            )
        return report

    def _capacity(
        self, shards: list[dict]
    ) -> tuple[dict, dict | None, list[str]]:
        """The shards stand in for the worker pool: ``ready`` needs one
        live shard, and a dead or shedding shard makes it ``degraded``."""
        alive = sum(1 for shard in shards if shard["alive"])
        open_breakers = sorted(
            f"shard-{shard['shard']}"
            for shard in shards
            if shard["breaker"] != "closed"
        )
        workers = {
            "configured": len(shards),
            "alive": alive,
            "restarts": self.metrics.count("shard_respawns"),
        }
        return workers, None, open_breakers

    def check_workers(self) -> dict:
        """The core's watchdog sweep, plus :meth:`check_shards`."""
        return {**super().check_workers(), **self.check_shards()}

    def check_shards(self) -> dict:
        """Respawn shards whose process died.

        Each respawn runs inside its own (sampled) background trace so
        repair work is attributable like request work.
        """
        respawned = 0
        with self._state_lock:
            if self._closed:
                return {"respawned": 0}
            handles = list(self._handles)
        for handle in handles:
            if handle.alive:
                continue
            trace = (
                self.tracer.trace("cluster.respawn", shard=handle.shard_id)
                if self.tracer is not None
                else NULL_TRACE
            )
            ok = handle.respawn()
            trace.finish(respawned=ok, pid=handle.pid)
            if ok:
                respawned += 1
                if self.logger is not None:
                    self.logger.warning(
                        "shard.respawn",
                        shard=handle.shard_id,
                        pid=handle.pid,
                        respawns=handle.respawns,
                    )
        if respawned:
            self.metrics.increment("shard_respawns", respawned)
        return {"respawned": respawned}

    def snapshot_shards(self, directory) -> list[str]:
        """Every shard writes its crash-safe snapshot under ``directory``.

        Returns the per-shard snapshot paths (``shard-<i>.snapshot``),
        written with the snapshot envelope by the workers themselves.
        """
        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        calls = []
        for handle in self._handles:
            path = base / f"shard-{handle.shard_id}.snapshot"
            call = _ShardCall(
                message={
                    "op": "snapshot",
                    "id": next(self._request_ids),
                    "path": str(path),
                },
                future=Future(),
                span=None,
                deadline=time.monotonic() + self.shard_timeout_s,
            )
            handle.submit(call)
            calls.append((call, str(path)))
        paths = []
        for call, path in calls:
            reply = call.future.result(timeout=self.shard_timeout_s + 1.0)
            paths.append(reply.get("path", path))
        return paths

    # -- the sharded execution step ------------------------------------------

    def _run_join(
        self, group: Sequence[_Request], *, avoid_duplicates: bool
    ) -> list[list[RankedDocument] | None]:
        """Scatter the whole group, then gather and merge each request.

        Every request goes to every admitting shard before any reply is
        awaited.  A shard that fails or is breaker-skipped only shrinks
        the merge, and the answer is partial (``shards_failed``).  A
        request that every shard failed, that a shard rejected as a bad
        query, or that outlived the drain budget (shutdown closed a
        shard under it) is failed here and gets ``None``.
        """
        started = time.perf_counter()
        scattered = [self._scatter(request, avoid_duplicates) for request in group]
        rankings: list[list[RankedDocument] | None] = []
        for request, (scatter_span, calls, skipped) in zip(group, scattered):
            streams, failed, closed, client_error = self._gather(
                request, scatter_span, calls, skipped
            )
            request.join_s = time.perf_counter() - started
            if client_error is not None:
                self._fail(request, client_error, "error")
                rankings.append(None)
                continue
            if closed:
                self._fail(
                    request,
                    ShutdownDrained("executor shut down during execution"),
                    "shed",
                )
                rankings.append(None)
                continue
            if not streams:
                self.metrics.increment("errors_total")
                self._fail(
                    request,
                    ShardsUnavailable(
                        f"all {self.num_shards} shards failed "
                        f"({failed} failed, {skipped} breaker-skipped)"
                    ),
                    "error",
                    level="error",
                )
                rankings.append(None)
                continue
            merge_span = request.trace.begin(
                "merge", parent=request.batch_span, streams=len(streams)
            )
            merged = threshold_merge(streams, request.top_k)
            merge_span.set_tags(
                pulls=merged.pulls, pulls_saved=merged.pulls_saved
            ).finish()
            self.metrics.increment("merge_pulls_saved", merged.pulls_saved)
            self.metrics.increment("joins_executed")
            request.merge_pulls_saved = merged.pulls_saved
            request.shards_failed = failed + skipped
            if request.shards_failed:
                request.trace.root.set_tag("degraded_by", "shard_failure")
            if request.explain:
                # The merged results come from the shards; the plan
                # report comes from one real execution on the
                # coordinator's full-corpus system (exact shard merges
                # are verified identical to the single-process ranking),
                # so the term, DAAT, and stage counters describe the
                # same query.
                _ranked, request.explain_report = self.system.ask(
                    request.query_text,
                    top_k=request.top_k,
                    scoring=request.scoring,
                    explain=True,
                )
            rankings.append(merged.ranked)
        self.metrics.observe_join(group[0].scoring_name, time.perf_counter() - started)
        return rankings

    def _scatter(
        self, request: _Request, avoid_duplicates: bool
    ) -> tuple[Span | Any, list[_ShardCall], int]:
        """Send one request to every admitting shard; returns its
        ``scatter`` span, the calls in flight, and the shards its
        breaker skipped."""
        scatter_span = request.trace.begin(
            "scatter", parent=request.batch_span, shards=self.num_shards
        )
        calls: list[_ShardCall] = []
        skipped = 0
        # Trace context rides the pickle protocol only when the request
        # trace records: the coordinator owns the sampling decision, the
        # worker records unconditionally when asked (see worker.py).
        recording = getattr(request.trace, "is_recording", False)
        trace_context = (
            {"trace_id": request.trace.trace_id} if recording else None
        )
        for handle in self._handles:
            if not handle.breaker.allow():
                skipped += 1
                continue
            span = request.trace.begin(
                "shard", parent=scatter_span, shard=handle.shard_id
            )
            message = {
                "op": "query",
                "id": next(self._request_ids),
                "query": request.query_text,
                "top_k": request.top_k,
                "scoring": request.scoring_name,
                "avoid_duplicates": avoid_duplicates,
            }
            if trace_context is not None:
                message["trace"] = trace_context
            call = _ShardCall(
                message=message,
                future=Future(),
                span=span,
                deadline=request.deadline,
                trace=request.trace if recording else None,
            )
            try:
                handle.submit(call)
            except _ShardClosed as exc:
                # Closed by shutdown: the gather counts the failed call
                # as closed, not as breaker-skipped.
                span.set_tag("outcome", "shutdown").finish()
                call.future.set_exception(exc)
            else:
                self.metrics.increment("shard_requests")
            calls.append(call)
        return scatter_span, calls, skipped

    def _gather(
        self,
        request: _Request,
        scatter_span: Span | Any,
        calls: list[_ShardCall],
        skipped: int,
    ) -> tuple[list[Sequence[RankedDocument]], int, int, BaseException | None]:
        """Wait for one request's shard replies: the k-best streams of
        the shards that answered, how many failed, how many shutdown
        closed, and a client error (bad query / bad parameters) if a
        shard reported one."""
        streams: list[Sequence[RankedDocument]] = []
        failed = closed = 0
        client_error: BaseException | None = None
        joins_run = joins_skipped = join_ns = 0
        for call in calls:
            budget = self.shard_timeout_s + 1.0
            if request.deadline is not None:
                budget = min(
                    budget, max(0.0, request.deadline - time.monotonic()) + 1.0
                )
            try:
                reply = call.future.result(timeout=budget)
            except (QuerySyntaxError, ValueError) as exc:
                client_error = exc
                continue
            except _ShardClosed:
                closed += 1
                continue
            except (ShardError, FutureTimeoutError):
                failed += 1
                continue
            streams.append(reply["results"])
            # repro: ignore[deadline-discipline] reply is the worker's
            # reply dict; dict.get never waits
            shard_stats = reply.get("stats", {})
            joins_run += int(shard_stats.get("joins_run", 0))
            joins_skipped += int(shard_stats.get("joins_skipped", 0))
            join_ns += int(shard_stats.get("join_ns", 0))
        self.metrics.increment("joins_run", joins_run)
        self.metrics.increment("joins_skipped", joins_skipped)
        self.metrics.increment("join_micros", join_ns // 1000)
        scatter_span.set_tags(
            answered=len(streams),
            failed=failed,
            skipped=skipped,
            closed=closed,
            joins_run=joins_run,
            joins_skipped=joins_skipped,
        ).finish()
        return streams, failed, closed, client_error
