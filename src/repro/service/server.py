"""Stdlib JSON/HTTP front end for the query executor.

:class:`SearchServer` binds a :class:`~repro.service.QueryExecutor` to a
``ThreadingHTTPServer`` with these endpoints:

``GET /search?q=<query>[&top_k=N][&scoring=win|med|max][&timeout_ms=T]``
    Rank documents; also accepts ``POST /search`` with the same fields
    as a JSON body.  Overload maps to ``503``, an expired deadline to
    ``504``, a bad query or malformed parameter to ``400``.  Every
    error body is structured: ``{"error": {"code": …, "message": …}}``.
``POST /documents`` with body ``{"id": …, "text": …}``
    Index one document through ``executor.ingest``; ``201`` with the new
    generation on success, ``409`` (``duplicate_document``) when the id
    is already live, ``501`` (``mutations_unsupported``) on a cluster
    front end (shards own their corpus slices).
``DELETE /documents/<id>``
    Remove one document (durable systems tombstone it); ``200`` with
    the new generation, ``404`` when the id is not indexed.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of every counter, gauge,
    and histogram; ``GET /metrics?format=json`` returns the legacy JSON
    :meth:`ServiceMetrics.snapshot` plus cache stats.
``GET /healthz``
    Liveness: the process is up and can describe itself.
``GET /readyz``
    Readiness: 200 with the executor health report while the executor
    is accepting work and has live workers; 503 while draining, shut
    down, or with every worker dead (load balancers stop routing here).

No framework, no dependencies: this is the serving seam later PRs grow
behind (sharding, async transports) while keeping the same endpoints.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as _FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.matching.queries import QuerySyntaxError
from repro.obs.taxonomy import CACHE_GAUGES
from repro.obs.trace import NULL_TRACE
from repro.service.executor import (
    SCORING_PRESETS,
    DeadlineExceeded,
    QueryExecutor,
    QueryRejected,
    QueryResponse,
    ShutdownDrained,
)

__all__ = ["SearchServer"]

#: Grace period past the request deadline before the HTTP handler gives
#: up on the executor future.  The executor enforces the deadline
#: itself, so this only fires when a worker died mid-request.
_RESULT_SLACK_S = 5.0


def _response_payload(response: QueryResponse) -> dict:
    payload = {
        "query": response.query_text,
        "cached": response.cached,
        "degraded": response.degraded,
        "generation": response.generation,
        "latency_ms": round(response.latency_s * 1000.0, 3),
        "results": [
            {"rank": rank, "doc_id": doc.doc_id, "score": doc.score}
            for rank, doc in enumerate(response.results, 1)
        ],
    }
    if response.shards_total:
        # Cluster provenance: how many shards answered.  A degraded
        # cluster response means shards_failed > 0 — a partial answer
        # over the surviving shards, not an approximate join.
        payload["shards"] = {
            "total": response.shards_total,
            "failed": response.shards_failed,
        }
    if response.explain is not None:
        payload["explain"] = response.explain
    return payload




class _BadParameter(ValueError):
    """A malformed query parameter (maps to a structured 400)."""


def _parse_top_k(params: dict) -> int:
    raw = params.get("top_k", 5)
    try:
        top_k = int(str(raw))
    except (TypeError, ValueError):
        raise _BadParameter(f"top_k must be an integer, got {raw!r}") from None
    if top_k < 1:
        raise _BadParameter(f"top_k must be >= 1, got {top_k}")
    return top_k


def _parse_timeout(params: dict) -> float | None:
    raw = params.get("timeout_ms")
    if raw is None:
        return None
    try:
        timeout_ms = float(str(raw))
    except (TypeError, ValueError):
        raise _BadParameter(f"timeout_ms must be a number, got {raw!r}") from None
    if not 0 <= timeout_ms < float("inf"):
        raise _BadParameter(f"timeout_ms must be finite and >= 0, got {raw!r}")
    return timeout_ms / 1000.0


def _parse_explain(params: dict) -> bool:
    raw = params.get("explain")
    if raw is None:
        return False
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("", "0", "false", "no", "off"):
        return False
    raise _BadParameter(f"explain must be a boolean flag, got {raw!r}")


def _parse_scoring(params: dict) -> str | None:
    scoring = params.get("scoring") or None
    if scoring is not None and scoring not in SCORING_PRESETS:
        raise _BadParameter(
            f"unknown scoring {scoring!r}; expected one of {sorted(SCORING_PRESETS)}"
        )
    return scoring


class _Handler(BaseHTTPRequestHandler):
    # Set by SearchServer on the server object; typed here for clarity.
    server: "_Server"  # type: ignore[assignment]

    protocol_version = "HTTP/1.1"
    # Status line, headers, and body go out in separate send()s; without
    # TCP_NODELAY, Nagle + the peer's delayed ACK stall every keep-alive
    # response ~40ms (22 QPS from a sub-millisecond handler).
    disable_nagle_algorithm = True

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        # Telemetry and health answers are point-in-time: a cached 200
        # from /readyz or a stale /metrics scrape is actively wrong.
        self.send_header("Cache-Control", "no-store")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(
            status, json.dumps(payload).encode(), "application/json"
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        """Every error is machine-readable: an error code plus a message."""
        self._send_json(status, {"error": {"code": code, "message": message}})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        if url.path == "/healthz":
            system = self.server.executor.system
            health = self.server.executor.health()
            payload = {
                "status": health["status"],
                "documents": len(system),
                "generation": system.index_generation,
            }
            # In cluster mode (ClusterExecutor) liveness includes the
            # shard topology: pid, breaker state, and respawn count per
            # shard worker process.
            shards = self.server.executor.shard_health()
            if shards:
                payload["shards"] = shards
            self._send_json(200, payload)
        elif url.path == "/readyz":
            health = self.server.executor.health()
            if self.server.draining:
                health["ready"] = False
                health["status"] = "draining"
            self._send_json(200 if health["ready"] else 503, health)
        elif url.path == "/metrics":
            params = {k: v[-1] for k, v in parse_qs(url.query).items()}
            fmt = params.get("format", "prometheus")
            metrics = self.server.executor.metrics
            cache = self.server.executor.cache
            if fmt == "json":
                snapshot = metrics.snapshot()
                if cache is not None:
                    snapshot["cache"] = cache.stats()
                self._send_json(200, snapshot)
            elif fmt == "prometheus":
                if cache is not None:
                    # Result-cache stats mirrored as registry gauges at
                    # scrape time, under the taxonomy's canonical names.
                    stats = cache.stats()
                    registry = metrics.registry
                    for prom_name, (key, help_text) in CACHE_GAUGES.items():
                        registry.gauge(prom_name, help_text).set(stats[key])
                self._send_text(
                    200,
                    metrics.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_error_json(
                    400,
                    "invalid_parameter",
                    f"unknown metrics format {fmt!r}; "
                    "expected 'prometheus' or 'json'",
                )
        elif url.path == "/statusz":
            self._send_json(200, self._statusz())
        elif url.path == "/debug/traces":
            self._send_json(200, self._trace_index())
        elif url.path.startswith("/debug/traces/"):
            self._trace_detail(unquote(url.path[len("/debug/traces/"):]))
        elif url.path == "/search":
            params = {k: v[-1] for k, v in parse_qs(url.query).items()}
            self._search(params)
        else:
            self._send_error_json(404, "not_found", f"no such endpoint: {url.path}")

    def _statusz(self) -> dict:
        """Live serving + index state in one page (human/debug JSON).

        Aggregates the executor's health view, cache occupancy, and —
        for a durable index — the segment/WAL/merge backlog and what
        the last recovery found (``SegmentedIndex.status``).
        """
        executor = self.server.executor
        system = executor.system
        payload = {
            "server": {"draining": self.server.draining},
            "executor": executor.health(),
            "documents": len(system),
            "generation": system.index_generation,
        }
        cache = executor.cache
        if cache is not None:
            payload["cache"] = cache.stats()
        status = getattr(system.index, "status", None)
        if callable(status):
            payload["index"] = status()
        else:
            payload["index"] = {"durable": False, "documents": len(system)}
        shards = executor.shard_health()
        if shards:
            payload["shards"] = shards
        tracer = executor.tracer
        if tracer is not None:
            payload["traces"] = {
                "sample_rate": tracer.sample_rate,
                "started": tracer.started,
                "sampled_out": tracer.sampled_out,
                "buffered": len(tracer.finished()),
            }
        return payload

    def _trace_index(self) -> dict:
        """The finished-trace ring, newest first, one summary row each."""
        tracer = self.server.executor.tracer
        if tracer is None:
            return {"traces": [], "note": "tracing disabled"}
        rows = []
        for trace in reversed(tracer.finished()):
            rows.append(
                {
                    "trace_id": trace.trace_id,
                    "name": trace.root.name,
                    "duration_ms": round(trace.duration_ms, 3),
                    "spans": len(trace.spans),
                    "tags": dict(trace.root.tags),
                }
            )
        return {"traces": rows}

    def _trace_detail(self, trace_id: str) -> None:
        """One finished trace as its full span tree (``Trace.to_dict``)."""
        tracer = self.server.executor.tracer
        if tracer is not None:
            for trace in reversed(tracer.finished()):
                if trace.trace_id == trace_id:
                    self._send_json(200, trace.to_dict())
                    return
        self._send_error_json(
            404,
            "not_found",
            f"no finished trace {trace_id!r} in the ring "
            "(it may have been evicted, never sampled, or not finished yet)",
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = urlsplit(self.path).path
        if path not in ("/search", "/documents"):
            self._send_error_json(404, "not_found", f"no such endpoint: {self.path}")
            return
        length = int(self.headers.get("Content-Length") or 0)
        try:
            params = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            self._send_error_json(400, "bad_json", f"bad JSON body: {exc}")
            return
        if not isinstance(params, dict):
            self._send_error_json(400, "bad_json", "JSON body must be an object")
            return
        params = {str(k): v for k, v in params.items()}
        if path == "/documents":
            self._add_document(params)
        else:
            self._search(params)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        path = urlsplit(self.path).path
        if not path.startswith("/documents/"):
            self._send_error_json(404, "not_found", f"no such endpoint: {self.path}")
            return
        doc_id = unquote(path[len("/documents/"):])
        if not doc_id or "/" in doc_id:
            self._send_error_json(
                400, "invalid_parameter", f"bad document id {doc_id!r}"
            )
            return
        executor = self.server.executor

        def remove(system) -> int:
            system.remove(doc_id)
            return system.index_generation

        try:
            generation = executor.apply(remove)
        except KeyError:
            self._send_error_json(
                404, "not_found", f"document {doc_id!r} not indexed"
            )
        except RuntimeError as exc:
            self._send_mutation_error(exc)
        else:
            self._send_json(200, {"id": doc_id, "generation": generation})

    def _add_document(self, params: dict) -> None:
        doc_id = params.get("id")
        text = params.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            self._send_error_json(
                400, "missing_parameter", "missing document field 'id'"
            )
            return
        if not isinstance(text, str):
            self._send_error_json(
                400, "missing_parameter", "missing document field 'text'"
            )
            return
        from repro.text.document import Document

        try:
            generation = self.server.executor.ingest(Document(doc_id, text))
        except ValueError as exc:
            self._send_error_json(409, "duplicate_document", str(exc))
        except RuntimeError as exc:
            self._send_mutation_error(exc)
        else:
            self._send_json(201, {"id": doc_id, "generation": generation})

    def _send_mutation_error(self, exc: RuntimeError) -> None:
        """Cluster front ends reject mutations (shards own their corpus
        slices): a structured 501 instead of a masked 500."""
        from repro.cluster import ClusterMutationError

        if isinstance(exc, ClusterMutationError):
            self._send_error_json(501, "mutations_unsupported", str(exc))
        else:
            self._send_error_json(500, "internal", f"{type(exc).__name__}: {exc}")

    def _search(self, params: dict) -> None:
        query_text = params.get("q") or params.get("query")
        if not query_text:
            self._send_error_json(
                400, "missing_parameter", "missing query parameter 'q'"
            )
            return
        try:
            top_k = _parse_top_k(params)
            timeout = _parse_timeout(params)
            scoring = _parse_scoring(params)
            explain = _parse_explain(params)
        except _BadParameter as exc:
            self._send_error_json(400, "invalid_parameter", str(exc))
            return
        # The HTTP layer opens the trace (and therefore owns finishing
        # it); the executor threads the same object through the queue
        # handoff and tags the outcome wherever the request ends up.
        tracer = self.server.executor.tracer
        trace = (
            tracer.trace(
                "request",
                query=str(query_text),
                scoring=scoring or "default",
                top_k=top_k,
                transport="http",
            )
            if tracer is not None
            else NULL_TRACE
        )
        try:
            try:
                future = self.server.executor.submit(
                    str(query_text),
                    top_k=top_k,
                    scoring=scoring,
                    timeout=timeout,
                    trace=trace,
                    explain=explain,
                )
                # The executor resolves the future within the request
                # deadline; the slack only fires if a worker dies with
                # the request in hand, and without it this handler
                # thread would be parked forever.
                effective = (
                    timeout
                    if timeout is not None
                    else self.server.executor.default_timeout
                )
                wait_s = (
                    effective + _RESULT_SLACK_S
                    if effective is not None
                    else None
                )
                response = future.result(timeout=wait_s)
            except ShutdownDrained as exc:
                self._trace_outcome(trace, "shed")
                self._send_error_json(503, "shutting_down", str(exc))
            except QueryRejected as exc:
                self._trace_outcome(trace, "shed")
                self._send_error_json(503, "overloaded", str(exc))
            except DeadlineExceeded as exc:
                self._trace_outcome(trace, "timeout")
                self._send_error_json(504, "deadline_exceeded", str(exc))
            except _FutureTimeout:
                # Must come after DeadlineExceeded: that class subclasses
                # TimeoutError, which on 3.11+ *is* the futures timeout.
                self._trace_outcome(trace, "error")
                self._send_error_json(
                    500,
                    "internal",
                    "executor did not resolve the request within its "
                    "deadline (worker lost?)",
                )
            except QuerySyntaxError as exc:
                self._trace_outcome(trace, "error")
                self._send_error_json(400, "bad_query", str(exc))
            except ValueError as exc:
                self._trace_outcome(trace, "error")
                self._send_error_json(400, "bad_request", str(exc))
            except Exception as exc:  # a genuine serving failure, not the client
                self._trace_outcome(trace, "error")
                self._send_error_json(
                    500, "internal", f"{type(exc).__name__}: {exc}"
                )
            else:
                payload = _response_payload(response)
                if trace.trace_id:
                    payload["trace_id"] = trace.trace_id
                self._send_json(200, payload)
        finally:
            trace.finish()

    @staticmethod
    def _trace_outcome(trace, outcome: str) -> None:
        """Tag the outcome unless the executor already attributed one."""
        if trace.is_recording and "outcome" not in trace.root.tags:
            trace.root.set_tag("outcome", outcome)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    executor: QueryExecutor
    verbose: bool
    draining: bool = False


class SearchServer:
    """Serve a :class:`QueryExecutor` over HTTP.

    Owns nothing it did not create: pass an executor and the caller
    keeps responsibility for shutting the executor down; let the server
    build one (``SearchServer(executor=QueryExecutor(system))`` vs
    ``SearchServer.for_system(system)``) and :meth:`close` tears both
    down.  ``port=0`` binds an ephemeral port (see :attr:`address`).
    """

    def __init__(
        self,
        executor: QueryExecutor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        owns_executor: bool = False,
    ) -> None:
        self.executor = executor
        self._owns_executor = owns_executor
        self._httpd = _Server((host, port), _Handler)
        self._httpd.executor = executor
        self._httpd.verbose = verbose
        self._httpd.draining = False
        self._thread: threading.Thread | None = None
        self._closed = False

    @classmethod
    def for_system(
        cls,
        system,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        **executor_options,
    ) -> "SearchServer":
        """Build server + executor in one go; :meth:`close` owns both."""
        executor = QueryExecutor(system, **executor_options)
        return cls(
            executor, host=host, port=port, verbose=verbose, owns_executor=True
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when ``port=0``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        """True once a graceful shutdown has begun (``/readyz`` says 503)."""
        return self._httpd.draining

    def start(self) -> "SearchServer":
        """Serve in a background thread (for tests/embedding); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI path)."""
        self._httpd.serve_forever()

    def close(self, *, drain_timeout: float | None = None) -> None:
        """Stop serving gracefully; idempotent and safe mid-request.

        Marks the server draining first (``/readyz`` flips to 503 so
        load balancers stop routing), shuts the HTTP loop (no new
        requests), then the executor if this server created it — with
        ``drain_timeout`` as the in-flight drain budget; queued requests
        past the budget fail with a structured ``shutting_down`` error.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.draining = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        if self._owns_executor:
            self.executor.shutdown(wait=True, drain_timeout=drain_timeout)

    def __enter__(self) -> "SearchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
