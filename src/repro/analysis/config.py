"""Declared analysis policy: lock order, blocking calls, rule scopes.

Everything a rule needs to know about *this* codebase that is not
derivable from the AST lives here, so the rules themselves stay
generic.  The tables are plain data; tests construct ad-hoc configs
against fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AnalysisConfig", "DEFAULT_CONFIG", "LockName", "WireSurface"]

#: A lock is identified by (class name, attribute name): the executor's
#: state lock is ("QueryExecutor", "_state_lock").
LockName = tuple[str, str]


@dataclass(frozen=True, slots=True)
class WireSurface:
    """One pinned serialization surface: where to extract it from.

    ``kind`` selects the extractor (see :mod:`repro.analysis.contracts`):

    ``version``
        ``symbol`` is a module- or class-level ``NAME = <int>`` constant.
    ``return-keys``
        ``symbol`` is a function/method; the surface's fields are the
        constant string keys of every dict literal it returns, plus
        constant-key subscript stores into a name it returns.
    ``payload-keys``
        ``symbol`` is a function/method; fields are the constant keys of
        the dict literal passed as keyword ``detail`` to any call inside
        it (e.g. the ``payload=`` of a ``write_snapshot`` call).
    ``wal-records``
        fields come from dict literals passed to ``.append(...)`` calls
        on receivers whose text contains ``detail`` (default ``"wal"``);
        one sub-surface per literal ``"op"`` value, named
        ``<name>.<op>``.
    ``op-dispatch``
        fields are the constant strings compared against an ``op``-named
        value anywhere in the module (``symbol`` empty) or inside one
        function (``symbol`` set).
    ``error-codes``
        fields are the constant second arguments of calls to the method
        named by ``detail`` (default ``_send_error_json``) in the module.
    ``prometheus-registry``
        fields are the live ``PROMETHEUS_NAMES`` registry (or the
        ``taxonomy_prometheus`` config override in fixture runs).
    """

    name: str
    kind: str
    module: str = ""
    symbol: str = ""
    detail: str = ""


def _default_wire_surfaces() -> tuple[WireSurface, ...]:
    # Every versioned byte/schema surface another process, a file on
    # disk, or a dashboard depends on.  Pinned in contracts.json at the
    # repository root; `wire-contract-drift` diffs the two.
    return (
        WireSurface("trace.wire_version", "version", "obs/trace.py", "WIRE_VERSION"),
        WireSurface("trace.span", "return-keys", "obs/trace.py", "Span.to_wire"),
        WireSurface("trace.envelope", "return-keys", "obs/trace.py", "Trace.to_wire"),
        WireSurface("explain.version", "version", "system.py", "EXPLAIN_VERSION"),
        WireSurface(
            "explain.report", "return-keys", "system.py", "SearchSystem._explain_report"
        ),
        WireSurface("system.snapshot_version", "version", "system.py", "SNAPSHOT_VERSION"),
        WireSurface("index.format_version", "version", "index/io.py", "INDEX_FORMAT_VERSION"),
        WireSurface(
            "index.manifest_version", "version", "index/segments.py", "MANIFEST_VERSION"
        ),
        WireSurface(
            "index.segment_version", "version", "index/segments.py", "SEGMENT_VERSION"
        ),
        WireSurface(
            "index.manifest",
            "payload-keys",
            "index/segments.py",
            "SegmentedIndex._write_manifest_locked",
            "payload",
        ),
        WireSurface("wal.record", "wal-records", "index/segments.py", "", "wal"),
        WireSurface("cluster.ops", "op-dispatch", "cluster/worker.py", ""),
        WireSurface(
            "cluster.query_reply", "return-keys", "cluster/worker.py", "_serve_query"
        ),
        WireSurface(
            "http.error_codes", "error-codes", "service/server.py", "", "_send_error_json"
        ),
        WireSurface("metrics.prometheus", "prometheus-registry", "obs/taxonomy.py"),
    )


def _default_lock_order() -> list[LockName]:
    # Outermost first.  A thread holding a lock may only acquire locks
    # that appear *later* in this list; acquiring an earlier (or equal,
    # for non-reentrant locks) one is a lock-order violation.  The
    # table encodes the serving path's intended hierarchy:
    #   rwlock (query/mutation exclusion)
    #     → executor state lock (ClusterExecutor inherits both)
    #       → shard handle lock
    #         → leaf locks (breaker, registries, caches, sinks)
    return [
        ("QueryExecutor", "_rwlock"),
        ("QueryExecutor", "_state_lock"),
        ("_ShardHandle", "_lock"),
        ("SegmentedIndex", "_lock"),
        ("CircuitBreaker", "_lock"),
        ("FaultRegistry", "_lock"),
        ("ResultCache", "_lock"),
        ("ConceptIndex", "_list_cache_lock"),
        ("ConceptIndex", "_postings_cache_lock"),
        ("TermPostings", "_cache_lock"),
        ("ServiceMetrics", "_lock"),
        ("LatencyReservoir", "_lock"),
        ("MetricsRegistry", "_lock"),
        ("Tracer", "_lock"),
        ("Trace", "_lock"),
        ("StructuredLogger", "_lock"),
        ("MemorySink", "_lock"),
    ]


@dataclass(slots=True)
class AnalysisConfig:
    """Tunable policy for one analysis run."""

    # -- concurrency ---------------------------------------------------------
    #: Packages (path prefixes below the analysis root) the concurrency
    #: rules apply to.
    concurrency_packages: tuple[str, ...] = (
        "service",
        "reliability",
        "obs",
        "index",
        "cluster",
    )
    #: Declared lock hierarchy, outermost first (see _default_lock_order).
    lock_order: list[LockName] = field(default_factory=_default_lock_order)
    #: Dotted module-level calls that block the calling thread.
    blocking_calls: frozenset[str] = frozenset(
        {
            "time.sleep",
            "os.fsync",
            "os.replace",
            "subprocess.run",
            "subprocess.check_output",
            "socket.create_connection",
        }
    )
    #: Bare callables that block (I/O).
    blocking_functions: frozenset[str] = frozenset({"open", "input"})
    #: Method names that block regardless of receiver.
    blocking_methods: frozenset[str] = frozenset({"sleep", "fsync", "recv", "sendall", "accept", "connect"})
    #: Method names that block on queue-like receivers (``get``/``put``
    #: without ``_nowait``; a ``wait`` on the *held* lock itself is the
    #: condition-variable pattern and is exempt).
    queue_blocking_methods: frozenset[str] = frozenset({"get", "put", "join", "wait"})
    #: Receiver-name substrings that mark a queue/thread/stream-like
    #: object for the receiver-sensitive blocking methods above.
    blocking_receiver_hints: frozenset[str] = frozenset(
        {"queue", "thread", "cond", "event", "stop", "sock", "proc"}
    )
    #: Method names that perform stream I/O (blocking on the receiver).
    io_methods: frozenset[str] = frozenset(
        {"write", "writelines", "read", "readline", "readlines", "flush"}
    )
    #: Receiver-name substrings that mark stream-like objects for
    #: io_methods (``self._stream.write`` yes; ``array.write`` no).
    io_receiver_hints: frozenset[str] = frozenset(
        {"stream", "file", "wfile", "rfile", "stdout", "stderr", "sock"}
    )
    #: Method names that run joins / index materialization — expensive
    #: work that must never run inside a critical section.
    expensive_methods: frozenset[str] = frozenset(
        {
            "match_list",
            "match_lists",
            "ask",
            "ask_many",
            "extract",
            "rank_top_k",
            "offer",
            "best_join",
            "execute",
            "phrase_positions",
        }
    )
    #: Variable/attribute name patterns whose *call* is a user callback
    #: (listener, sink, hook): invoking one under a lock hands the
    #: critical section to arbitrary user code.
    callback_name_patterns: tuple[str, ...] = (
        "listener",
        "sink",
        "callback",
        "hook",
        "mutator",
        "on_transition",
        "_check",
        "_on_",
        "on_",
    )
    #: Attribute names treated as lock objects when assigned a
    #: ``threading.Lock()``/``RLock()``/``Condition()`` or a
    #: ``*ReadWriteLock`` instance in ``__init__``.
    lock_factories: frozenset[str] = frozenset(
        {"Lock", "RLock", "Condition", "_ReadWriteLock", "ReadWriteLock"}
    )

    # -- escape analysis -----------------------------------------------------
    #: Packages the lock-escaping-state rule applies to (defaults to the
    #: concurrency scope at construction time when left empty).
    escape_packages: tuple[str, ...] = ()
    #: Callables whose result is an independent copy / frozen view of
    #: their argument — returning ``list(self._x)`` under the lock is a
    #: snapshot, not an escape.
    escape_copy_wrappers: frozenset[str] = frozenset(
        {
            "list",
            "dict",
            "set",
            "tuple",
            "sorted",
            "frozenset",
            "copy.copy",
            "copy.deepcopy",
            "deepcopy",
            "MatchList",
            "PostingList",
        }
    )
    #: Method names whose call on a guarded attribute yields a copy or
    #: an immutable projection, never the live object.
    escape_copy_methods: frozenset[str] = frozenset(
        {"copy", "snapshot", "freeze", "to_dict", "to_wire", "render"}
    )
    #: ``__init__`` constructor names that mark an attribute as a
    #: mutable container (beyond dict/list/set literals).
    mutable_constructors: frozenset[str] = frozenset(
        {
            "dict",
            "list",
            "set",
            "defaultdict",
            "OrderedDict",
            "deque",
            "Counter",
            "PostingList",
            "InvertedIndex",
        }
    )
    #: Method names that mutate their receiver in place: calling one on
    #: ``self.attr`` under the lock is the evidence that the attribute
    #: is lock-guarded mutable state.
    mutating_methods: frozenset[str] = frozenset(
        {
            "append",
            "add",
            "add_document",
            "add_text",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "remove",
            "discard",
            "clear",
            "extend",
            "insert",
            "sort",
        }
    )

    # -- resource lifecycle --------------------------------------------------
    #: Packages the resource-lifecycle rule applies to (defaults to the
    #: concurrency scope when left empty).
    lifecycle_packages: tuple[str, ...] = ()
    #: Constructors that acquire an OS resource needing explicit release.
    resource_factories: frozenset[str] = frozenset(
        {"open", "socket.socket", "socket.create_connection"}
    )
    #: Constructors that spawn a joinable unit of execution.
    spawn_factories: frozenset[str] = frozenset(
        {
            "Thread",
            "threading.Thread",
            "Process",
            "multiprocessing.Process",
        }
    )
    #: Method names that release an acquired resource.
    release_methods: frozenset[str] = frozenset(
        {"close", "shutdown", "release", "terminate", "kill"}
    )
    #: Method names that reap a spawned thread/process.
    join_methods: frozenset[str] = frozenset({"join", "terminate", "kill"})

    # -- deadline discipline -------------------------------------------------
    #: Serving-path entry points: ``Class.method`` / function symbols
    #: from which every transitively reachable blocking call must carry
    #: a timeout.  ``ClusterExecutor`` inherits the core's lifecycle;
    #: its own entry points are the refused ``apply`` and the sharded
    #: execution step the core's workers call.
    deadline_entrypoints: tuple[str, ...] = (
        "QueryExecutor.submit",
        "QueryExecutor.ask",
        "QueryExecutor.apply",
        "QueryExecutor._execute_batch",
        "ClusterExecutor.apply",
        "ClusterExecutor._run_join",
        "_Handler.do_GET",
        "_Handler.do_POST",
        "_Handler.do_DELETE",
    )
    #: Packages the deadline rule applies to (defaults to the
    #: concurrency scope when left empty).
    deadline_packages: tuple[str, ...] = ()
    #: Method names that can wait forever but accept a timeout argument.
    deadline_methods: frozenset[str] = frozenset(
        {"get", "put", "join", "wait", "result", "acquire", "poll", "recv"}
    )
    #: Receiver-name substrings that mark a waitable receiver for the
    #: deadline methods (so ``d.get(key)`` on a dict or ``sep.join``
    #: on a string never fire).
    deadline_receiver_hints: frozenset[str] = frozenset(
        {
            "queue",
            "thread",
            "cond",
            "event",
            "stop",
            "sock",
            "proc",
            "future",
            "fut",
            "sem",
            "conn",
            "pipe",
            "reply",
            "worker",
            "pending",
        }
    )
    #: Argument names that satisfy the discipline when passed (a
    #: positional argument whose expression mentions one also counts).
    deadline_argument_hints: tuple[str, ...] = (
        "timeout",
        "deadline",
        "remaining",
        "budget",
        "interval",
    )

    # -- wire contracts ------------------------------------------------------
    #: The pinned-contract registry file (repo-root relative, like
    #: ``taxonomy_doc``; empty disables the rule).
    contracts_file: str = "contracts.json"
    #: Every surface the contract extractor pins (see WireSurface).
    wire_surfaces: tuple[WireSurface, ...] = field(
        default_factory=_default_wire_surfaces
    )

    # -- determinism ---------------------------------------------------------
    #: Packages in which join/scoring code must be deterministic.
    determinism_packages: tuple[str, ...] = (
        "core/algorithms",
        "core/kernels",
        "core/scoring",
        "core/matchset.py",
        "core/match.py",
        "core/query.py",
    )

    # -- exception hygiene ---------------------------------------------------
    #: Package in which only core/errors.py exceptions may be raised.
    core_package: str = "core"
    #: Module (relative path) that defines the allowed exceptions.
    core_errors_module: str = "core/errors.py"
    #: Exception names always allowed (control-flow / stdlib idioms).
    allowed_raises: frozenset[str] = frozenset(
        {"NotImplementedError", "StopIteration", "KeyboardInterrupt"}
    )
    #: Packages on the serving path where a silently-swallowed
    #: exception (``except ...: pass``) is a finding.
    serving_packages: tuple[str, ...] = (
        "service",
        "reliability",
        "obs",
        "cluster",
    )

    # -- durability ----------------------------------------------------------
    #: Files (path prefixes below the analysis root) holding the durable
    #: index layer, where every file write must go through the fsync
    #: envelope helpers (``write_snapshot``) — a raw ``open(..., "w")``
    #: there is a torn-write waiting for a crash.
    durability_packages: tuple[str, ...] = ("index/segments.py",)
    #: Symbols allowed to use raw write primitives anyway: the WAL
    #: (which implements its own append+fsync discipline — an envelope
    #: rewrite per record would defeat the log), quarantine (a pure
    #: rename of evidence), and the advisory directory lock (an empty
    #: flock sentinel, not a durability artifact).
    durability_allowed_writers: frozenset[str] = frozenset(
        {
            "WriteAheadLog",
            "SegmentedIndex._quarantine",
            "SegmentedIndex._acquire_dir_lock",
        }
    )

    # -- taxonomy ------------------------------------------------------------
    #: Packages scanned for span/log/metric name literals.
    taxonomy_packages: tuple[str, ...] = (
        "service",
        "obs",
        "reliability",
        "cluster",
        "retrieval",
        "index",
        "system.py",
        "cli.py",
    )
    #: The documentation file every taxonomy name must appear in
    #: (relative to the repository root; empty disables the doc check).
    taxonomy_doc: str = "docs/OBSERVABILITY.md"
    #: Canonical name sets.  ``None`` means "use the live registry in
    #: :mod:`repro.obs.taxonomy`"; fixture tests substitute small sets.
    taxonomy_spans: frozenset[str] | None = None
    taxonomy_events: frozenset[str] | None = None
    taxonomy_counters: frozenset[str] | None = None
    taxonomy_prometheus: frozenset[str] | None = None

    # -- derived scopes ------------------------------------------------------

    def escape_scope(self) -> tuple[str, ...]:
        return self.escape_packages or self.concurrency_packages

    def lifecycle_scope(self) -> tuple[str, ...]:
        return self.lifecycle_packages or self.concurrency_packages

    def deadline_scope(self) -> tuple[str, ...]:
        return self.deadline_packages or self.concurrency_packages


DEFAULT_CONFIG = AnalysisConfig()
