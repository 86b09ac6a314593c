"""Outside-in tracer: spans around the public entry points of each layer.

The benchmark never edits the program.  In the traced run it replaces
functions where their callers look them up (a class attribute, or a name
imported into the calling module) with wrappers that record a span, and
puts the originals back afterwards.  Spans are kept in memory; a span's
*self time* is its duration minus the durations of the spans opened
inside it on the same thread.

:data:`LAYERS` is the map from span name to wrapped functions; LAYERS.md
says which end-to-end metric each layer should move, on which workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

#: span name -> [(module, attribute path)], each patched where it is
#: looked up.  A dotted path names a class attribute.
LAYERS = {
    "matching.plan": [("repro.system", "SearchSystem._plan")],
    "retrieval.ask": [("repro.system", "SearchSystem._ask_one")],
    "retrieval.rank": [("repro.system", "SearchSystem._rank")],
    "index.matchlists.candidates": [
        ("repro.index.matchlists", "ConceptIndex.candidate_documents")
    ],
    "index.matchlists.lookup": [("repro.index.matchlists", "ConceptIndex.match_lists")],
    "index.matchlists.materialize": [
        ("repro.index.matchlists", "ConceptIndex.match_list")
    ],
    "index.cursors.build": [("repro.index.matchlists", "build_term_postings")],
    "index.pairs.build": [("repro.system", "build_pair_index")],
    "core.kernels.lower": [
        ("repro.core.kernels.joins", "lower"),
        ("repro.core.algorithms.by_location", "lower"),
    ],
    "core.algorithms.join": [
        ("repro.retrieval.daat", "best_matchset"),
        ("repro.retrieval.topk_retrieval", "best_matchset"),
        ("repro.retrieval.ranking", "best_matchset"),
    ],
    "index.segments.wal_append": [("repro.index.segments", "WriteAheadLog.append")],
    "index.segments.wal_commit": [("repro.index.segments", "WriteAheadLog.commit")],
    "index.segments.fsync": [("os", "fsync")],
    "index.segments.seal": [("repro.index.segments", "SegmentedIndex._seal_locked")],
    "index.segments.merge": [("repro.index.segments", "SegmentedIndex.merge_once")],
    "index.segments.postings": [("repro.index.segments", "SegmentedIndex.postings")],
    "index.segments.recover": [("repro.index.segments", "SegmentedIndex._recover")],
    "index.segments.replay": [
        ("repro.index.segments", "SegmentedIndex._replay_record")
    ],
    "service.batching.plan": [("repro.service.executor", "MicroBatcher.plan")],
    "service.executor.submit": [
        ("repro.service.executor", "QueryExecutor.submit"),
        ("repro.cluster.coordinator", "ClusterExecutor.submit"),
    ],
    "service.executor.process": [
        ("repro.service.executor", "QueryExecutor._execute_batch"),
        ("repro.cluster.coordinator", "ClusterExecutor._process"),
    ],
    "service.server.handle": [("repro.service.server", "_Handler.do_GET")],
    "cluster.shard_rpc": [("repro.cluster.coordinator", "_ShardHandle._serve_call")],
    "cluster.merge": [("repro.cluster.coordinator", "threshold_merge")],
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for one patch site."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(owner, name: str):
    """The stored attribute (a class's plain function, not a bound one)."""
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: int) -> None:
        self.name = name
        self.start = start
        self.children = 0


class Tracer:
    """Records ``(name, start_ns, duration_ns, self_ns, thread, parent)``
    spans, ``parent`` being the enclosing span's name or ``""``.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, called
    after the wrapped function returns, for counts that live in
    arguments or results (list sizes, merge pulls, queue waits).
    ``scopes`` maps a span name to a context-manager factory entered
    around each call (to scope the program's own counters to it).
    """

    def __init__(self, hooks=None, scopes=None) -> None:
        self.spans: list[tuple[str, int, int, int, int, str]] = []
        self.hooks = dict(hooks or {})
        self.scopes = dict(scopes or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------

    def _wrap(self, name: str, function):
        hook = self.hooks.get(name)
        scope = self.scopes.get(name, contextlib.nullcontext)
        local = self._local
        spans = self.spans
        lock = self._lock

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = _Frame(name, time.perf_counter_ns())
            stack.append(frame)
            try:
                with scope():
                    result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].children += duration
                with lock:
                    spans.append(
                        (
                            name,
                            frame.start,
                            duration,
                            duration - frame.children,
                            threading.get_ident(),
                            stack[-1].name if stack else "",
                        )
                    )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Patch every site in :data:`LAYERS`; idempotent."""
        if self._patches:
            return
        for name, sites in LAYERS.items():
            for module_name, path in sites:
                owner, attr = _resolve(module_name, path)
                original = _raw(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        """Put every original back, in reverse patch order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextlib.contextmanager
    def suspended(self):
        """Originals in place for the block (forked children inherit
        whatever is patched at fork time)."""
        active = bool(self._patches)
        self.restore()
        try:
            yield
        finally:
            if active:
                self.install()

    # -- summaries --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self milliseconds."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for name, _start, duration, self_ns, _thread, _parent in spans:
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += duration / 1e6
            row["self_ms"] += self_ns / 1e6
        return out

    def durations_ms(self, name: str) -> list[float]:
        with self._lock:
            return [span[2] / 1e6 for span in self.spans if span[0] == name]

    def write(self, path: str) -> None:
        """Write the raw spans, one tab-separated line each."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tduration_ns\tself_ns\tthread\tparent\n")
            for span in spans:
                handle.write("\t".join(str(field) for field in span) + "\n")


def patch_sites():
    """Every (owner, attribute) the tracer patches, resolved now."""
    return [
        _resolve(module_name, path)
        for sites in LAYERS.values()
        for module_name, path in sites
    ]

