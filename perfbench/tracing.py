"""In-memory span tracer installed around the program's public functions.

The traced run of each workload wraps the public entry points of every
layer (see :data:`SPANS` and :data:`COUNTS`) from outside the program: no
file under ``src/`` is changed.  A span records name, start, end, its
parent and the phase (``setup`` or ``run``) it ran in; spans live in
memory and are reduced to per-layer metrics when the run ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.

Cross-thread parents are resolved two ways:

* an HTTP hop: the server-side ``XRankService.search`` span stores its id
  in the response extras, and the client-side ``ServiceClient.search``
  wrapper pops it from the payload, so every client span is paired with
  the server span of the same request;
* a cluster fan-out: a ``ClusterCoordinator.search`` span is the parent
  of client spans opened on threads that have no open span.  This holds
  only while one coordinator query runs at a time, which is why the
  cluster workload runs a single client.

Wrappers are installed before set-up, because some callees are bound at
build time (HDIL hands ``decode_list_page`` to every B+-tree it builds).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Key under which the server span id rides back in a /search response.
PAIR_KEY = "perfbench_span"


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "phase", "pair")

    def __init__(self, name: str, parent: Optional["Span"], phase: str):
        self.name = name
        self.parent = parent
        self.children: List[Span] = []
        self.phase = phase
        self.pair: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def child_coverage(self) -> float:
        """Seconds of this span covered by the union of its children."""
        intervals = sorted((c.start, c.end) for c in self.children)
        covered = 0.0
        cursor = self.start
        for start, end in intervals:
            start = max(start, cursor)
            end = min(end, self.end)
            if end > start:
                covered += end - start
                cursor = end
        return covered

    def self_time(self) -> float:
        return self.duration - self.child_coverage()


class Tracer:
    """Collects spans and call counts; thread-safe."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.roots: List[Span] = []
        self.by_pair: Dict[int, Span] = {}
        self.fanout_parent: Optional[Span] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pair_ids = itertools.count(1)
        self._counters: List[Dict[Tuple[str, str], int]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, adopt: bool = False) -> Span:
        """Start a span under this thread's innermost open span; with
        ``adopt``, a thread with no open span takes the fan-out parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and adopt:
            parent = self.fanout_parent
        span = Span(name, parent, self.phase)
        # list.append is atomic under the interpreter lock.
        (parent.children if parent is not None else self.roots).append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def mark_server_span(self, span: Span) -> int:
        pair = next(self._pair_ids)
        span.pair = pair
        with self._lock:
            self.by_pair[pair] = span
        return pair

    def link(self, client: Span, pair: int) -> None:
        """Make the server span ``pair`` a child of ``client``."""
        with self._lock:
            server = self.by_pair[pair]
            if server.parent is None:
                self.roots.remove(server)
            server.parent = client
            client.children.append(server)
        client.pair = pair

    # -- counts --------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._counters.append(counts)
        key = (self.phase, name)
        counts[key] = counts.get(key, 0) + amount

    def counts(self, phase: str) -> Dict[str, int]:
        total: Dict[str, int] = {}
        with self._lock:
            tables = [dict(table) for table in self._counters]
        for table in tables:
            for (span_phase, name), value in table.items():
                if span_phase == phase:
                    total[name] = total.get(name, 0) + value
        return total

    # -- queries over the collected spans ------------------------------------

    def walk(self, phase: str):
        """Every span of ``phase``, parents before children."""
        pending = [s for s in self.roots if s.phase == phase]
        while pending:
            span = pending.pop()
            yield span
            pending.extend(c for c in span.children if c.phase == phase)

    def spans(self, phase: str, name: str) -> List[Span]:
        return [s for s in self.walk(phase) if s.name == name]

    def total(self, phase: str, name: str) -> float:
        """Seconds spent in spans called ``name``; nested repeats of the
        same name count once (their outermost span)."""
        return sum(
            span.duration
            for span in self.spans(phase, name)
            if not _has_ancestor(span, name)
        )


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


# -- installing wrappers --------------------------------------------------------------


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _service_search_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``XRankService.search``: a span whose id rides in the response."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open("service.search")
        try:
            response = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        response.extras[PAIR_KEY] = tracer.mark_server_span(span)
        return response

    return wrapper


def _client_search_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``ServiceClient.search``: a span paired with the server's span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open("client.search", adopt=True)
        try:
            payload = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        pair = payload.pop(PAIR_KEY, None)
        if pair is not None:
            tracer.link(span, pair)
        return payload

    return wrapper


def _coordinator_search_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``ClusterCoordinator.search``: parent of its fan-out threads' spans."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open("cluster.search")
        tracer.fanout_parent = span
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.fanout_parent = None
            tracer.close(span)

    return wrapper


def _replace_function(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every loaded program module, its defining
    module included, so modules imported later bind the replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: (module, function, span name): module-level functions timed as spans.
SPANS = (
    ("repro.xmlmodel.parser", "parse_xml", "parse"),
    ("repro.ranking.elemrank", "compute_elemrank", "elemrank"),
    ("repro.index.postings", "extract_direct_postings", "extract"),
    ("repro.index.postings", "extract_document_raw_postings", "extract"),
    ("repro.index.postings", "attach_scores", "extract"),
    ("repro.index.hdil", "decode_list_page", "hdil.leaf_decode"),
    ("repro.cluster.merge", "merge_hits", "cluster.merge"),
    ("repro.cluster.stats", "compute_global_stats", "cluster.stats_exchange"),
    ("repro.cluster.stats", "build_full_graph", "cluster.stats_exchange"),
    ("repro.cluster.worker", "build_shard_engine", "cluster.shard_build"),
)

#: (module, class, method, span name): methods timed as spans.
METHOD_SPANS = (
    ("repro.xmlmodel.graph", "CollectionGraph", "finalize", "finalize"),
    ("repro.index.builder", "IndexBuilder", "build_hdil", "encode_write"),
    ("repro.index.incremental", "IncrementalDILIndex", "build", "encode_write"),
    ("repro.index.incremental", "IncrementalDILIndex", "add_documents", "index_add"),
    ("repro.service.admission", "AdmissionController", "acquire", "admission.acquire"),
    ("repro.service.concurrency", "ReadWriteLock", "acquire_read", "lock.read"),
    ("repro.service.concurrency", "ReadWriteLock", "acquire_write", "lock.write"),
    ("repro.engine", "XRankEngine", "search", "engine.search"),
    ("repro.query.hdil_eval", "HDILEvaluator", "evaluate", "evaluate.hdil"),
    ("repro.query.dil_eval", "DILEvaluator", "evaluate", "evaluate.dil"),
    ("repro.storage.btree", "BTree", "longest_common_prefix", "btree.lcp"),
)

#: (module, class, method, count name): calls only counted, because they
#: are too frequent to time one by one.
COUNTS = (
    ("repro.xmlmodel.dewey", "DeweyId", "decode", "dewey.decode"),
    ("repro.storage.disk", "SimulatedDisk", "read", "disk.read"),
    ("repro.index.postings", "Posting", "encode", "posting.encode"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; irreversible for this process."""
    import importlib

    for module_name, function, name in SPANS:
        module = importlib.import_module(module_name)
        original = getattr(module, function)
        _replace_function(original, _span_wrapper(tracer, name, original))
    for module_name, cls_name, method, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, _span_wrapper(tracer, name, getattr(cls, method)))
    for module_name, cls_name, method, name in COUNTS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(
                cls,
                method,
                classmethod(_count_wrapper(tracer, name, raw.__func__)),
            )
        else:
            setattr(cls, method, _count_wrapper(tracer, name, raw))

    # HDIL falls back to a DIL-mode scan through conjunctive_merge; the
    # calls made from hdil_eval count the queries that left RDIL mode.
    hdil_eval = importlib.import_module("repro.query.hdil_eval")
    hdil_eval.conjunctive_merge = _count_wrapper(
        tracer, "hdil.dil_scan", hdil_eval.conjunctive_merge
    )

    from repro.cluster.coordinator import ClusterCoordinator
    from repro.service.client import ServiceClient
    from repro.service.core import XRankService

    XRankService.search = _service_search_wrapper(tracer, XRankService.search)
    ServiceClient.search = _client_search_wrapper(tracer, ServiceClient.search)
    ClusterCoordinator.search = _coordinator_search_wrapper(
        tracer, ClusterCoordinator.search
    )
