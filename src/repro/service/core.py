"""The in-process query service: engine + locks + caches + admission.

:class:`XRankService` is the composition point of the serving layer.  It
wraps one :class:`~repro.engine.XRankEngine` and provides exactly the
operations the HTTP server (and the load benchmark, which skips HTTP)
needs:

* ``search()`` — admission-controlled, read-locked, result-cached,
  deadline-bounded ranked search returning a :class:`SearchResponse`;
  storage faults (:class:`~repro.errors.FaultError`) are retried once and
  then routed through the per-kind circuit breaker to a fallback index
  (RDIL/HDIL → DIL), producing a *degraded-with-flag* answer rather than
  a silent wrong one — and a typed error when even the fallback fails;
* ``add_xml()`` — write-locked corpus growth, incremental when the
  engine has a ``dil-incremental`` index built, full rebuild otherwise,
  followed by generation-based cache invalidation;
* ``delete()`` / ``stats()`` / ``healthz()`` — the remaining surface.

Lock discipline: queries share a read lock, mutations take the write
lock, and cache generations are only ever bumped while holding the write
lock — so a reader always sees a cache generation consistent with the
index it is querying.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import SLOParams
from ..engine import SearchHit, XRankEngine
from ..errors import FaultError
from ..obs import NOOP_SPAN, Tracer
from ..obs.log import EventLog, bind_trace
from ..obs.profile import ProfileRegistry, QueryProfile, activate
from ..obs.render import to_dict as trace_to_dict
from ..obs.slo import SLOMonitor
from ..obs.trace import TraceContext
from ..storage.iostats import IOStats, total_io
from .admission import AdmissionController, Deadline
from .breaker import FALLBACK_KIND, CircuitBreaker
from .cache import MISS, GenerationalLRU
from .concurrency import ReadWriteLock
from .metrics import ServiceMetrics


@dataclass
class SearchResponse:
    """One served query: hits plus serving metadata."""

    hits: List[SearchHit]
    degraded: bool = False      # deadline expired; hits are a partial top-k
    cached: bool = False        # served from the result cache
    latency_ms: float = 0.0
    generation: int = 0         # index generation that produced the hits
    kind: str = "hdil"
    query: str = ""
    m: int = 10
    extras: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view for the HTTP layer."""
        payload: Dict[str, object] = {
            "query": self.query,
            "kind": self.kind,
            "m": self.m,
            "degraded": self.degraded,
            "cached": self.cached,
            "latency_ms": self.latency_ms,
            "generation": self.generation,
            "results": [hit.to_dict() for hit in self.hits],
        }
        payload.update(self.extras)
        return payload


class XRankService:
    """Thread-safe serving facade over one :class:`XRankEngine`."""

    def __init__(
        self,
        engine: XRankEngine,
        kinds: Optional[Sequence[str]] = None,
        default_kind: Optional[str] = None,
        result_cache_size: int = 256,
        list_cache_size: int = 256,
        max_concurrent: int = 8,
        max_queue: int = 64,
        queue_timeout_s: Optional[float] = 10.0,
        default_deadline_ms: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 32,
        tracer: Optional[Tracer] = None,
        snapshot_store=None,
        profile: bool = False,
    ):
        """Args:
            engine: the engine to serve; built here if it has documents
                but no indexes yet.
            kinds: index kinds to (re)build on writes; defaults to the
                engine's currently built kinds, or ``("hdil",)``.
            default_kind: kind served when a request names none.
            result_cache_size: query-result LRU entries (0 disables).
            list_cache_size: decoded posting-list LRU entries (0 disables).
            max_concurrent / max_queue / queue_timeout_s: admission gate.
            default_deadline_ms: per-query budget applied when a request
                does not carry its own (None = unlimited).
            breaker_threshold / breaker_cooldown: consecutive storage
                faults that open a kind's circuit, and the number of
                queries it stays open (query-counted for determinism).
            tracer: per-query trace sampler/buffer; defaults to a
                ``sample="never"`` tracer, so instrumentation costs one
                branch per stage unless sampling is turned on (or a
                remote caller forwards a trace context).
            snapshot_store: optional :class:`~repro.durability.
                SnapshotStore` backing this service; its write/recovery
                counters ride on :meth:`stats` (and therefore
                ``/metrics`` as ``xrank_snapshots_*`` gauges).
            profile: collect per-query cost profiles into a
                :class:`~repro.obs.profile.ProfileRegistry` (served on
                ``/profile``).  Off by default; it can also be enabled
                later by assigning ``service.profiles``.
        """
        self.engine = engine
        self.lock = ReadWriteLock()
        # Structured event log: operational events (admission rejects,
        # breaker transitions, degraded answers, ...) carrying the
        # active query's trace id.  Replaces ad-hoc prints/logging.
        self.events = EventLog()
        self.metrics = ServiceMetrics(
            slo=SLOMonitor(getattr(engine.config, "slo", None) or SLOParams())
        )
        self.tracer = tracer or Tracer()
        self.profiles: Optional[ProfileRegistry] = (
            ProfileRegistry() if profile else None
        )
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            events=self.events,
        )
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            queue_timeout_s=queue_timeout_s,
        )
        self.result_cache = GenerationalLRU(result_cache_size, name="results")
        self.list_cache = GenerationalLRU(list_cache_size, name="posting-lists")
        self.default_deadline_ms = default_deadline_ms
        self.snapshot_store = snapshot_store

        if not engine._indexes and engine.graph.documents:
            engine.build(kinds=tuple(kinds) if kinds else ("hdil",))
        self.kinds = tuple(
            kinds
            if kinds
            else (sorted(engine._indexes) or ["hdil"])
        )
        self.default_kind = default_kind or (
            "hdil" if "hdil" in self.kinds else self.kinds[0]
        )
        self._sync_caches()

    # -- cache wiring ---------------------------------------------------------------

    def _sync_caches(self) -> None:
        """Re-attach the list cache to (possibly rebuilt) evaluators and
        align both caches' generation with the engine.

        Called at construction and after every write, while the write
        lock (or exclusive setup) is held — hence the lock-discipline
        suppressions: the caller owns the exclusive section.
        """
        self.result_cache.bump(self.engine.generation)  # repro: ignore[lock-discipline]
        self.list_cache.bump(self.engine.generation)  # repro: ignore[lock-discipline]
        for evaluator in self.engine._evaluators.values():  # repro: ignore[lock-discipline]
            if hasattr(evaluator, "list_cache"):
                evaluator.list_cache = (
                    self.list_cache if self.list_cache.capacity else None
                )

    # -- serving --------------------------------------------------------------------

    def search(
        self,
        query: str,
        m: int = 10,
        kind: Optional[str] = None,
        mode: str = "and",
        offset: int = 0,
        highlight: bool = False,
        with_context: bool = False,
        deadline_ms: Optional[float] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> SearchResponse:
        """Admission-controlled, cached, deadline-bounded ranked search.

        Storage faults degrade instead of failing where possible: one
        retry on the requested kind, then the circuit breaker's fallback
        kind (flagged ``degraded`` with ``served_kind``/``fault`` extras).
        Fault-degraded answers are never cached.

        A non-None ``trace_ctx`` means an upstream coordinator is tracing
        this query: the request is traced regardless of the local
        sampler, and the finished span tree rides back in
        ``extras["trace"]`` for cross-process grafting.

        Raises:
            ServiceOverloadedError: the admission queue is full.
            QueryError / IndexNotBuiltError: malformed request or the
                requested index kind is not built.
            FaultError: the requested kind and its fallback both failed
                (or there is no fallback) — loud, typed, never silent.
        """
        kind = kind or self.default_kind
        started = time.perf_counter()
        span = self.tracer.begin(
            "service.search",
            ctx=trace_ctx,
            query=query,
            kind=kind,
            m=m,
            mode=mode,
        )
        profile = QueryProfile() if self.profiles is not None else None
        # Bind the trace id for the whole request so every structured
        # event emitted below (admission, breaker, degradation) joins
        # to this query's span tree; unsampled queries bind None.
        with bind_trace(span.trace_id if span.recording else None):
            try:
                with span.child("admission") as admit_span:
                    try:
                        self.admission.acquire()
                    except Exception as exc:
                        admit_span.event("rejected")
                        self.metrics.record_rejection()
                        self.events.emit(
                            "admission_reject",
                            index_kind=kind,
                            error=type(exc).__name__,
                        )
                        raise
                self.metrics.observe_stage(
                    "admission", (time.perf_counter() - started) * 1000.0
                )
                extras: Dict[str, object] = {}
                deadline_expired = False
                try:
                    with self.lock.read():
                        generation = self.engine.generation
                        serve_kind, fault_note = self._route_kind(kind, span)
                        key = (
                            serve_kind, mode, query, m, offset, highlight,
                            with_context,
                        )
                        with span.child("cache.lookup") as cache_span:
                            value = self.result_cache.get(key)
                            cache_span.event(
                                "hit" if value is not MISS else "miss"
                            )
                        if value is not MISS:
                            hits, degraded, cached = value, False, True
                            if profile is not None:
                                profile.result_cache_hits += 1
                        else:
                            cached = False
                            if profile is not None:
                                profile.result_cache_misses += 1
                            budget = (
                                deadline_ms
                                if deadline_ms is not None
                                else self.default_deadline_ms
                            )
                            deadline = Deadline.after_ms(budget)
                            evaluate_started = time.perf_counter()
                            with span.child(
                                "evaluate", kind=serve_kind, mode=mode
                            ) as eval_span:
                                want_io = (
                                    eval_span.recording or profile is not None
                                )
                                io_before = (
                                    self._io_totals_locked().snapshot()
                                    if want_io
                                    else None
                                )
                                churn_before = (
                                    self._cache_churn_locked()
                                    if profile is not None
                                    else 0
                                )
                                cpu_before = (
                                    time.process_time_ns()
                                    if profile is not None
                                    else 0
                                )
                                with activate(profile):
                                    hits, serve_kind, fault_note = (
                                        self._search_hardened(
                                            query,
                                            serve_kind,
                                            fault_note,
                                            deadline,
                                            span=eval_span,
                                            m=m,
                                            mode=mode,
                                            offset=offset,
                                            highlight=highlight,
                                            with_context=with_context,
                                        )
                                    )
                                if io_before is not None:
                                    io_delta = self._io_totals_locked(
                                    ).delta_since(io_before)
                                    if eval_span.recording:
                                        eval_span.attach_io(io_delta)
                                    if profile is not None:
                                        profile.page_reads += (
                                            io_delta.page_reads
                                        )
                                        profile.bytes_read += (
                                            io_delta.page_reads
                                            * self._page_size()
                                        )
                                if profile is not None:
                                    profile.add_cpu(
                                        "evaluate",
                                        time.process_time_ns() - cpu_before,
                                    )
                                    profile.cache_generation_churn += (
                                        self._cache_churn_locked()
                                        - churn_before
                                    )
                                eval_span.set("hits", len(hits))
                            self.metrics.observe_stage(
                                "evaluate",
                                (time.perf_counter() - evaluate_started)
                                * 1000.0,
                            )
                            deadline_expired = deadline.expired
                            degraded = deadline_expired or serve_kind != kind
                            if not degraded:
                                # Partial answers must not be replayed to
                                # clients that did not ask for a tight
                                # deadline, and fault-degraded answers must
                                # not be replayed at all.
                                self.result_cache.put(key, hits)
                        if serve_kind != kind:
                            extras["served_kind"] = serve_kind
                            degraded = True
                        if fault_note is not None:
                            extras["fault"] = fault_note
                        if degraded:
                            reason = (
                                "deadline" if deadline_expired else "fallback"
                            )
                            span.event("degraded", reason=reason)
                            self.events.emit(
                                "degraded_answer",
                                index_kind=kind,
                                served_kind=serve_kind,
                                reason=reason,
                            )
                except Exception as exc:
                    self.metrics.record_error()
                    span.event("error", type=type(exc).__name__)
                    self.events.emit(
                        "query_error",
                        index_kind=kind,
                        error=type(exc).__name__,
                    )
                    raise
                finally:
                    self.admission.release()
            finally:
                span.finish()
                self.tracer.finish(span)
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_search(latency_ms, cached=cached, degraded=degraded)
        self.metrics.observe_stage("total", latency_ms)
        if profile is not None:
            # Aggregate under (evaluator, query shape, result bucket) —
            # the axes the paper's cost analyses slice along.
            self.profiles.record(
                serve_kind,
                f"{mode}:{len(query.split())}kw",
                len(hits),
                profile,
            )
            if span.recording:
                span.set("profile", profile.nonzero())
        if span.recording:
            span.set("cached", cached)
            if trace_ctx is not None:
                # The upstream coordinator stitches this segment into its
                # own trace; ship the finished tree in the payload.
                extras["trace"] = trace_to_dict(span)
        return SearchResponse(
            hits=hits,
            degraded=degraded,
            cached=cached,
            latency_ms=latency_ms,
            generation=generation,
            kind=kind,
            query=query,
            m=m,
            extras=extras,
        )

    def _page_size(self) -> int:
        """The simulated-disk page size (for byte-level I/O attribution)."""
        # Config is frozen at engine construction; reading it needs no lock.
        storage = getattr(self.engine.config, "storage", None)  # repro: ignore[lock-discipline]
        return getattr(storage, "page_size", 4096)

    def _cache_churn_locked(self) -> int:
        """Stale-generation evictions both caches have performed so far.

        Caller holds the read lock.  The delta across one evaluation is
        that query's cache-generation churn — how many stale entries its
        lookups swept out."""
        return (
            self.result_cache.stats()["invalidations"]
            + self.list_cache.stats()["invalidations"]
        )

    def _route_kind(self, kind: str, span=NOOP_SPAN):
        """Pick the serving kind: the breaker may redirect to a fallback.

        Caller holds the read lock.  Returns ``(serve_kind, fault_note)``
        where a non-None note means the response must be flagged degraded.
        """
        if self.breaker.allow(kind):
            return kind, None
        fallback = FALLBACK_KIND.get(kind)
        if fallback is None or fallback not in self.engine._indexes:  # repro: ignore[lock-discipline]
            # Nowhere to go: let the query try the quarantined kind and
            # surface its typed error if the fault persists.
            span.event("breaker_probe", kind=kind)
            return kind, None
        self.metrics.record_fault_fallback()
        span.event("breaker_open", kind=kind, fallback=fallback)
        return fallback, f"circuit open for {kind!r}"

    def _search_hardened(
        self,
        query: str,
        serve_kind: str,
        fault_note,
        deadline,
        span=NOOP_SPAN,
        **options,
    ):
        """One engine search with fault retry + breaker-mediated fallback.

        Caller holds the read lock.  Returns ``(hits, served_kind,
        fault_note)``; raises the second :class:`FaultError` unchanged
        when no healthy fallback exists.
        """
        try:
            hits = self.engine.search(  # repro: ignore[lock-discipline]
                query, kind=serve_kind, deadline=deadline, span=span, **options
            )
        except FaultError as exc:
            self.metrics.record_storage_fault()
            self.breaker.record_failure(serve_kind)
            span.event(
                "storage_fault", kind=serve_kind, error=type(exc).__name__
            )
            fallback = FALLBACK_KIND.get(serve_kind)
            try:
                # Transient faults (injected read errors) often clear on a
                # retry; persistent corruption will fail again immediately.
                span.event("retry", kind=serve_kind)
                hits = self.engine.search(  # repro: ignore[lock-discipline]
                    query, kind=serve_kind, deadline=deadline, span=span,
                    **options,
                )
            except FaultError as retry_exc:
                self.breaker.record_failure(serve_kind)
                if (
                    fallback is None
                    or fallback not in self.engine._indexes  # repro: ignore[lock-discipline]
                ):
                    raise
                self.metrics.record_fault_fallback()
                span.event(
                    "fault_fallback", kind=serve_kind, fallback=fallback
                )
                hits = self.engine.search(  # repro: ignore[lock-discipline]
                    query, kind=fallback, deadline=deadline, span=span,
                    **options,
                )
                return hits, fallback, str(retry_exc)
            self.breaker.record_success(serve_kind)
            return hits, serve_kind, fault_note
        else:
            self.breaker.record_success(serve_kind)
            return hits, serve_kind, fault_note

    # -- mutation -------------------------------------------------------------------

    def add_xml(self, source: str, uri: str = "") -> Dict[str, object]:
        """Add one XML document and make it searchable before returning.

        Uses the engine's incremental index when one is built (cheap
        delta insert); otherwise re-runs the full build over the
        configured kinds.  Either way the caches are invalidated by
        generation bump under the write lock.
        """
        started = time.perf_counter()
        with self.lock.write():
            incremental = "dil-incremental" in self.engine._indexes
            if incremental:
                doc_id = self.engine.add_xml_incremental(source, uri=uri)
            else:
                doc_id = self.engine.add_xml(source, uri=uri)
                self.engine.build(kinds=self.kinds)
            self._sync_caches()
            documents = self.engine.graph.num_documents
            generation = self.engine.generation
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_add(latency_ms)
        return {
            "doc_id": doc_id,
            "documents": documents,
            "incremental": incremental,
            "latency_ms": latency_ms,
            "generation": generation,
        }

    def delete(self, doc_id: int) -> Dict[str, object]:
        """Tombstone one document (write-locked, cache-invalidating)."""
        with self.lock.write():
            self.engine.delete_document(doc_id)
            self._sync_caches()
            documents = self.engine.graph.num_documents
            generation = self.engine.generation
        return {
            "deleted": doc_id,
            "documents": documents,
            "generation": generation,
        }

    def clear_caches(self) -> None:
        """Drop both caches (diagnostics / benchmarking)."""
        self.result_cache.clear()
        self.list_cache.clear()

    # -- introspection ----------------------------------------------------------------

    def io_totals(self) -> IOStats:
        """Summed I/O counters across every built index's simulated disk."""
        with self.lock.read():
            return self._io_totals_locked()

    def _io_totals_locked(self) -> IOStats:
        # Caller holds the (non-reentrant) read lock; see io_totals/stats.
        indexes = self.engine._indexes.values()  # repro: ignore[lock-discipline]
        return total_io(disk for index in indexes for disk in index.disks())

    def stats(self) -> Dict[str, object]:
        """One JSON-ready dict: serving metrics + caches + engine + I/O."""
        with self.lock.read():
            engine_stats = self.engine.stats()
            io = self._io_totals_locked().as_dict()
            generation = self.engine.generation
        payload = {
            "service": self.metrics.snapshot(queue_depth=self.admission.depth()),
            "tracer": self.tracer.stats(),
            # Top-level key on purpose: promfmt prefixes with "xrank_",
            # so the burn rates scrape as xrank_slo_* gauges.
            "slo": self.metrics.slo_snapshot(),
            "events": self.events.stats(),
            "caches": {
                "results": self.result_cache.stats(),
                "posting_lists": self.list_cache.stats(),
            },
            "lock": self.lock.state(),
            "breaker": self.breaker.state(),
            "io": io,
            "engine": engine_stats,
            "generation": generation,
        }
        if self.snapshot_store is not None:
            # Every numeric leaf becomes an xrank_snapshots_* gauge on
            # /metrics (promfmt walks the payload), so recovery activity
            # is scrapeable without a dedicated endpoint.
            payload["snapshots"] = self.snapshot_store.counters()
        return payload

    def profile_snapshot(self) -> Dict[str, object]:
        """The aggregated per-query cost profiles (``/profile`` payload).

        ``{"enabled": False}`` when profiling is off, so the endpoint
        shape is stable either way."""
        if self.profiles is None:
            return {"enabled": False, "queries": 0, "profiles": []}
        return self.profiles.snapshot()

    def healthz(self) -> Dict[str, object]:
        """Cheap liveness probe (read-locked: counters must be coherent).

        ``degraded`` is true while any kind's circuit is open — load
        balancers can drain a replica that is quarantining indexes.
        ``faults`` surfaces the storage-level detection counters so a
        rotting disk shows up here before queries start failing.
        """
        with self.lock.read():
            io = self._io_totals_locked()
            return {
                "status": "ok" if self.engine._indexes else "empty",
                "degraded": self.breaker.is_open(),
                "documents": self.engine.graph.num_documents,
                "kinds": sorted(self.engine._indexes),
                "generation": self.engine.generation,
                "faults": {
                    "read_errors": io.read_errors,
                    "corrupt_pages": io.corrupt_pages,
                    "retries": io.retries,
                },
            }
