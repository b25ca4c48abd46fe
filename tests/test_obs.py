"""Tests for repro.obs: span trees, sampling, canonical export, and the
traced single-node serving path (stage histograms, /traces, storms)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import HDILParams, StorageParams, XRankConfig
from repro.engine import XRankEngine
from repro.errors import XRankError
from repro.obs import (
    NOOP_SPAN,
    Span,
    TraceBuffer,
    TraceContext,
    Tracer,
    render_trace,
    to_canonical_json,
    validate_trace,
)
from repro.obs.render import (
    NONDETERMINISTIC_ATTRS,
    to_dict,
    traces_canonical_json,
)
from repro.obs.trace import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    span_from_dict,
)
from repro.service.core import XRankService
from repro.service.metrics import HISTOGRAM_BUCKETS_MS, Histogram


class FakeClock:
    """A manually-advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, ms: float) -> None:
        self.now += ms / 1000.0


def build_engine(docs=None) -> XRankEngine:
    engine = XRankEngine()
    for index, doc in enumerate(
        docs
        or [
            "<doc><title>alpha beta</title><p>alpha gamma delta</p></doc>",
            "<doc><title>beta gamma</title><p>alpha beta beta</p></doc>",
            "<doc><title>delta</title><p>gamma gamma alpha</p></doc>",
        ]
    ):
        engine.add_xml(doc, uri=f"doc{index}")
    engine.build(kinds=["hdil", "dil"])
    return engine


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------

class TestSpan:
    def test_children_nest_and_share_the_trace_id(self):
        root = Span("root", trace_id="t1")
        child = root.child("stage", step=1)
        grandchild = child.child("io")
        assert child.parent is root and grandchild.parent is child
        assert child.trace_id == grandchild.trace_id == "t1"
        assert root.children == [child] and child.children == [grandchild]

    def test_span_ids_unique_across_concurrent_children(self):
        root = Span("root", trace_id="t1")
        spans = []

        def fan_out():
            spans.append(root.child("shard"))

        threads = [threading.Thread(target=fan_out) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        ids = [span.span_id for span in spans] + [root.span_id]
        assert len(set(ids)) == len(ids)

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        span = Span("root", trace_id="t1", clock=clock)
        clock.advance(10)
        span.finish()
        first = span.duration_ms
        clock.advance(50)
        span.finish()
        assert span.duration_ms == first == pytest.approx(10.0)

    def test_context_manager_records_error_event(self):
        root = Span("root", trace_id="t1")
        with pytest.raises(ValueError):
            with root.child("stage") as span:
                raise ValueError("boom")
        (event,) = root.children[0].events
        assert event["name"] == "error"
        assert event["attrs"]["type"] == "ValueError"
        assert root.children[0].duration_ms is not None

    def test_attach_io_keeps_only_nonzero_counters(self):
        span = Span("root", trace_id="t1")
        span.attach_io({"page_reads": 3, "random_reads": 0})
        assert span.io == {"page_reads": 3}

    def test_graft_marks_the_subtree_remote(self):
        clock = FakeClock()
        worker_root = Span("service.search", trace_id="t1", clock=clock)
        worker_root.child("evaluate").finish()
        clock.advance(5)
        worker_root.finish()

        coordinator_root = Span("cluster.search", trace_id="t1", clock=clock)
        rpc = coordinator_root.child("rpc")
        grafted = rpc.graft(to_dict(worker_root))
        assert grafted.remote and grafted.children[0].remote
        assert grafted.trace_id == "t1"
        assert grafted.duration_ms == pytest.approx(5.0)


class TestNoopSpan:
    def test_is_falsy_and_not_recording(self):
        assert not NOOP_SPAN
        assert NOOP_SPAN.recording is False
        assert (None or NOOP_SPAN) is NOOP_SPAN
        assert (NOOP_SPAN or NOOP_SPAN) is NOOP_SPAN

    def test_whole_surface_is_inert(self):
        assert NOOP_SPAN.child("x") is NOOP_SPAN
        assert NOOP_SPAN.graft({"name": "x"}) is NOOP_SPAN
        NOOP_SPAN.event("e", key=1)
        NOOP_SPAN.set("k", "v")
        NOOP_SPAN.attach_io({"page_reads": 5})
        with NOOP_SPAN as span:
            span.finish()
        assert NOOP_SPAN.events == [] and NOOP_SPAN.attrs == {}
        assert NOOP_SPAN.io is None


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext("t42", "s7")
        headers = ctx.to_headers()
        assert headers == {TRACE_ID_HEADER: "t42", PARENT_SPAN_HEADER: "s7"}
        parsed = TraceContext.from_headers(headers)
        assert parsed.trace_id == "t42"
        assert parsed.parent_span_id == "s7"

    def test_absent_headers_mean_no_context(self):
        assert TraceContext.from_headers({}) is None
        assert TraceContext.from_headers({"X-Other": "1"}) is None


# ---------------------------------------------------------------------------
# Sampling and retention
# ---------------------------------------------------------------------------

class TestTracer:
    def test_never_mode_rides_the_noop_singleton(self):
        tracer = Tracer(sample="never")
        assert not tracer.enabled
        span = tracer.begin("service.search")
        assert span is NOOP_SPAN
        tracer.finish(span)  # must be a no-op, not a crash
        assert len(tracer.buffer) == 0

    def test_always_mode_buffers_every_trace(self):
        tracer = Tracer(sample="always")
        for _ in range(3):
            span = tracer.begin("service.search")
            span.finish()
            tracer.finish(span)
        ids = [root.trace_id for root in tracer.buffer.traces()]
        assert ids == ["t000001", "t000002", "t000003"]

    def test_ratio_sampling_is_a_deterministic_stride(self):
        decisions = []
        for _ in range(2):
            tracer = Tracer(sample="ratio", ratio=0.3)
            decisions.append(
                [
                    tracer.begin("q") is not NOOP_SPAN
                    for _ in range(20)
                ]
            )
        assert decisions[0] == decisions[1]
        assert sum(decisions[0]) == 6  # floor(20 * 0.3)

    def test_slow_mode_retains_only_slow_roots(self):
        clock = FakeClock()
        tracer = Tracer(sample="slow", slow_ms=50.0, clock=clock)
        fast = tracer.begin("fast-query")
        clock.advance(10)
        tracer.finish(fast)
        slow = tracer.begin("slow-query")
        clock.advance(80)
        tracer.finish(slow)
        retained = tracer.buffer.traces()
        assert [root.name for root in retained] == ["slow-query"]

    def test_context_forces_sampling_even_when_disabled(self):
        tracer = Tracer(sample="never")
        ctx = TraceContext("t9", "s3")
        span = tracer.begin("service.search", ctx=ctx)
        assert span is not NOOP_SPAN
        assert span.trace_id == "t9"
        assert span.attrs["parent_span"] == "s3"

    def test_context_for_round_trips_span_identity(self):
        tracer = Tracer(sample="always")
        span = tracer.begin("cluster.search")
        ctx = tracer.context_for(span)
        assert ctx.trace_id == span.trace_id
        assert ctx.parent_span_id == span.span_id
        assert tracer.context_for(NOOP_SPAN) is None

    def test_rejects_unknown_modes_and_bad_ratios(self):
        with pytest.raises(XRankError):
            Tracer(sample="sometimes")
        with pytest.raises(XRankError):
            Tracer(sample="ratio", ratio=1.5)

    def test_buffer_is_bounded_and_counts_drops(self):
        buffer = TraceBuffer(capacity=2)
        for n in range(5):
            span = Span(f"q{n}", trace_id=f"t{n}")
            span.finish()
            buffer.add(span)
        assert len(buffer) == 2
        assert buffer.dropped == 3 and buffer.retained == 5
        assert [root.name for root in buffer.traces()] == ["q3", "q4"]


# ---------------------------------------------------------------------------
# Canonical export and invariants
# ---------------------------------------------------------------------------

def _sample_tree(clock, shuffle=False, latency=1.0):
    """Two runs of the same logical query, with controllable noise."""
    root = Span("service.search", trace_id="t1", clock=clock, query="alpha")
    root.set("latency_ms", latency)  # nondeterministic; must be stripped
    names = ["cache.lookup", "evaluate"]
    if shuffle:
        names.reverse()
    for name in names:
        child = root.child(name)
        child.event("miss" if name == "cache.lookup" else "evaluator")
        clock.advance(latency)
        child.finish()
    root.finish()
    return root


class TestCanonicalExport:
    def test_structure_is_byte_stable_across_noise(self):
        runs = []
        for shuffle, latency in ((False, 1.0), (True, 37.5)):
            clock = FakeClock()
            runs.append(
                to_canonical_json(
                    _sample_tree(clock, shuffle=shuffle, latency=latency)
                )
            )
        assert runs[0] == runs[1]

    def test_nondeterministic_attrs_are_stripped(self):
        clock = FakeClock()
        root = _sample_tree(clock)
        root.set("port", 54321)
        encoded = to_canonical_json(root)
        for key in ("latency_ms", "port", "span_id", "duration_ms"):
            assert key not in json.loads(encoded).get("attrs", {})
            assert f'"{key}"' not in encoded
        assert NONDETERMINISTIC_ATTRS >= {"latency_ms", "port"}

    def test_traces_canonical_json_covers_a_sequence(self):
        clock = FakeClock()
        doc = traces_canonical_json([_sample_tree(clock), _sample_tree(clock)])
        parsed = json.loads(doc)
        assert len(parsed) == 2 and parsed[0] == parsed[1]

    def test_span_from_dict_round_trips_canonical_structure(self):
        clock = FakeClock()
        root = _sample_tree(clock)
        rebuilt = span_from_dict(to_dict(root))
        assert rebuilt.remote
        assert to_canonical_json(rebuilt) == to_canonical_json(root)
        assert validate_trace(rebuilt) == []

    def test_render_trace_shows_events_io_and_remote_markers(self):
        clock = FakeClock()
        root = _sample_tree(clock)
        root.children[1].attach_io({"page_reads": 7})
        root.children[1].remote = True
        text = render_trace(root)
        assert "trace t1" in text
        assert "* miss" in text
        assert "~ io: page_reads=7" in text
        assert "[remote]" in text


class TestInvariants:
    def test_valid_tree_has_no_problems(self):
        clock = FakeClock()
        assert validate_trace(_sample_tree(clock)) == []

    def test_unfinished_span_is_flagged(self):
        root = Span("root", trace_id="t1")
        root.child("leaked")
        root.finish()
        problems = validate_trace(root)
        assert any("never finished" in p for p in problems)

    def test_missing_trace_id_is_flagged(self):
        root = Span("root")
        root.finish()
        assert any("no trace id" in p for p in validate_trace(root))

    def test_orphaned_parent_link_is_flagged(self):
        root = Span("root", trace_id="t1")
        stray = Span("stray", trace_id="t1")
        stray.finish()
        root.children.append(stray)  # child without the parent link
        root.finish()
        assert any("orphan" in p for p in validate_trace(root))

    def test_sequential_parent_bounds_the_sum_of_children(self):
        clock = FakeClock()
        root = Span("root", trace_id="t1", clock=clock)
        for _ in range(2):
            child = root.child("stage")
            clock.advance(100)
            child.finish()
        root.finish()
        # Fake overlapping children under a sequential parent: shrink the
        # parent's duration below the children's sum.
        root.duration_ms = 120.0
        assert any("sum" in p for p in validate_trace(root))
        # Declaring the fan-out parallel waives exactly that bound.
        root.set("parallel", True)
        assert validate_trace(root) == []

    def test_oversized_single_child_is_flagged_even_in_parallel(self):
        clock = FakeClock()
        root = Span("root", trace_id="t1", clock=clock, parallel=True)
        child = root.child("shard")
        clock.advance(500)
        child.finish()
        root.finish()
        root.duration_ms = 100.0
        assert any("inside parent" in p for p in validate_trace(root))


# ---------------------------------------------------------------------------
# Stage histograms
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_buckets_are_cumulative(self):
        histogram = Histogram()
        for value in (0.5, 3.0, 3.0, 40.0, 9999.0):
            histogram.observe(value)
        snapshot = histogram.as_dict()
        assert snapshot["count"] == 5
        assert snapshot["sum_ms"] == pytest.approx(0.5 + 3 + 3 + 40 + 9999)
        buckets = snapshot["buckets"]
        assert buckets["le_1ms"] == 1
        assert buckets["le_5ms"] == 3
        assert buckets["le_50ms"] == 4
        assert buckets["le_inf"] == 5
        # Cumulative counts never decrease along the bucket ladder.
        values = list(buckets.values())
        assert values == sorted(values)
        assert len(buckets) == len(HISTOGRAM_BUCKETS_MS) + 1


# ---------------------------------------------------------------------------
# The traced single-node serving path
# ---------------------------------------------------------------------------

class TestTracedService:
    def test_traced_search_produces_a_valid_staged_tree(self):
        service = XRankService(build_engine(), tracer=Tracer(sample="always"))
        service.search("alpha beta", m=5)
        (root,) = service.tracer.buffer.traces()
        assert validate_trace(root) == []
        assert root.name == "service.search"
        names = [child.name for child in root.children]
        assert names == ["admission", "cache.lookup", "evaluate"]
        (lookup_event,) = root.children[1].events
        assert lookup_event["name"] == "miss"

    def test_cache_hit_trace_has_no_evaluate_span(self):
        service = XRankService(build_engine(), tracer=Tracer(sample="always"))
        service.search("alpha", m=5)
        service.search("alpha", m=5)
        _, hit_root = service.tracer.buffer.traces()
        names = [child.name for child in hit_root.children]
        assert "evaluate" not in names
        (event,) = hit_root.children[1].events
        assert event["name"] == "hit"
        assert hit_root.attrs["cached"] is True

    def test_stage_histograms_and_degraded_total_in_snapshot(self):
        service = XRankService(build_engine(), tracer=Tracer(sample="always"))
        service.search("alpha beta", m=5)
        snapshot = service.metrics.snapshot()
        assert snapshot["degraded_total"] == snapshot["degraded"] == 0
        stages = snapshot["stages"]
        assert {"admission", "evaluate", "total"} <= set(stages)
        assert stages["total"]["count"] == 1

    def test_untraced_search_still_feeds_stage_histograms(self):
        # Histograms serve /metrics scrapers and must not depend on the
        # trace sampling decision; only span trees are sampled.
        service = XRankService(build_engine())  # default tracer: never
        service.search("alpha", m=5)
        assert len(service.tracer.buffer) == 0
        stages = service.metrics.snapshot()["stages"]
        assert stages["total"]["count"] == 1

    def test_trace_rides_extras_only_when_ctx_given(self):
        service = XRankService(build_engine(), tracer=Tracer(sample="always"))
        plain = service.search("alpha", m=5)
        assert "trace" not in plain.extras
        ctx = TraceContext("t77")
        forced = service.search("beta gamma", m=5, trace_ctx=ctx)
        tree = forced.extras["trace"]
        assert tree["trace_id"] == "t77"
        assert validate_trace(span_from_dict(tree)) == []

    def test_seeded_concurrent_storm_yields_valid_identical_traces(self):
        service = XRankService(
            build_engine(),
            tracer=Tracer(sample="always", buffer_size=256),
        )
        queries = ["alpha beta", "gamma", "alpha", "beta gamma"]
        errors: list = []

        def client(worker: int) -> None:
            try:
                for i in range(8):
                    service.search(queries[(worker + i) % len(queries)], m=5)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

        traces = service.tracer.buffer.traces()
        assert len(traces) == 32
        by_query = {}
        for root in traces:
            assert validate_trace(root) == [], render_trace(root)
            by_query.setdefault(
                root.attrs["query"], set()
            ).add(to_canonical_json(root))
        # Cache hits and misses legitimately differ in structure, but a
        # given query must produce at most those two shapes — storms may
        # not invent new trees.
        for query, shapes in by_query.items():
            assert len(shapes) <= 2, (query, shapes)


# ---------------------------------------------------------------------------
# HDIL's query plan in the trace
# ---------------------------------------------------------------------------

def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _event_names(root):
    return [event["name"] for span in _walk(root) for event in span.events]


class TestHDILPlanSpans:
    def test_dil_first_plan_opens_dil_scan_without_fallback(self):
        # Three small documents: every list is one page, so DIL's a-priori
        # cost is below any RDIL run and HDIL never probes the heads.
        service = XRankService(build_engine(), tracer=Tracer(sample="always"))
        service.search("alpha beta", m=5)
        (root,) = service.tracer.buffer.traces()
        assert validate_trace(root) == []
        spans = list(_walk(root))
        assert "rdil_probe" not in {span.name for span in spans}
        (scan,) = [span for span in spans if span.name == "dil_scan"]
        assert scan.attrs["dil_expected_ms"] <= scan.attrs["rdil_floor_ms"]
        assert [event["name"] for event in scan.events] == ["dil_first"]
        assert scan.io and scan.io["page_reads"] > 0
        assert "hdil_fallback" not in _event_names(root)

    def test_mid_query_switch_emits_hdil_fallback(self):
        config = XRankConfig(
            storage=StorageParams(page_size=64),
            hdil=HDILParams(rank_fraction=0.01, min_rank_entries=1,
                            monitor_interval=1),
        )
        engine = XRankEngine(config)
        for index in range(12):
            engine.add_xml(
                f"<doc><t>alpha beta n{index}</t><p>alpha</p><q>beta</q>"
                f"<r>gamma alpha beta</r></doc>",
                uri=f"doc{index}",
            )
        engine.build(kinds=["hdil"])
        assert engine.index("hdil").total_full_pages(["alpha", "beta"]) > 2
        service = XRankService(engine, tracer=Tracer(sample="always"))
        service.search("alpha beta", m=5)
        (root,) = service.tracer.buffer.traces()
        assert validate_trace(root) == []
        names = _event_names(root)
        assert "switch_to_dil" in names and "hdil_fallback" in names
        assert "dil_first" not in names
        (scan,) = [span for span in _walk(root) if span.name == "dil_scan"]
        assert "rdil_floor_ms" not in scan.attrs
