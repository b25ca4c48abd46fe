"""The traced run: per-layer metrics from spans, counts and stats deltas.

Units: ``ms/query`` and ``count/query`` are totals over the timed phase
divided by the searches it completed; ``ms/hop`` is per HTTP search
request; ``ms/write`` is per ``/add``; ``s`` and ``count`` under
``build.*`` and ``cluster.*_s`` cover one set-up.  Metrics named
``*self_ms`` exclude the time of the layer's child spans; the others
include it.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from run import capacities, run_phase, summarize
from tracing import Tracer, install

#: The span each workload opens per request (for trace.coverage).
REQUEST_SPAN = {
    "dblp_probe": "service.search",
    "http_mixed": "client.search",
    "cluster_scan": "cluster.search",
}

#: QueryProfile counters reported per query, by metric name.
PROFILE_COUNTERS = {
    "query.rdil_probes_per_query": "rdil_probes",
    "query.postings_scanned_per_query": "postings_scanned",
    "query.dewey_comparisons_per_query": "dewey_comparisons",
    "query.merge_stack_pushes_per_query": "merge_stack_pushes",
}


def _cache_totals(services) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for service in services:
        for cache in ("result", "list"):
            stats = getattr(service, f"{cache}_cache").stats()
            for key in ("hits", "misses", "invalidations"):
                name = f"{cache}.{key}"
                totals[name] = totals.get(name, 0) + stats[key]
    return totals


def _profile_totals(services) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for service in services:
        for cell in service.profile_snapshot()["profiles"]:
            for name, value in cell["counters"].items():
                totals[name] = totals.get(name, 0) + value
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_run(workload, seconds: float):
    """Half the time untraced, then the same operations traced."""
    from repro.obs.profile import ProfileRegistry

    half = seconds / 2.0
    system = workload.setup()
    try:
        plain, plain_wall = run_phase(workload, system, workload.ops, half)
    finally:
        workload.teardown(system)

    tracer = Tracer()
    install(tracer)
    tracer.phase = "setup"
    system = workload.setup()
    try:
        services = workload.services(system)
        sizes = capacities(workload, system)
        if workload.profiles_supported:
            for service in services:
                service.profiles = ProfileRegistry()
        pages_written = workload.io_stats(system).page_writes
        caches_before = _cache_totals(services)
        io_before = workload.io_stats(system)
        tracer.phase = "run"
        traced, wall = run_phase(workload, system, workload.ops, half)
        tracer.phase = "after"
        io = workload.io_stats(system).delta_since(io_before)
        caches = _cache_totals(services)
        caches = {k: caches[k] - caches_before[k] for k in caches}
        profile = (
            _profile_totals(services) if workload.profiles_supported else {}
        )
    finally:
        workload.teardown(system)

    summary = summarize(traced, wall)
    plain_summary = summarize(plain, plain_wall)
    metrics = _layer_metrics(
        workload.name, tracer, summary, io, caches, profile, pages_written
    )
    metrics["trace.overhead_ratio"] = (
        _ratio(summary["query_mean_ms"], plain_summary["query_mean_ms"]),
        "ratio",
    )
    summary["sizes"] = sizes
    return [plain, traced], summary, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def _layer_metrics(name, tracer, summary, io, caches, profile, pages_written):
    run = "run"
    searches = max(1, summary["searches"])
    writes = summary["writes"]
    counts = tracer.counts(run)
    setup_counts = tracer.counts("setup")

    def per_query_ms(span_name: str) -> float:
        return tracer.total(run, span_name) * 1000.0 / searches

    def per_write_ms(span_name: str) -> float:
        return tracer.total(run, span_name) * 1000.0 / writes if writes else 0.0

    def self_ms(span_name: str) -> float:
        spans = tracer.spans(run, span_name)
        return sum(s.self_time() for s in spans) * 1000.0 / searches

    def setup_s(span_name: str) -> float:
        return tracer.total("setup", span_name)

    hops = [s for s in tracer.spans(run, "client.search") if s.pair is not None]
    transport = [
        (s.duration - tracer.by_pair[s.pair].duration) * 1000.0 for s in hops
    ]
    rpc_max: List[float] = []
    rpc_skew: List[float] = []
    for query in tracer.spans(run, "cluster.search"):
        rpcs = [c.duration * 1000.0 for c in query.children if c.name == "client.search"]
        if rpcs:
            rpc_max.append(max(rpcs))
            rpc_skew.append(max(rpcs) - min(rpcs))
    hdil_evals = len(tracer.spans(run, "evaluate.hdil"))
    evaluate_ms = per_query_ms("evaluate.hdil") + per_query_ms("evaluate.dil")
    requests = tracer.spans(run, REQUEST_SPAN[name])
    coverage = [
        s.child_coverage() / s.duration for s in requests if s.duration > 0
    ]

    metrics = {
        "service.transport_ms": (
            statistics.fmean(transport) if transport else 0.0, "ms/hop"
        ),
        "service.admission.acquire_ms": (per_query_ms("admission.acquire"), "ms/query"),
        "service.lock.read_wait_ms": (per_query_ms("lock.read"), "ms/query"),
        "service.lock.write_wait_ms": (per_write_ms("lock.write"), "ms/write"),
        "service.core.self_ms": (self_ms("service.search"), "ms/query"),
        "service.cache.result_hit_ratio": (
            _ratio(caches["result.hits"], caches["result.hits"] + caches["result.misses"]),
            "ratio",
        ),
        "service.cache.list_hit_ratio": (
            _ratio(caches["list.hits"], caches["list.hits"] + caches["list.misses"]),
            "ratio",
        ),
        "service.cache.invalidations": (
            caches["result.invalidations"] + caches["list.invalidations"], "count"
        ),
        "engine.search.self_ms": (self_ms("engine.search"), "ms/query"),
        "query.evaluate_ms": (evaluate_ms, "ms/query"),
        "query.rdil_mode_share": (
            1.0 - _ratio(counts.get("hdil.dil_scan", 0), hdil_evals)
            if hdil_evals else 0.0,
            "ratio",
        ),
        "storage.btree.lcp_probes_per_query": (
            len(tracer.spans(run, "btree.lcp")) / searches, "count/query"
        ),
        "storage.btree.lcp_ms": (per_query_ms("btree.lcp"), "ms/query"),
        "index.hdil.leaf_decodes_per_query": (
            len(tracer.spans(run, "hdil.leaf_decode")) / searches, "count/query"
        ),
        "index.hdil.leaf_decode_ms": (per_query_ms("hdil.leaf_decode"), "ms/query"),
        "xmlmodel.dewey.decodes_per_query": (
            counts.get("dewey.decode", 0) / searches, "count/query"
        ),
        "storage.disk.reads_per_query": (
            counts.get("disk.read", 0) / searches, "count/query"
        ),
        "storage.disk.page_misses_per_query": (io.page_reads / searches, "count/query"),
        "storage.disk.pool_hit_ratio": (
            _ratio(io.cache_hits, io.cache_hits + io.page_reads), "ratio"
        ),
        "cluster.coordinator.self_ms": (self_ms("cluster.search"), "ms/query"),
        "cluster.rpc_ms": (statistics.fmean(rpc_max) if rpc_max else 0.0, "ms/query"),
        "cluster.shard_skew_ms": (
            statistics.fmean(rpc_skew) if rpc_skew else 0.0, "ms/query"
        ),
        "cluster.merge_ms": (per_query_ms("cluster.merge"), "ms/query"),
        "write.parse_ms": (per_write_ms("parse"), "ms/write"),
        "write.finalize_ms": (per_write_ms("finalize"), "ms/write"),
        "write.index_add_ms": (per_write_ms("index_add"), "ms/write"),
        "build.parse_s": (setup_s("parse"), "s"),
        "build.finalize_s": (setup_s("finalize"), "s"),
        "build.elemrank_s": (setup_s("elemrank"), "s"),
        "build.extract_s": (setup_s("extract"), "s"),
        "build.encode_write_s": (setup_s("encode_write"), "s"),
        "build.postings_encoded": (setup_counts.get("posting.encode", 0), "count"),
        "build.pages_written": (pages_written, "count"),
        "cluster.stats_exchange_s": (setup_s("cluster.stats_exchange"), "s"),
        "cluster.shard_build_s": (setup_s("cluster.shard_build"), "s"),
        "trace.coverage": (statistics.fmean(coverage) if coverage else 0.0, "ratio"),
    }
    for metric, counter in PROFILE_COUNTERS.items():
        metrics[metric] = (profile.get(counter, 0) / searches, "count/query")
    return metrics
