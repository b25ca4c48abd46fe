"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster_scan --seed 1 --seconds 40 --trace 0

The program under test is imported from ``src/`` next to this directory;
it receives only XML sources generated from ``--seed``.  ``--trace 0``
sets the program up several times (median ``setup_s``), drives a closed
loop of client threads for ``--seconds`` seconds, checks every answer
against the workload's oracle and prints the end-to-end metrics.
``--trace 1`` runs half the time untraced and half with the per-layer
wrappers of :mod:`tracing` installed, and prints the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation succeeded and
every answer matched its oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5

#: Simulated I/O is summed over the first IO_WINDOW operations of client
#: 0, so that sim_io_ms_per_query (deterministic for one client) does not
#: depend on how many operations the machine finished in the run.
IO_WINDOW = 400

#: Operations generated per client: more than any run can finish at the
#: program's current speed (a run also ends when a client runs out).
OPS_PER_CLIENT = {"dblp_probe": 1800, "http_mixed": 6000, "cluster_scan": 4000}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _status_mb(field: str) -> float:
    """A ``kB`` field of ``/proc/self/status`` (VmRSS, VmHWM), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Reset the process's RSS high-water mark to its current RSS (Linux
    ``clear_refs`` 5) and return that baseline in MB, so that a later
    :func:`peak_rss_mb` covers only what follows the reset."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    return _status_mb("VmHWM")


def capacities(workload, system) -> Dict[str, int]:
    """Input sizes next to the program's own cache sizes: which
    workloads fit the buffer pool and the result cache."""
    from repro.config import StorageParams

    return {
        "index_pages": workload.index_pages(system),
        "buffer_pool_pages": StorageParams().buffer_pool_pages,
        "result_cache_entries": workload.services(system)[0].result_cache.capacity,
    }


def run_phase(workload, system, ops, seconds: float, probe=None):
    """Closed loop: each client sends its next operation when the last
    one returns, until the time is up or any client runs out of ops.

    ``probe(searches_done)`` is called once, by client 0 after its
    ``IO_WINDOW``-th operation, so a counter read there covers a fixed
    prefix of the operation stream however fast the machine is."""
    from workloads import Record

    records: List[List] = [[] for _ in ops]
    stop = threading.Event()
    clock: Dict[str, float] = {}
    barrier = threading.Barrier(
        len(ops), action=lambda: clock.setdefault("start", time.perf_counter())
    )

    def client(index: int) -> None:
        handle = workload.connect(system)
        try:
            barrier.wait()
            deadline = clock["start"] + seconds
            for op in ops[index]:
                if stop.is_set() or time.perf_counter() >= deadline:
                    return
                started = time.perf_counter()
                try:
                    record = workload.execute(system, handle, op)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record = Record(op, error=f"{type(exc).__name__}: {exc}")
                record.seconds = time.perf_counter() - started
                records[index].append(record)
                if probe is not None and index == 0 and len(records[0]) == IO_WINDOW:
                    probe(sum(
                        r.op.kind == "search" for done in records for r in done
                    ))
            stop.set()
        finally:
            workload.disconnect(handle)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(len(ops))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - clock["start"]
    return [r for per_client in records for r in per_client], wall


def summarize(records, wall: float) -> Dict[str, float]:
    searches = [r for r in records if r.op.kind == "search"]
    writes = [r for r in records if r.op.kind == "add"]
    ok = [r.seconds * 1000.0 for r in searches if r.error is None] or [math.nan]
    p95 = percentile(ok, 0.95)
    summary = {
        "searches": len(searches),
        "writes": len(writes),
        "query_p50_ms": statistics.median(ok),
        "query_p95_ms": p95,
        "query_mean_ms": statistics.fmean(ok),
        "query_qps": len(searches) / wall,
        "beyond_p95": sum(1 for v in ok if v > p95),
    }
    write_ms = [r.seconds * 1000.0 for r in writes if r.error is None]
    if write_ms:
        summary["write_p50_ms"] = statistics.median(write_ms)
    return summary


def build_workload(cls, seed: int, ops_per_client: int):
    """Make a workload's inputs in a child process.  Deriving them parses
    a whole corpus; done here, that memory would stay in this process's
    allocator and be reused by the set-up, hiding it from peak_rss_mb."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(cls, seed, ops_per_client).result()


def measure(workload, seconds: float, setups: int):
    """Untraced: one timed closed loop, and the median set-up time."""
    from repro.config import StorageParams

    def timed_setup():
        gc.collect()
        # The collector would also walk the benchmark's own objects (the
        # operation lists, and after the run every recorded answer),
        # taxing later set-ups more than the first.
        gc.freeze()
        try:
            started = time.perf_counter()
            system = workload.setup()
            setup_times.append(time.perf_counter() - started)
        finally:
            gc.unfreeze()
        return system

    # The served set-up comes first, right after the high-water mark is
    # reset, so no earlier set-up has left memory for it to reuse; the
    # other set-ups follow the timed phase.
    setup_times: List[float] = []
    gc.collect()
    rss_baseline = reset_peak_rss()
    system = timed_setup()
    index_bytes = workload.index_bytes(system)
    sizes = capacities(workload, system)
    io_before = workload.io_stats(system)
    window: List = []
    try:
        records, wall = run_phase(
            workload, system, workload.ops, seconds,
            probe=lambda done: window.append((workload.io_stats(system), done)),
        )
        rss = peak_rss_mb()
        if not window:
            searches = sum(r.op.kind == "search" for r in records)
            window.append((workload.io_stats(system), searches))
    finally:
        workload.teardown(system)
    for _ in range(setups - 1):
        workload.teardown(timed_setup())
    summary = summarize(records, wall)
    io_after, window_searches = window[0]
    io = io_after.delta_since(io_before)
    summary.update(
        setup_s=statistics.median(setup_times),
        setup_runs=setup_times,
        sim_io_ms_per_query=(
            io.cost_ms(StorageParams()) / max(1, window_searches)
        ),
        index_bytes_per_source_byte=index_bytes / workload.source_bytes,
        peak_rss_mb=rss,
        sizes={**sizes, "rss_baseline_mb": round(rss_baseline, 1)},
    )
    return [records], summary


END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_qps", "1/s"),
    ("sim_io_ms_per_query", "sim_ms"),
    ("index_bytes_per_source_byte", "ratio"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(summary) -> Dict[str, Dict[str, object]]:
    return {
        name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END
    }


def report(workload, phases, summary, metrics) -> int:
    """Check every phase against the workload's oracle, print the human
    lines and the JSON result, and return the exit code."""
    # Each phase started from a fresh set-up, so each is checked alone.
    problems = [p for records in phases for p in workload.check(records)]
    records = [r for phase in phases for r in phase]
    errors = [r for r in records if r.error is not None]
    degraded = sum(1 for r in records if r.degraded)
    failed = len(errors) + degraded + len(problems)
    attempted = len(records)
    inputs = {
        **summary["sizes"],
        "distinct_queries": workload.info.get("distinct_queries"),
        "searches_timed": summary["searches"],
        "samples_beyond_p95": summary["beyond_p95"],
        "writes_timed": summary["writes"],
    }
    print("inputs " + json.dumps(inputs, sort_keys=True))
    if "setup_runs" in summary:
        print("setup_runs " + " ".join(f"{v:.4f}" for v in summary["setup_runs"]))
    for problem in problems[:10]:
        print("mismatch " + problem)
    for record in errors[:10]:
        print(f"error {record.op.kind} {record.op.text[:60]!r}: {record.error}")
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(f"metric error_rate {failed / max(1, attempted):.6g} fraction")
    if "write_p50_ms" in summary:
        print(f"metric write_p50_ms {summary['write_p50_ms']:.6g} ms")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if cls.clients > nproc:
        print(f"perfbench: {cls.name} runs {cls.clients} client threads, more "
              f"than nproc={nproc}; refusing to measure an oversubscribed "
              "machine", file=sys.stderr)
        return 2

    workload = build_workload(cls, args.seed, OPS_PER_CLIENT[cls.name])
    stamp = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": cls.clients,
        "loop": "closed",
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "inputs": workload.describe(),
    }
    print("env " + json.dumps(stamp, sort_keys=True))

    if args.trace:
        from layers import traced_run

        phases, summary, metrics = traced_run(workload, args.seconds)
    else:
        phases, summary = measure(workload, args.seconds, SETUPS)
        metrics = end_to_end(summary)
    return report(workload, phases, summary, metrics)


if __name__ == "__main__":
    sys.exit(main())
