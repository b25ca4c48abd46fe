"""I/O accounting and the disk cost model.

The paper's performance results (Figures 10 and 11) are driven by the I/O
pattern of each algorithm: DIL performs *sequential* scans of whole inverted
lists, RDIL performs few-but-*random* B+-tree probes, and the naive variants
scan longer lists.  Our reproduction therefore measures queries primarily in
simulated I/O cost, charging every buffer-pool miss a transfer cost and every
non-sequential miss an additional seek cost.  Wall-clock time is reported by
pytest-benchmark as well, but the cost model is the deterministic,
machine-independent measure that reproduces the paper's *shapes*.

Counters are shared state once the serving layer (:mod:`repro.service`)
runs queries from worker threads, so every mutation and multi-field read
goes through an internal lock.  The lock is excluded from equality, repr
and pickling (engines persist their disks via :meth:`XRankEngine.save`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from ..config import StorageParams


@dataclass
class IOStats:
    """Mutable counters for one simulated disk (thread-safe)."""

    page_reads: int = 0          # guarded by: self._lock — misses that touched the "disk"
    sequential_reads: int = 0    # guarded by: self._lock — subset of page_reads at last_pid + 1
    random_reads: int = 0        # guarded by: self._lock — subset of page_reads elsewhere
    page_writes: int = 0         # guarded by: self._lock
    cache_hits: int = 0          # guarded by: self._lock
    read_errors: int = 0         # guarded by: self._lock — injected failed page reads
    corrupt_pages: int = 0       # guarded by: self._lock — checksum mismatches at read time
    retries: int = 0             # guarded by: self._lock — in-place re-reads after a fault
    slow_reads: int = 0          # guarded by: self._lock — reads charged a stall penalty
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "page_reads": self.page_reads,
                "sequential_reads": self.sequential_reads,
                "random_reads": self.random_reads,
                "page_writes": self.page_writes,
                "cache_hits": self.cache_hits,
                "read_errors": self.read_errors,
                "corrupt_pages": self.corrupt_pages,
                "retries": self.retries,
                "slow_reads": self.slow_reads,
            }

    def __setstate__(self, state: dict) -> None:
        for name in ("read_errors", "corrupt_pages", "retries", "slow_reads"):
            state.setdefault(name, 0)  # pre-fault-injection pickles
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def record_read(self, sequential: bool) -> None:
        """Account one buffer-pool miss (sequential or random)."""
        with self._lock:
            self.page_reads += 1
            if sequential:
                self.sequential_reads += 1
            else:
                self.random_reads += 1

    def record_hit(self) -> None:
        """Account one buffer-pool hit."""
        with self._lock:
            self.cache_hits += 1

    def record_writes(self, count: int = 1) -> None:
        """Account ``count`` page writes."""
        with self._lock:
            self.page_writes += count

    def record_read_error(self) -> None:
        """Account one failed page read (injected I/O error)."""
        with self._lock:
            self.read_errors += 1

    def record_corrupt_page(self) -> None:
        """Account one checksum mismatch detected at read time."""
        with self._lock:
            self.corrupt_pages += 1

    def record_retry(self) -> None:
        """Account one in-place page re-read after a fault."""
        with self._lock:
            self.retries += 1

    def record_slow_read(self) -> None:
        """Account one read that hit a simulated stall."""
        with self._lock:
            self.slow_reads += 1

    # -- reading / combining ---------------------------------------------------

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.page_reads = 0
            self.sequential_reads = 0
            self.random_reads = 0
            self.page_writes = 0
            self.cache_hits = 0
            self.read_errors = 0
            self.corrupt_pages = 0
            self.retries = 0
            self.slow_reads = 0

    def snapshot(self) -> "IOStats":
        """An independent, internally consistent copy of the counters."""
        with self._lock:
            return IOStats(
                page_reads=self.page_reads,
                sequential_reads=self.sequential_reads,
                random_reads=self.random_reads,
                page_writes=self.page_writes,
                cache_hits=self.cache_hits,
                read_errors=self.read_errors,
                corrupt_pages=self.corrupt_pages,
                retries=self.retries,
                slow_reads=self.slow_reads,
            )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counter-wise difference ``self - earlier``."""
        current = self.snapshot()
        with earlier._lock:
            return IOStats(
                page_reads=current.page_reads - earlier.page_reads,
                sequential_reads=(
                    current.sequential_reads - earlier.sequential_reads
                ),
                random_reads=current.random_reads - earlier.random_reads,
                page_writes=current.page_writes - earlier.page_writes,
                cache_hits=current.cache_hits - earlier.cache_hits,
                read_errors=current.read_errors - earlier.read_errors,
                corrupt_pages=current.corrupt_pages - earlier.corrupt_pages,
                retries=current.retries - earlier.retries,
                slow_reads=current.slow_reads - earlier.slow_reads,
            )

    def cost_ms(self, params: StorageParams) -> float:
        """Simulated elapsed milliseconds under the given cost model."""
        with self._lock:
            return (
                self.page_reads * params.transfer_cost_ms
                + self.random_reads * params.seek_cost_ms
                + self.retries * params.transfer_cost_ms
                + self.slow_reads * params.slow_read_penalty_ms
            )

    def as_dict(self) -> dict:
        """Plain-dict view of the counters (for /stats JSON)."""
        with self._lock:
            return {
                "page_reads": self.page_reads,
                "sequential_reads": self.sequential_reads,
                "random_reads": self.random_reads,
                "page_writes": self.page_writes,
                "cache_hits": self.cache_hits,
                "read_errors": self.read_errors,
                "corrupt_pages": self.corrupt_pages,
                "retries": self.retries,
                "slow_reads": self.slow_reads,
            }

    def __add__(self, other: "IOStats") -> "IOStats":
        mine = self.snapshot()
        with other._lock:
            return IOStats(
                page_reads=mine.page_reads + other.page_reads,
                sequential_reads=mine.sequential_reads + other.sequential_reads,
                random_reads=mine.random_reads + other.random_reads,
                page_writes=mine.page_writes + other.page_writes,
                cache_hits=mine.cache_hits + other.cache_hits,
                read_errors=mine.read_errors + other.read_errors,
                corrupt_pages=mine.corrupt_pages + other.corrupt_pages,
                retries=mine.retries + other.retries,
                slow_reads=mine.slow_reads + other.slow_reads,
            )


def total_io(disks: Iterable) -> IOStats:
    """Counters summed over simulated disks (each read consistently)."""
    total = IOStats()
    for disk in disks:
        total = total + disk.stats
    return total
